import math
import random
from dataclasses import replace

import pytest

from maas_market import (DemandEntry, DemandTable, Link, MixedIntegerProgram,
                         Network, ObjectivePolicy, build_outcome_lp,
                         build_sioux_falls, decompose_flows, fig5,
                         generate_constraints_algorithm1, solve_matching,
                         solve_outcome)
from maas_market.matching import _flow_model
from maas_market.outcomes import BUYER_OPTIMAL
from maas_market.randnet import random_instance
from maas_market.solve import Rows
from maas_market.stability import TIE_TOL


def pipeline_artifacts(network, demand, subsidies=None):
    """Matching, duals, decomposition, and lexicographic constraint system."""
    matching = solve_matching(network, demand)
    decomposition = decompose_flows(network, demand, matching)
    system = generate_constraints_algorithm1(network, demand, matching,
                                             decomposition, subsidies=subsidies)
    return matching, matching.duals, decomposition, system


def build_mcnd(network, demand):
    """Literal per-commodity model: |A|*|S| flow variables plus |A| binaries."""
    balances = [{e.origin: e.demand, e.destination: -e.demand} for e in demand.entries]
    lp, _ = _flow_model(network, network.links, balances,
                        linking=[link.capacity for link in network.links])
    y_offset = lp.num_vars - len(network.links)
    return MixedIntegerProgram(lp=lp, binary_vars=frozenset(range(y_offset, lp.num_vars)))


def core_nonempty(system):
    """Whether ``system`` has a stable outcome.  The buyer-optimal LP is
    bounded (u_s <= U_s - t_r on each optimal path), so it is optimal
    exactly when it is feasible."""
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=BUYER_OPTIMAL))
    return solve_outcome(model, tie_break=False).status == "optimal"


def undominated_rows(system, oracle):
    """The rows of ``oracle`` with bound > 0 that no single row of ``system``
    or surplus equality implies; empty when the certificate holds.

    Prices and surpluses are non-negative, so a row of ``system`` in the same
    group implies an oracle row when its terms are a subset of the oracle
    row's and its bound is no smaller.  The surplus equality of an optimal
    path r, u + sum of r's prices = U - travel(r), implies one whose terms
    hold all of r's prices and whose bound is at most U - travel(r).  The
    certificate is sufficient, not necessary: several rows together may
    imply a row that no one of them does."""
    rows = {}
    for row in system.stability_rows:
        rows.setdefault(row.group, []).append((frozenset(row.terms), row.bound))
    missed = []
    for row in (row for row in oracle.stability_rows if row.bound > 0):
        terms, pset = frozenset(row.terms), oracle.groups[row.group]
        by_row = any(subset <= terms and bound >= row.bound - TIE_TOL
                     for subset, bound in rows.get(row.group, ()))
        by_equality = any({(info.nodes, f) for f in info.operators} <= terms
                          and row.bound <= pset.utility - info.travel_cost + TIE_TOL
                          for info in pset.paths)
        if not (by_row or by_equality):
            missed.append(row)
    return missed


def rebuilt(lp, rows=None, **changes):
    """A copy of ``lp``, with ``changes``, whose rows are ``rows`` (``lp``'s
    own by default) read as ``Row`` values and added one by one through
    ``add_row``: the same rows in a new ``Rows``, not ``lp``'s own."""
    copy = replace(lp, rows=Rows(), **changes)
    for row in lp.rows if rows is None else rows:
        copy.add_row(row.coeffs, row.sense, row.rhs)
    return copy


def effective_bounds(lp):
    """``lp``'s (lower, upper) pair per column as a list, (0, inf) each
    when ``lp.bounds`` is None."""
    if lp.bounds is None:
        return [(0.0, math.inf)] * lp.num_vars
    return list(lp.bounds)


def flows_for(decomposition, od):
    """The ``(path, z)`` pairs of ``decomposition`` that serve ``od``."""
    return [(p, z) for p, z in decomposition.path_flows if p.group == od]


def float_capacity_shortfall():
    """Infeasible demand on float capacities: at most 24.94 + 14.36 of the
    43.9 travelers from 1 to 2 fit.  networkx 3.6.1's preflow-push max-flow
    raised a ValueError on exactly these capacities."""
    capacities = {(1, 2): 24.936188087919852, (1, 5): 29.372720903889945,
                  (1, 7): 70.81613918213137, (2, 3): 84.77414334457427,
                  (3, 4): 16.520843067290905, (3, 6): 86.2580523998798,
                  (4, 5): 81.44766291420966, (6, 2): 14.361542408731012,
                  (6, 5): 56.201814158965746, (6, 7): 30.912061413392905,
                  (7, 6): 39.32247118890903}
    network = Network(nodes=frozenset(range(1, 8)), links=tuple(
        Link(*arc, travel_cost=1, operating_cost=1, capacity=capacity, owner=1)
        for arc, capacity in capacities.items()))
    demand = DemandTable(entries=(DemandEntry(1, 2, 43.9, 100),
                                  DemandEntry(1, 3, 25.4, 100),
                                  DemandEntry(3, 4, 8.0, 100)))
    return network, demand


# a tie-rich k x k grid: integer costs, some links of capacity 30, ``ops``
# owners and four ODs; returns (network, demand)
def grid(seed, k=4, ops=3):
    rng = random.Random(seed)
    node = lambda i, j: i * k + j + 1
    links = []
    for i in range(k):
        for j in range(k):
            for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
                a, b = i + di, j + dj
                if 0 <= a < k and 0 <= b < k:
                    links.append(Link(node(i, j), node(a, b),
                        travel_cost=float(rng.randint(1, 3)),
                        operating_cost=float(rng.randint(0, 20)),
                        capacity=float(rng.choice([1e6, 1e6, 30.0])),
                        owner=rng.randint(1, ops)))
    ods = set()
    while len(ods) < 4:
        o, d = rng.sample(range(1, k * k + 1), 2); ods.add((o, d))
    entries = tuple(DemandEntry(o, d, demand=float(rng.randint(5, 40)),
                                utility=float(rng.randint(15, 30)))
                    for o, d in sorted(ods))
    return (Network(nodes=frozenset(range(1, k * k + 1)), links=tuple(links)),
            DemandTable(entries=entries))


@pytest.fixture(scope="session")
def fig5_instance():
    return fig5()


@pytest.fixture(scope="session")
def fig5_pipeline(fig5_instance):
    network, demand = fig5_instance
    return pipeline_artifacts(network, demand)


@pytest.fixture(scope="session")
def reference_instances():
    """fig5, Sioux Falls (10/3, transfer cost 2) and random_instance(0..199),
    each as (network, demand, matching, decomposition, system)."""
    instances = [fig5(), build_sioux_falls(transfer_cost=2.0,
                                           capacity_scale=10 / 3)]
    instances += [random_instance(seed) for seed in range(200)]
    out = []
    for network, demand in instances:
        matching, _, decomposition, system = pipeline_artifacts(network, demand)
        out.append((network, demand, matching, decomposition, system))
    return out
