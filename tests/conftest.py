import math
import random
from dataclasses import replace

import pytest

from maas_market import (DemandEntry, DemandTable, Link, MixedIntegerProgram,
                         Network, ObjectivePolicy, OutcomeOptions,
                         build_outcome_lp, build_sioux_falls, decompose_flows,
                         fig5, generate_constraints_algorithm1, solve_matching,
                         solve_outcome)
from maas_market.matching import _flow_model, flow_lp
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL
from maas_market.randnet import random_instance
from maas_market.solve import Rows, solve_lp
from maas_market.stability import TIE_TOL

CORPUS_SEEDS = range(12)


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
    return vertex(system, BUYER_OPTIMAL, tie_break=False).status == "optimal"


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


# ---------------------------------------------------------------------------
# Equilibrium checks.  Each takes (label, network, demand, artifacts), with
# ``artifacts`` as ``pipeline_artifacts`` returns them, and gives True when
# the check holds, a message naming the failure, or None where the check
# does not apply.  The acceptance gates, the property tests and the fig5
# tests all run these.


def conservation_and_capacity(label, network, demand, artifacts):
    matching = artifacts[0]
    for entry in demand.entries:
        per_od = matching.flows.get(entry.od, {})
        for node in network.nodes:
            balance = (sum(v for (t, _), v in per_od.items() if t == node)
                       - sum(v for (_, h), v in per_od.items() if h == node))
            expected = (entry.demand if node == entry.origin else
                        -entry.demand if node == entry.destination else 0.0)
            if abs(balance - expected) > 1e-5:
                return f"node {node} od {entry.od}"
    for link in network.links:
        total = matching.total_flow(link.arc)
        if total > link.capacity * matching.activations[link.arc] + 1e-6:
            return f"capacity {link.arc}"
    return True


def complementary_slackness(label, network, demand, artifacts):
    """A positive capacity dual only on a saturated link."""
    matching, duals = artifacts[:2]
    for link in network.links:
        slack = link.capacity - matching.total_flow(link.arc)
        if duals[link.arc] > 1e-6 and abs(slack) > max(1e-5,
                                                       1e-6 * link.capacity):
            return f"{link.arc} dual without saturation"
    return True


def decomposition_completeness(label, network, demand, artifacts):
    """Each OD's path flows sum to its demand and rebuild its link flows."""
    matching, _, decomposition, _ = artifacts
    for entry in demand.entries:
        flows = [(p, z) for p, z in decomposition.path_flows
                 if p.group == entry.od]
        if abs(sum(z for _, z in flows) - entry.demand) > 1e-5:
            return f"total for {entry.od}"
        rebuilt = {}
        for path, z in flows:
            for arc in path.arcs:
                rebuilt[arc] = rebuilt.get(arc, 0.0) + z
        for arc, v in matching.flows.get(entry.od, {}).items():
            if abs(rebuilt.get(arc, 0.0) - v) > 1e-5:
                return f"arc {arc} for {entry.od}"
    return True


def strong_duality(label, network, demand, artifacts):
    """The flow LP at the matching's activations has no duality gap."""
    lp, _, _, _ = flow_lp(network, demand, artifacts[0].activations)
    res = solve_lp(lp)
    if res.status != "optimal":
        return res.status
    dual_obj = sum(dual * row.rhs for dual, row in zip(res.duals, lp.rows))
    gap = abs(dual_obj - res.objective)
    return True if gap <= 1e-6 * max(1.0, abs(res.objective)) \
        else f"gap {gap}"


def vertex(system, mode, options=OutcomeOptions(), **kwargs):
    """``system``'s outcome at global objective ``mode``."""
    return solve_outcome(build_outcome_lp(
        system, ObjectivePolicy(global_mode=mode), options), **kwargs)


def _identity_broken(out, system, tol):
    """The first optimal path of ``system`` on which ``out`` breaks
    u + sum p = U - travel by more than ``tol``, or None."""
    for od, pset in system.groups.items():
        for info in pset.paths:
            total = out.surplus[od] + sum(out.prices[(od, info.nodes, f)]
                                          for f in info.operators)
            if abs(total - (pset.utility - info.travel_cost)) > tol:
                return info.nodes
    return None


def transfer_identity(label, network, demand, artifacts):
    """u + sum p = U - travel on every optimal path, at both vertices."""
    for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
        out = vertex(artifacts[3], mode)
        if out.status != "optimal":
            continue
        nodes = _identity_broken(out, artifacts[3], 1e-9)
        if nodes is not None:
            return f"{mode} path {nodes}"
    return True


def buyer_seller_ordering(label, network, demand, artifacts):
    """The buyer vertex gives travelers no less, and operators no more,
    than the seller vertex."""
    buyer = vertex(artifacts[3], BUYER_OPTIMAL)
    seller = vertex(artifacts[3], SELLER_OPTIMAL)
    if buyer.status != "optimal":
        return True if seller.status != "optimal" else "status mismatch"
    if buyer.consumer_surplus < seller.consumer_surplus - 1e-6:
        return "surplus ordering"
    if (sum(m.revenue for m in seller.operators.values())
            < sum(m.revenue for m in buyer.operators.values()) - 1e-6):
        return "revenue ordering"
    return True


def uniform_cost_scaling(label, network, demand, artifacts):
    """Scaling every cost by 1.7 scales the optimum and keeps the
    activations."""
    matching, lam = artifacts[0], 1.7
    scaled = Network(nodes=network.nodes, links=tuple(
        replace(l, travel_cost=l.travel_cost * lam,
                operating_cost=l.operating_cost * lam)
        for l in network.links))
    other = solve_matching(scaled, demand)
    if abs(other.objective - lam * matching.objective) \
            > 1e-8 * max(1.0, abs(matching.objective)):
        return "objective"
    return True if other.activations == matching.activations \
        else "activations"


def acquisition(label, network, demand, artifacts):
    """Setting the last operator to welfare-max never raises its revenue
    above the seller vertex's."""
    system = artifacts[3]
    if len(system.covers) < 2:
        return None
    seller = vertex(system, SELLER_OPTIMAL)
    if seller.status != "optimal":
        return None
    acquired = sorted(system.covers)[-1]
    modes = {f: "revenue_max" for f in system.covers}
    modes[acquired] = "welfare_max"
    out = solve_outcome(build_outcome_lp(
        system, ObjectivePolicy(per_operator=modes)))
    if out.status != "optimal":
        return f"acquisition vertex {out.status}"
    gap = out.operators[acquired].revenue - seller.operators[acquired].revenue
    return True if gap <= 1e-6 else f"revenue rose by {gap}"


def subsidy(label, network, demand, artifacts):
    """Halving the operating cost of the first operated costly link keeps
    the buyer vertex stable: it meets every row of the subsidized system,
    whose core is nonempty."""
    matching, _, decomposition, system = artifacts
    buyer = vertex(system, BUYER_OPTIMAL, tie_break=False)
    if buyer.status != "optimal":
        return None
    operated = [l for l in network.links
                if matching.activations[l.arc] and l.operating_cost > 0
                and l.owner != 0]
    if not operated:
        return None
    subsidies = {operated[0].arc: operated[0].operating_cost * 0.5}
    bigger = generate_constraints_algorithm1(
        network, demand, matching, decomposition, subsidies=subsidies)
    nodes = _identity_broken(buyer, bigger, 1e-6)
    if nodes is not None:
        return f"surplus equality of path {nodes} violated"
    for f, (terms, rhs) in bigger.covers.items():
        lhs = sum(z * buyer.prices[(od, nodes, f)] for od, nodes, z in terms)
        if lhs < rhs - 1e-6:
            return f"cover {f} violated"
    for row in bigger.stability_rows:
        lhs = buyer.surplus[row.group] + sum(
            buyer.prices[(row.group, nodes, f)] for nodes, f in row.terms)
        if lhs < row.bound - 1e-6:
            return f"stability row for {row.group} violated"
    return True if core_nonempty(bigger) else "core emptied"


def merge_all(label, network, demand, artifacts):
    """Merging every operator into one keeps a nonempty core nonempty."""
    if not core_nonempty(artifacts[3]):
        return None
    merged = Network(nodes=network.nodes, links=tuple(
        replace(l, owner=1 if l.owner != 0 else 0) for l in network.links))
    _, _, _, merged_system = pipeline_artifacts(merged, demand)
    return True if core_nonempty(merged_system) else "merged core empty"


@pytest.fixture(scope="session")
def corpus():
    """random_instance(0..11), each as (seed, network, demand, artifacts):
    the corpus that the acceptance gates and the property tests share."""
    return [(seed, network, demand, pipeline_artifacts(network, demand))
            for seed in CORPUS_SEEDS for network, demand in [random_instance(seed)]]


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
