"""Answer checks for the benchmark, run outside its timed region.

Each checker raises ``CheckFailed`` on the first wrong answer.  Where a check
needs a reference value it computes it here, apart from the library: link
balances from the reported flows, shortest deviation costs with
``scipy.sparse.csgraph``, and the matching optimum with an independent
per-commodity MILP through ``scipy.optimize.milp``.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse.csgraph import dijkstra

import maas_market as mm

FLOW_TOL = 1e-5
REL_TOL = 1e-6


class CheckFailed(AssertionError):
    """An answer of the program disagrees with the independent computation."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(a, b, rel=REL_TOL, scale=1.0):
    return abs(a - b) <= rel * max(1.0, scale, abs(a), abs(b))


# ---------------------------------------------------------------------------
# equilibrium: matching, duals, decomposition, optimal path sets


def check_flows(network, demand, matching):
    """Per-OD conservation at every node, and joint capacity per link."""
    for entry in demand.entries:
        balance = {}
        for (tail, head), value in matching.flows.get(entry.od, {}).items():
            _require(value >= -FLOW_TOL, f"negative flow {value} on {(tail, head)}")
            balance[tail] = balance.get(tail, 0.0) + value
            balance[head] = balance.get(head, 0.0) - value
        for node in network.nodes:
            expected = (entry.demand if node == entry.origin else
                        -entry.demand if node == entry.destination else 0.0)
            _require(abs(balance.get(node, 0.0) - expected) <= FLOW_TOL,
                     f"OD {entry.od}: flow is not conserved at node {node}")
    totals = _link_totals(matching)
    for link in network.links:
        limit = link.capacity if matching.activations.get(link.arc, 0) else 0.0
        _require(totals.get(link.arc, 0.0) <= limit + FLOW_TOL + REL_TOL * limit,
                 f"link {link.arc} carries {totals.get(link.arc, 0.0)} over {limit}")


def check_duals(network, matching, duals):
    """A positive capacity dual only on a saturated link."""
    totals = _link_totals(matching)
    for link in network.links:
        mu = duals.get(link.arc, 0.0)
        _require(mu >= 0.0, f"negative dual {mu} on {link.arc}")
        if mu > REL_TOL:
            slack = link.capacity - totals.get(link.arc, 0.0)
            _require(abs(slack) <= FLOW_TOL + REL_TOL * link.capacity,
                     f"dual {mu} on unsaturated link {link.arc} (slack {slack})")


def check_decomposition(demand, matching, decomposition):
    """Path flows sum to each group's demand and rebuild its link flows."""
    by_group = {}
    for path, z in decomposition.path_flows:
        _require(z > 0, f"non-positive path flow {z} for {path.group}")
        rebuilt = by_group.setdefault(path.group, {})
        for arc in zip(path.nodes[:-1], path.nodes[1:]):
            rebuilt[arc] = rebuilt.get(arc, 0.0) + z
    for entry in demand.entries:
        total = sum(z for path, z in decomposition.path_flows if path.group == entry.od)
        _require(abs(total - entry.demand) <= FLOW_TOL,
                 f"OD {entry.od}: path flows sum to {total}, demand {entry.demand}")
        rebuilt = by_group.get(entry.od, {})
        flows = matching.flows.get(entry.od, {})
        for arc in set(rebuilt) | set(flows):
            _require(abs(rebuilt.get(arc, 0.0) - flows.get(arc, 0.0)) <= FLOW_TOL,
                     f"OD {entry.od}: path flows do not rebuild link {arc}")


def omega_weights(network, duals, activations):
    """Deviation cost per arc: travel cost, plus the capacity dual, plus the
    operating cost of a link that is not operated."""
    return {link.arc: link.travel_cost + duals.get(link.arc, 0.0)
            + (0.0 if activations.get(link.arc, 0) else link.operating_cost)
            for link in network.links}


def check_optimal_paths(network, demand, matching, duals, system):
    """Each group's optimal-path omega equals a csgraph Dijkstra distance."""
    weights = omega_weights(network, duals, matching.activations)
    index = {node: i for i, node in enumerate(sorted(network.nodes))}
    arcs = list(weights)
    graph = sp.csr_array(
        (np.array([weights[a] for a in arcs]),
         (np.array([index[a[0]] for a in arcs]), np.array([index[a[1]] for a in arcs]))),
        shape=(len(index), len(index)))
    origins = sorted({entry.origin for entry in demand.entries})
    dist = dijkstra(graph, directed=True, indices=[index[o] for o in origins])
    row = {o: k for k, o in enumerate(origins)}
    for entry in demand.entries:
        best = dist[row[entry.origin], index[entry.destination]]
        pset = system.groups[entry.od]
        _require(pset.paths, f"OD {entry.od}: no optimal path")
        for info in pset.paths:
            value = sum(weights[a] for a in zip(info.nodes[:-1], info.nodes[1:]))
            _require(close(value, best),
                     f"OD {entry.od}: path {info.nodes} has omega {value}, "
                     f"shortest is {best}")


def check_equilibrium(eq):
    check_flows(eq.network, eq.demand, eq.matching)
    check_duals(eq.network, eq.matching, eq.duals)
    check_decomposition(eq.demand, eq.matching, eq.paths)
    check_optimal_paths(eq.network, eq.demand, eq.matching, eq.duals, eq.system)


def _link_totals(matching):
    totals = {}
    for per_od in matching.flows.values():
        for arc, value in per_od.items():
            totals[arc] = totals.get(arc, 0.0) + value
    return totals


# ---------------------------------------------------------------------------
# outcome vertices


def cover_rhs(network, activations, subsidies, operator):
    return sum(link.operating_cost - subsidies.get(link.arc, 0.0)
               for link in network.operator_links(operator)
               if activations.get(link.arc, 0))


def check_stable(network, activations, system, subsidies, outcome,
                 fixed_fare=frozenset()):
    """Surplus equalities, covers, stability rows, price signs and fixed fares
    of one solved vertex against ``system``."""
    prices, surplus = outcome.prices, outcome.surplus
    for od, pset in system.groups.items():
        for info in pset.paths:
            travel = sum(network.by_arc[a].travel_cost
                         for a in zip(info.nodes[:-1], info.nodes[1:]))
            total = surplus[od] + sum(prices[(od, info.nodes, f)]
                                      for f in info.operators)
            _require(close(total, pset.utility - travel, scale=pset.utility),
                     f"OD {od}: surplus equality fails on path {info.nodes}")
    for f, (terms, rhs) in system.covers.items():
        _require(close(rhs, cover_rhs(network, activations, subsidies, f)),
                 f"operator {f}: cover right-hand side {rhs} is not its net cost")
        lhs = sum(z * prices[(od, nodes, f)] for od, nodes, z in terms)
        _require(lhs >= rhs - REL_TOL * max(1.0, abs(rhs), lhs),
                 f"operator {f}: revenue {lhs} does not cover {rhs}")
    for row in system.stability_rows:
        lhs = surplus[row.group] + sum(prices[(row.group, nodes, f)]
                                       for nodes, f in row.terms)
        _require(lhs >= row.bound - REL_TOL * max(1.0, abs(row.bound)),
                 f"OD {row.group}: stability row {row.terms} >= {row.bound} fails")
    for key, value in prices.items():
        _require(value >= 0.0, f"negative price {value} for {key}")
    for f in fixed_fare:
        fares = [p for (_, _, g), p in prices.items() if g == f]
        _require(not fares or max(fares) - min(fares) <= REL_TOL * max(1.0, max(fares)),
                 f"fixed-fare operator {f} charges {min(fares)}..{max(fares)}")


def check_buyer_seller(buyer, seller):
    """The buyer vertex gives travellers at least the seller vertex's surplus,
    and the seller vertex gives operators at least the buyer's revenue."""
    if buyer is None or seller is None:
        return
    if buyer.status != "optimal" or seller.status != "optimal":
        return
    _require(buyer.consumer_surplus >= seller.consumer_surplus
             - REL_TOL * max(1.0, abs(seller.consumer_surplus)),
             f"buyer surplus {buyer.consumer_surplus} < seller "
             f"{seller.consumer_surplus}")
    revenue_b = sum(m.revenue for m in buyer.operators.values())
    revenue_s = sum(m.revenue for m in seller.operators.values())
    _require(revenue_s >= revenue_b - REL_TOL * max(1.0, revenue_b),
             f"seller revenue {revenue_s} < buyer revenue {revenue_b}")


# ---------------------------------------------------------------------------
# reference values


def independent_matching_objective(network, demand):
    """Optimum of the per-commodity fixed-charge model, solved by scipy's MILP.

    One flow column per (OD, link) and one binary per link; the joint link
    row is ``sum_s x_sa <= min(u_a, total demand) * y_a``.
    """
    links = network.links
    nodes = sorted(network.nodes)
    node_row = {n: i for i, n in enumerate(nodes)}
    n_links, n_ods = len(links), len(demand.entries)
    n_x = n_ods * n_links
    total = demand.total_demand()
    cost = np.concatenate([np.tile([l.travel_cost for l in links], n_ods),
                           [l.operating_cost for l in links]])
    rows, cols, vals = [], [], []
    rhs = np.zeros(n_ods * len(nodes))
    for s, entry in enumerate(demand.entries):
        base = s * len(nodes)
        rhs[base + node_row[entry.origin]] += entry.demand
        rhs[base + node_row[entry.destination]] -= entry.demand
        for a, link in enumerate(links):
            rows += [base + node_row[link.tail], base + node_row[link.head]]
            cols += [s * n_links + a] * 2
            vals += [1.0, -1.0]
    balance = sp.csr_array((vals, (rows, cols)), shape=(len(rhs), n_x + n_links))
    rows, cols, vals = [], [], []
    for a, link in enumerate(links):
        for s in range(n_ods):
            rows.append(a)
            cols.append(s * n_links + a)
            vals.append(1.0)
        rows.append(a)
        cols.append(n_x + a)
        vals.append(-min(link.capacity, total))
    linking = sp.csr_array((vals, (rows, cols)), shape=(n_links, n_x + n_links))
    integrality = np.concatenate([np.zeros(n_x), np.ones(n_links)])
    upper = np.concatenate([np.full(n_x, np.inf), np.ones(n_links)])
    result = milp(cost, integrality=integrality, bounds=Bounds(0, upper),
                  constraints=[LinearConstraint(balance, rhs, rhs),
                               LinearConstraint(linking, -np.inf, 0.0)])
    _require(result.status == 0, f"reference MILP ended with status {result.status}")
    return float(result.fun)


def check_matching_objective(matching, reference, label):
    _require(close(matching.objective, reference),
             f"{label}: matching objective {matching.objective}, "
             f"reference {reference}")


def check_oracle_vertex(oracle, policy, got, label):
    """A vertex of Algorithm 1's system has the same status and objective as
    the same vertex of the enumeration oracle's system."""
    want = mm.solve_outcome(mm.build_outcome_lp(oracle, policy), tie_break=False)
    _require(got.status == want.status and
             (got.status != "optimal" or close(got.objective, want.objective)),
             f"{label}: Algorithm 1 gives {got.status} {got.objective}, "
             f"enumeration {want.status} {want.objective}")


def published_objective(network, path):
    """Matching objective implied by a published link-flow table: travel cost
    of the published flows plus the operating cost of every link."""
    with open(path, newline="") as fh:
        flows = {(int(r["tail"]), int(r["head"])): float(r["flow"])
                 for r in csv.DictReader(fh)}
    return (sum(flow * network.by_arc[arc].travel_cost for arc, flow in flows.items())
            + sum(link.operating_cost for link in network.links))


def check_fig5(eq, buyer):
    """The paper's Fig. 5 values."""
    flows = {(p.group, p.nodes): z for p, z in eq.paths.path_flows}
    for key, want in ((((1, 3), (1, 3)), 1000.0),
                      (((1, 4), (1, 21, 23, 4)), 200.0),
                      (((1, 4), (1, 4)), 300.0)):
        _require(abs(flows.get(key, 0.0) - want) <= 1e-6,
                 f"fig5: path flow {key} is {flows.get(key)}, want {want}")
    _require(abs(eq.duals[(1, 21)] - 4.0) <= 1e-6,
             f"fig5: mu(1,21) is {eq.duals[(1, 21)]}, want 4")
    _require(buyer is not None and buyer.status == "optimal"
             and math.isclose(buyer.surplus[(1, 4)], 28 / 3, abs_tol=1e-6),
             "fig5: buyer u(1,4) is not 28/3")
