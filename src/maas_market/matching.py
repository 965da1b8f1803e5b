"""Capacitated matching between traveler groups and operator links.

The matching problem is a multicommodity capacitated fixed-charge network
design model: one commodity per OD user group, a binary activation per link,
flow conservation per (node, commodity), and a joint capacity row per link.
The objective charges travel disutility on flows and operating cost on
activated links.

Solving goes through an origin-aggregated reformulation (commodities that
share an origin are merged, which is exact because link costs do not depend
on the commodity).  Its branch-and-bound starts with links fixed open by a
Lagrangian bound (Holmberg and Yuan, 2000).  Pricing each joint capacity row
at lam = max(0, -dual) of the root LP leaves one uncapacitated shortest-path
problem per origin, so any solution with link j closed costs at least

    L_j = sum_o sum_d D_od dist_{G-j}(o, d) + sum_{k != j} min(0, f_k - lam_k M_k)

with arc costs travel + lam and M_k = min(capacity, total demand); this holds
for any lam >= 0, so inexact duals weaken the bound but never falsify it.
Rounding every root activation above zero up to 1 gives a solution of cost U,
so a link fractional at the root with L_j > U + 1e-6 max(1, |U|) is open in
every optimum, and even in every solution within the solver's absolute gap;
the relative margin covers the rounding in the sums.  Fixing it (Savelsbergh,
1994) removes only solutions no optimum is among.

With the activations fixed, one origin-aggregated flow LP over the operated
links gives both the link flows and the capacity duals, read from its
capacity rows.  One lexicographic walk per origin splits its
flow into paths; summed per OD they give the per-OD flows, and merged per OD
they are the canonical path decomposition.

The MILP and the flow LP come from one node-arc incidence builder,
:func:`_flow_model`, which lays one block's incidence pattern out once and
repeats it per block with numpy; the literal per-commodity model, which the
tests compare these against, lives in the tests and uses it too.  Each
block's balance rows sum to zero, so one of them is implied: the MILP
leaves out the largest node's row of every block, which HiGHS's presolve
would otherwise find and remove on each solve.  The flow LP keeps every
row, because its duals and optimal vertex depend on them: without them
answers changed on 4 of 303 instances (fig5, Sioux Falls at 10/3 with and
without its 0.6x cut, ``random_instance(0..299)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .errors import InfeasibleMatchingError, SolveNumericalError
from .network import DemandTable, Network, write_csv
from .solve import EQ, LE, LinearProgram, MixedIntegerProgram, solve_lp, solve_milp

FLOW_EPS = 1e-6
OPTIMALITY_TOL = 1e-6  # relative: recovered flow cost against the MILP optimum


@dataclass(frozen=True)
class Path:
    """A simple path serving one user group."""

    group: tuple[int, int]
    nodes: tuple[int, ...]

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.nodes[:-1], self.nodes[1:]))

    def travel_cost(self, network: Network) -> float:
        return sum(network.by_arc[a].travel_cost for a in self.arcs)


@dataclass
class Memo:
    """A private memo for results derived from a reused object."""

    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def cached(self, key, build):
        """``build()``, called on the first request for ``key`` only; every
        later call returns the same object."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = build()
            return value


@dataclass
class MatchingSolution(Memo):
    """The matching; its memo keeps stability-generation work that every
    scenario generated on it shares (see ``stability``)."""

    flows: dict  # od -> {arc: passengers}
    activations: dict  # arc -> 0/1
    objective: float
    path_flows: list  # [(Path, z_r)], per OD in demand order
    duals: dict  # arc -> mu >= 0, every link; 0.0 where not operated

    def total_flow(self, arc) -> float:
        return sum(per_od.get(arc, 0.0) for per_od in self.flows.values())


@dataclass
class PathFlowSolution:
    path_flows: list  # [(Path, z_r)]
    duals: dict  # arc -> mu >= 0


def _flow_model(network: Network, links, balances, linking=None, drop_implied=False):
    """Node-arc incidence model over ``links``, one flow block per commodity.

    ``balances`` holds each commodity's net outflow per node; flow columns
    come block by block in link order, each charged the link's travel cost.
    Each block has one balance row per node in node order, listing the
    block's links out of the node at +1 and into it at -1, in link order;
    with ``drop_implied`` it leaves out the row of the largest node, which
    the block's other rows imply (every block's rows sum to zero).  The
    joint rows follow, one per link.  Without ``linking`` each link's joint
    flow is bounded by its capacity.  With it, one activation column per
    link follows the flow columns, charged the operating cost, and the joint
    flow is bounded by ``linking[k] * y_k``.  Returns the LP and each link's
    joint row.
    """
    num_links, num_blocks = len(links), len(balances)
    objective = [link.travel_cost for link in links] * num_blocks
    if linking is not None:
        objective += [link.operating_cost for link in links]
    lp = LinearProgram(num_vars=len(objective), objective=objective)
    nodes = sorted(network.nodes)
    position = {node: i for i, node in enumerate(nodes)}
    num_rows = len(nodes) - 1 if drop_implied else len(nodes)
    incidence = [[] for _ in nodes]  # (link index, +-1) per node, in link order
    for k, link in enumerate(links):
        incidence[position[link.tail]].append((k, 1.0))
        incidence[position[link.head]].append((k, -1.0))
    block = [entry for entries in incidence[:num_rows] for entry in entries]
    lengths = [len(entries) for entries in incidence[:num_rows]] * num_blocks
    offsets = num_links * np.arange(num_blocks)[:, None]  # each block's first column
    rhs = np.zeros((num_blocks, len(nodes)))
    for b, balance in enumerate(balances):
        for node, net_outflow in balance.items():
            rhs[b, position[node]] = net_outflow
    # joint rows: link k's column in every block, then its activation column,
    # which sits where a next block's column for link k would
    width = num_blocks if linking is None else num_blocks + 1
    joint = np.arange(num_links)[:, None] + num_links * np.arange(width)
    joint_value = np.ones((num_links, width))
    if linking is None:
        joint_rhs = [link.capacity for link in links]
    else:
        joint_value[:, num_blocks] = [-coefficient for coefficient in linking]
        joint_rhs = [0.0] * num_links
    # the balance rows, then the joint rows, in one block
    num_balance = num_blocks * num_rows
    lp.add_rows(np.cumsum([0] + lengths + [width] * num_links),
                np.concatenate(((np.array([k for k, _ in block], dtype=np.int64)
                                 + offsets).ravel(), joint.ravel())),
                np.concatenate((np.tile([v for _, v in block], num_blocks),
                                joint_value.ravel())),
                [EQ] * num_balance + [LE] * num_links,
                np.concatenate((rhs[:, :num_rows].ravel(), joint_rhs)))
    return lp, list(range(num_balance, num_balance + num_links))


def _origin_balances(demand: DemandTable):
    """Origins in order, and each origin's net outflow per node."""
    balances = {}
    for entry in demand.entries:
        balance = balances.setdefault(entry.origin, {})
        balance[entry.origin] = balance.get(entry.origin, 0.0) + entry.demand
        balance[entry.destination] = balance.get(entry.destination, 0.0) - entry.demand
    origins = sorted(balances)
    return origins, [balances[o] for o in origins]


def _build_origin_aggregated(network: Network, demand: DemandTable) -> MixedIntegerProgram:
    """Commodities merged by origin; exact because costs are commodity-free.

    A link never needs to carry more than the total demand, so its flow is
    tied to its activation with the strong coefficient
    ``min(capacity, total demand)``.  With a huge capacity the weak
    ``capacity * y`` lets HiGHS accept a ``y`` of about 1e-6 as integral,
    which then rounds to a closed link that carries flow.
    """
    _, balances = _origin_balances(demand)
    lp, _ = _flow_model(network, network.links, balances,
                        linking=_linking(network, demand), drop_implied=True)
    y_offset = lp.num_vars - len(network.links)
    return MixedIntegerProgram(lp=lp, binary_vars=frozenset(range(y_offset, lp.num_vars)))


def _linking(network: Network, demand: DemandTable):
    """Each link's joint-row coefficient ``min(capacity, total demand)``."""
    total = demand.total_demand()
    return [min(link.capacity, total) for link in network.links]


def _lagrangian_bound(network: Network, origins, balances, linking, lam):
    """The Lagrangian bound of the origin-aggregated model with its joint
    rows priced at ``lam >= 0``, as ``bound(removed=None)``.

    ``bound(j)`` is a lower bound on the cost of every solution with link
    ``j`` closed, and ``bound()`` one on every solution.  Priced joint rows
    leave the flows uncapacitated, so each origin ships its demand on
    shortest paths over the other links at arc cost travel + lam; each
    activation adds ``min(0, operating cost - lam * linking)``.  A demanded
    node that no path reaches makes the bound ``inf``.
    """
    links = network.links
    index = {node: i for i, node in enumerate(sorted(network.nodes))}
    tails = np.array([index[link.tail] for link in links], dtype=int)
    heads = np.array([index[link.head] for link in links], dtype=int)
    weights = np.array([link.travel_cost for link in links]) + lam
    activation = np.minimum(0.0, np.array([link.operating_cost for link in links])
                            - lam * np.array(linking))
    sinks = np.zeros((len(origins), len(index)))
    for o, balance in enumerate(balances):
        for node, net_outflow in balance.items():
            sinks[o, index[node]] = max(0.0, -net_outflow)
    demanded = sinks > 0
    sources = [index[origin] for origin in origins]
    order = np.lexsort((heads, tails))  # the CSR order of the arcs
    slot = np.empty(len(links), dtype=int)
    slot[order] = np.arange(len(links))
    graph = sp.csr_matrix(
        (weights[order], heads[order], np.searchsorted(tails[order], np.arange(len(index) + 1))),
        shape=(len(index), len(index)))

    def bound(removed=None):
        if removed is None:
            dist = dijkstra(graph, indices=sources)
            return float(np.dot(dist[demanded], sinks[demanded]) + activation.sum())
        graph.data[slot[removed]] = np.inf  # no path crosses an arc at infinite cost
        dist = dijkstra(graph, indices=sources)
        graph.data[slot[removed]] = weights[removed]
        return float(np.dot(dist[demanded], sinks[demanded])
                     + activation.sum() - activation[removed])

    return bound


def _root_fixings(network: Network, demand: DemandTable, lp: LinearProgram):
    """``solve_milp``'s root hook for ``lp``, the origin-aggregated model:
    which activations the Lagrangian bound proves open in every optimum.

    At the root, rounding every activation above zero up to 1 and keeping the
    root flows is a solution of cost U.  A link fractional at the root is
    fixed open when closing it costs more, ``bound(j) > U + 1e-6 max(1, |U|)``
    with ``lam = max(0, -dual)`` of the root's joint rows.
    """
    num_links = len(network.links)
    y_offset, joint_offset = lp.num_vars - num_links, len(lp.rows) - num_links
    origins, balances = _origin_balances(demand)
    linking = _linking(network, demand)
    flow_cost = np.array(lp.objective[:y_offset])
    operating_cost = np.array(lp.objective[y_offset:])

    def fixings(x, duals):
        y = x[y_offset:]
        upper = float(np.dot(flow_cost, x[:y_offset]) + operating_cost[y > 0].sum())
        cutoff = upper + 1e-6 * max(1.0, abs(upper))
        bound = _lagrangian_bound(network, origins, balances, linking,
                                  np.maximum(0.0, -duals[joint_offset:]))
        return {y_offset + j: 1 for j in range(num_links)
                if abs(y[j] - round(y[j])) > 1e-9 and bound(j) > cutoff}

    return fixings


def flow_lp(network: Network, demand: DemandTable, activations):
    """Origin-aggregated flow LP over the operated links, activations fixed.

    Returns the LP, the operated links, the origins in block order and each
    operated link's capacity row.
    """
    links = [l for l in network.links if activations.get(l.arc, 0) >= 0.5]
    origins, balances = _origin_balances(demand)
    lp, capacity_rows = _flow_model(network, links, balances)
    return lp, links, origins, capacity_rows


def _routable(network: Network, demand: DemandTable) -> bool:
    """Whether the flow LP with every link operated is feasible."""
    activations = {l.arc: 1 for l in network.links}
    return solve_lp(flow_lp(network, demand, activations)[0]).status == "optimal"


def _diagnose_infeasible(network: Network, demand: DemandTable):
    from .stability import _dijkstra, _omega_arcs

    succ = _omega_arcs(network, {}, {})  # only reachability is read
    reach = {o: _dijkstra(succ, o)[0] for o in {e.origin for e in demand.entries}}
    no_path = [e.od for e in demand.entries if e.destination not in reach[e.origin]]
    if no_path:
        raise InfeasibleMatchingError(
            f"no path exists for OD pairs {no_path}", offending_ods=no_path)
    starved = [e.od for e in demand.entries
               if not _routable(network, DemandTable(entries=(e,)))]
    offending = starved or demand.ods
    detail = ("capacity cannot carry demand for" if starved
              else "demand is jointly unroutable across")
    raise InfeasibleMatchingError(
        f"{detail} OD pairs {offending}", offending_ods=offending)


def _solve_flow_lp(network: Network, demand: DemandTable, activations):
    """Solve the flow LP with ``activations`` fixed.

    Returns its optimal result, the operated links, the origins in block
    order and the capacity duals: per link mu >= 0 in $ per passenger, zero
    on links that are not operated.
    """
    lp, links, origins, capacity_rows = flow_lp(network, demand, activations)
    result = solve_lp(lp)
    if result.status != "optimal":
        raise SolveNumericalError(
            f"flow LP ended with {result.status} for fixed activations")
    mu = {link.arc: 0.0 for link in network.links}
    for link, row in zip(links, capacity_rows):
        # min problem, <= row: d(obj)/d(rhs) <= 0, so mu = -dual
        mu[link.arc] = max(0.0, -float(result.duals[row]))
    return result, links, origins, mu


def solve_matching(network: Network, demand: DemandTable) -> MatchingSolution:
    """Solve the matching to proven optimality; activations, per-OD flows,
    path flows and capacity duals."""
    demand.validate_against(network)
    if not demand.entries:
        return MatchingSolution(flows={}, activations={l.arc: 0 for l in network.links},
                                objective=0.0, path_flows=[],
                                duals={l.arc: 0.0 for l in network.links})
    mip = _build_origin_aggregated(network, demand)
    result = solve_milp(mip, root_fixings=_root_fixings(network, demand, mip.lp))
    if result.status == "infeasible":
        _diagnose_infeasible(network, demand)
    if result.status != "optimal":
        raise SolveNumericalError(f"matching solve ended with {result.status}")
    y_offset = mip.lp.num_vars - len(network.links)
    activations = {link.arc: int(round(result.x[y_offset + a_idx]))
                   for a_idx, link in enumerate(network.links)}
    objective = result.objective

    sub, links, origins, duals = _solve_flow_lp(network, demand, activations)
    fixed_cost = sum(l.operating_cost for l in network.links
                     if activations[l.arc])
    recomputed = sub.objective + fixed_cost
    if abs(recomputed - objective) > OPTIMALITY_TOL * max(1.0, abs(objective)):
        raise SolveNumericalError(
            f"aggregated optimum {objective} and recovered flows {recomputed} disagree")
    flows = {entry.od: {} for entry in demand.entries}
    paths = {entry.od: {} for entry in demand.entries}  # od -> {nodes: amount}
    num_links = len(links)
    unmet_by_origin = {origin: {} for origin in origins}
    for entry in demand.entries:
        unmet_by_origin[entry.origin][entry.destination] = entry.demand
    for o_idx, origin in enumerate(origins):
        block = sub.x[o_idx * num_links:(o_idx + 1) * num_links]
        residual = {link.arc: float(v) for link, v in zip(links, block) if v > FLOW_EPS}
        unmet = unmet_by_origin[origin]
        for nodes, amount in _walk_paths(origin, unmet, residual):
            od = (origin, nodes[-1])
            per_od = flows[od]
            for arc in _arcs(nodes):
                per_od[arc] = per_od.get(arc, 0.0) + amount
            paths[od][nodes] = paths[od].get(nodes, 0.0) + amount
    path_flows = [(Path(group=od, nodes=nodes), amount)
                  for od, merged in paths.items()
                  for nodes, amount in merged.items() if amount > FLOW_EPS]
    return MatchingSolution(flows=flows, activations=activations,
                            objective=float(recomputed), path_flows=path_flows,
                            duals=duals)


def extract_duals(
    network: Network,
    demand: DemandTable,
    activations: dict,
) -> dict:
    """Capacity duals of the flow LP with ``activations`` held fixed.

    mu_ij >= 0 in $ per passenger; zero on links that are not operated.  For
    the activations ``solve_matching`` chose they equal its ``duals``.
    """
    return _solve_flow_lp(network, demand, activations)[3]


def decompose_flows(
    network: Network,
    demand: DemandTable,
    solution: MatchingSolution,
    duals: dict | None = None,
) -> PathFlowSolution:
    """Canonical path decomposition of the per-OD link flows, with the duals
    (``solution.duals`` unless ``duals`` is given).

    The paths are those ``solve_matching`` walked from each origin, merged
    per OD in demand order, so ``network`` and ``demand`` are not read.
    Deterministic, so reported path flows are reproducible despite their
    non-uniqueness.
    """
    return PathFlowSolution(path_flows=list(solution.path_flows),
                            duals=dict(solution.duals if duals is None else duals))


def _walk_paths(source, unmet, residual):
    """Split the flow leaving ``source`` into paths, lexicographically.

    ``unmet`` maps each sink to the demand it still needs and ``residual``
    maps arcs to flow; both are consumed.  Each walk leaves ``source`` along the
    smallest next node with positive residual and stops at the first node
    with unmet demand, where it delivers the bottleneck amount; a walk that
    closes a cycle cancels the cycle and starts again.  Flow left over once
    every sink is served is ignored.  Yields ``(nodes, amount)``.
    """
    heads = {}  # tail -> heads in ascending order; spent arcs leave residual only
    for tail, head in sorted(residual):
        heads.setdefault(tail, []).append(head)
    while any(d > FLOW_EPS for d in unmet.values()):
        walk = [source]
        position = {source: 0}
        node = source
        cycle = None
        while unmet.get(node, 0.0) <= FLOW_EPS:
            nxt = next((h for h in heads.get(node, ()) if (node, h) in residual), None)
            if nxt is None:
                raise SolveNumericalError(
                    f"flow from origin {source} dead-ends at node {node}")
            if nxt in position:
                cycle = walk[position[nxt]:] + [nxt]
                break
            walk.append(nxt)
            position[nxt] = len(walk) - 1
            node = nxt
        if cycle is not None:
            _subtract(residual, cycle, min(residual[a] for a in _arcs(cycle)))
            continue
        amount = min(unmet[node], min(residual[a] for a in _arcs(walk)))
        _subtract(residual, walk, amount)
        unmet[node] -= amount
        yield tuple(walk), amount


def _arcs(nodes):
    return list(zip(nodes[:-1], nodes[1:]))


def _subtract(residual, nodes, amount):
    for arc in _arcs(nodes):
        residual[arc] -= amount
        if residual[arc] <= FLOW_EPS:
            del residual[arc]


def dump_link_flows(network: Network, solution: MatchingSolution, target) -> None:
    """Aggregate flow per link, one row per link in arc order."""
    write_csv(target, ["tail", "head", "flow"],
              [[l.tail, l.head, f"{solution.total_flow(l.arc):.6f}"]
               for l in network.links])


def dump_commodity_flows(solution: MatchingSolution, target) -> None:
    rows = []
    for od in sorted(solution.flows):
        for arc in sorted(solution.flows[od]):
            rows.append([od[0], od[1], arc[0], arc[1],
                         f"{solution.flows[od][arc]:.6f}"])
    write_csv(target, ["origin", "destination", "tail", "head", "flow"], rows)


def dump_link_status(network: Network, solution: MatchingSolution, target) -> None:
    rows = [[l.tail, l.head, solution.activations.get(l.arc, 0),
             f"{solution.duals.get(l.arc, 0.0):.6f}"]
            for l in network.links]
    write_csv(target, ["tail", "head", "operated", "capacity_dual"], rows)
