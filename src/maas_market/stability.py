"""Feasibility and stability constraint generation for stable outcomes.

The outcome variables are a per-group surplus u_s and a per-(path, operator)
price p_rf over the optimal paths of each group.  Feasibility ties them to the
matched surplus (one equality per optimal path) and to operator cost recovery
(one cover per operator).  Stability forbids any traveler group and operator
coalition from profitably deviating to an alternative path.

Both generators run one skeleton and differ only in their alternative paths.
An alternative omega-tied with the optimum is skipped; every other one writes
a row per anchor optimal path over the operators the two share.  Algorithm 1
takes, per nonempty subcoalition of the group's operators, the cheapest path
avoiding it, so it never enumerates the path space, and keeps the strongest
bound per variable set.  The enumeration oracle takes every simple path and
keeps every row.

Omega weights do not depend on the destination, so Algorithm 1 grows one
Dijkstra tree per (origin, subcoalition) and reads every destination of that
origin off it.  The optimal path sets come from the same Dijkstra, run once
per destination over the reversed arcs, and a depth-first walk that only
follows arcs which can still finish within the tie tolerance.  Each search
sums a path's link weights in order, as ``omega`` does, so a path's omega is
read off the search that found it.  With no tie bound, the same walk gives
every simple path, in networkx's ``all_simple_paths`` order, to the
enumeration oracle, the CLI path listing and the random instance generator;
networkx serves only the tests, as a reference.

Scenarios on one base equilibrium (mergers, acquisitions, fixed fares,
subsidies, objective modes) share the part of generation that does not read
owners, memoized on the ``MatchingSolution`` they are generated on.  The key
is the content of every other input: each link's (tail, head, travel cost,
omega weight) in link order, ``demand.entries`` and the decomposition's
``path_flows``, so a cost edit or changed duals miss it and recompute.  It
keeps the optimal path sets (nodes, travel cost, omega and flow per path),
whose operators each generation reads off its own owners, and, for Algorithm
1 only, the cheapest path avoiding a subcoalition and its omega, or None,
per (group, links the subcoalition owns); trees themselves are not kept.  An
owner or policy edit hits it exactly: omega reads no owner, a ``Network``
keeps its links in arc order, so the successor lists keep their order, and a
search that bans a subcoalition skips exactly the arcs its members own, so a
merged subcoalition's search is, step for step, that of any subcoalition
banning the same arcs.

The same entry keeps Algorithm 1's finished work.  Its path sets and
deduplicated stability rows are keyed by the owner tuple (each link's owner,
in link order), which with the owner-free key fixes them.  Its finished
``ConstraintSystem`` is keyed by the owner tuple, each link's operating cost
and the sorted subsidies: everything the covers read beyond the owner-free
key, operating costs included because omega leaves out those of operated
links.  A repeated owner assignment with the same cover inputs, such as a
fixed-fare or objective-mode scenario on the base, gets the very system
generated before, with the outcome frame its cache holds; a subsidy scenario
shares the rows and builds only its covers.  Systems are therefore shared
and must be treated as read-only.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace

from .errors import (InfeasibleMatchingError, PathCapExceeded,
                     StabilityToleranceError, SubcoalitionCapExceeded)
from .matching import MatchingSolution, Memo, Path, PathFlowSolution
from .network import DUMMY_OPERATOR, DemandTable, Network

TIE_TOL = 1e-6           # omega gap below which two paths are tied
TIE_CAP = 1000           # tied optimal paths per group before PathCapExceeded
SUBCOALITION_CAP = 2 ** 12
ENUMERATION_CAP = 20_000  # simple paths per group before enumeration stops


def omega(nodes, network: Network, duals: dict, activations: dict) -> float:
    """Deviation cost of a path: travel cost, plus the capacity dual on
    saturated links, plus the full operating cost of links not operated."""
    total = 0.0
    for arc in zip(nodes[:-1], nodes[1:]):
        total += _omega_weight(network.by_arc[arc], duals, activations)
    return total


@dataclass(frozen=True, slots=True)
class PathInfo:
    nodes: tuple[int, ...]
    travel_cost: float
    omega_cost: float
    flow: float            # z_r from the decomposition, 0 for unused optima
    operators: frozenset[int]  # non-dummy owners on the path


@dataclass(frozen=True, slots=True)
class OptimalPathSet:
    group: tuple[int, int]
    utility: float
    demand: float
    paths: tuple[PathInfo, ...]   # all omega-minimal paths, sorted by nodes
    operators: frozenset[int]     # union of non-dummy owners

    @property
    def omega_value(self) -> float:
        return self.paths[0].omega_cost


@dataclass(frozen=True, slots=True)
class StabilityRow:
    """u_s + sum of the listed price variables >= bound."""

    group: tuple[int, int]
    terms: tuple[tuple[tuple[int, ...], int], ...]  # ((path nodes), operator)
    bound: float

    def variables(self):
        return (self.group, frozenset(self.terms))


@dataclass
class ConstraintSystem(Memo):
    """Generation fills a system once, so what its memo derives from it
    stays valid.  A later generation on the same matching may return the
    same system, so it is read-only."""

    groups: dict                      # od -> OptimalPathSet
    covers: dict                      # operator -> (terms, rhs); terms: [(od, nodes, z_r)]
    stability_rows: list = field(default_factory=list)

    def render_text(self) -> str:
        lines = []
        for od in sorted(self.groups):
            pset = self.groups[od]
            for info in pset.paths:
                terms = " + ".join(f"p[{list(info.nodes)}][{f}]"
                                   for f in sorted(info.operators))
                rhs = pset.utility - info.travel_cost
                lhs = f"u[{od}]" + (f" + {terms}" if terms else "")
                lines.append(f"{lhs} = {rhs:.6f}")
        for f in sorted(self.covers):
            terms, rhs = self.covers[f]
            body = " + ".join(f"{z:.6f} p[{list(nodes)}][{f}]"
                              for _, nodes, z in terms) or "0"
            lines.append(f"{body} >= {rhs:.6f}")
        for row in self.stability_rows:
            body = " + ".join(f"p[{list(nodes)}][{f}]" for nodes, f in row.terms)
            lhs = f"u[{row.group}]" + (f" + {body}" if body else "")
            lines.append(f"{lhs} >= {row.bound:.6f}")
        return "\n".join(lines) + "\n"


def _operators(network: Network, nodes) -> frozenset[int]:
    """The non-dummy owners of the links on the path ``nodes``."""
    by_arc = network.by_arc
    return frozenset(by_arc[arc].owner for arc in zip(nodes[:-1], nodes[1:])) - {DUMMY_OPERATOR}


def _omega_weight(link, duals, activations) -> float:
    arc = link.arc
    operated = activations.get(arc, 0) >= 0.5
    return link.travel_cost + duals.get(arc, 0.0) \
        + (0.0 if operated else link.operating_cost)


def _omega_arcs(network: Network, duals, activations) -> dict:
    """Successor lists ``node -> [(head, weight, owner)]`` in link order."""
    succ = {node: [] for node in network.nodes}
    for link in network.links:
        succ[link.tail].append(
            (link.head, _omega_weight(link, duals, activations), link.owner))
    return succ


def _predecessors(succ) -> dict:
    """Predecessor lists ``node -> [(tail, weight, owner)]`` of ``succ``."""
    pred = {node: [] for node in succ}
    for tail, arcs in succ.items():
        for head, weight, owner in arcs:
            pred[head].append((tail, weight, owner))
    return pred


def _near_shortest_paths(succ, back, origin, destination, slack):
    """Every simple path whose omega is within ``slack`` of the shortest, as
    ``(omega, nodes)``, by a depth-first walk that follows an arc only when
    the distance ``back`` from its head can still finish within that bound.
    With infinite ``slack`` it is every simple path, in the order of
    networkx's ``all_simple_paths``: both follow the successor lists' order."""
    limit = back[origin] + slack
    path, on_path = [origin], {origin}
    stack = [(0.0, iter(succ[origin]))]
    while stack:
        cost, arcs = stack[-1]
        for head, weight, _ in arcs:
            if head in on_path or head not in back \
                    or cost + weight + back[head] > limit:
                continue
            if head == destination:
                yield cost + weight, (*path, head)
                continue
            path.append(head)
            on_path.add(head)
            stack.append((cost + weight, iter(succ[head])))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())


def _tied(found):
    """The (omega, nodes) pairs within ``TIE_TOL`` of the least omega."""
    best = min(value for value, _ in found)
    return [(value, nodes) for value, nodes in found if value <= best + TIE_TOL]


def optimal_path_sets(
    network: Network,
    demand: DemandTable,
    duals: dict,
    activations: dict,
    decomposition: PathFlowSolution,
) -> dict:
    """Omega-minimal path set per group: every simple path within
    ``TIE_TOL`` of the cheapest, at most ``TIE_CAP`` of them."""
    succ = _omega_arcs(network, duals, activations)
    pred = _predecessors(succ)
    support = {}  # od -> {nodes: (the decomposition's nodes, z)}
    for path, z in decomposition.path_flows:
        support.setdefault(path.group, {})[path.nodes] = (path.nodes, z)
    back_to, operator_sets, sets = {}, {}, {}
    for entry in demand.entries:
        od = entry.od  # one tuple per group, shared by everything built for it
        if entry.destination not in back_to:
            back_to[entry.destination] = _dijkstra(pred, entry.destination)[0]
        back = back_to[entry.destination]
        if entry.origin not in back:
            raise InfeasibleMatchingError(f"no path exists for OD {od}",
                                          offending_ods=(od,))
        found = []
        for pair in _near_shortest_paths(succ, back, *od, 2 * TIE_TOL):
            found.append(pair)
            if len(found) > TIE_CAP and len(_tied(found)) > TIE_CAP:
                raise PathCapExceeded(
                    f"more than {TIE_CAP} tied optimal paths for OD {od}")
        flows = support.get(od, {})
        infos = []
        for value, nodes in sorted(_tied(found), key=lambda pair: pair[1]):
            # a flow-carrying path keeps the decomposition's node tuple
            nodes, z = flows.get(nodes, (nodes, 0.0))
            operators = _operators(network, nodes)
            infos.append(PathInfo(
                nodes=nodes, travel_cost=Path(od, nodes).travel_cost(network),
                omega_cost=value, flow=z,
                operators=operator_sets.setdefault(operators, operators)))
        best = min(info.omega_cost for info in infos)
        for nodes in flows.keys() - {info.nodes for info in infos}:
            value = omega(nodes, network, duals, activations)
            if value > best + TIE_TOL:
                raise StabilityToleranceError(
                    f"flow-carrying path {nodes} for OD {od} has deviation "
                    f"cost {value}, above the minimum {best}")
        union = frozenset().union(*(info.operators for info in infos))
        sets[od] = OptimalPathSet(
            group=od, utility=entry.utility, demand=entry.demand,
            paths=tuple(infos),
            operators=operator_sets.setdefault(union, union))
    return sets


def subcoalitions(operators):
    """All nonempty operator subsets, smaller sets first, then lexicographic."""
    members = sorted(operators)
    if DUMMY_OPERATOR in members:
        raise ValueError("subcoalitions exclude the platform operator")
    if 2 ** len(members) > SUBCOALITION_CAP:
        raise SubcoalitionCapExceeded(
            f"{len(members)} operators exceed the {SUBCOALITION_CAP}-subset cap")
    out = []
    for size in range(1, len(members) + 1):
        out.extend(itertools.combinations(members, size))
    return out


def _dijkstra(succ, origin, banned=frozenset()):
    """Dijkstra from ``origin`` over adjacency lists ``node -> [(head,
    weight, owner)]``, skipping the arcs an operator in ``banned`` owns.
    Returns ``(dist, parent)``: every reached node's distance, and its
    predecessor (``origin``'s is None).

    The search is networkx's ``_dijkstra_multisource`` step for step: a heap
    of (distance, counter, node), a node is final when popped, and only a
    strictly shorter distance relaxes an arc.  So the tree path to each node
    is the one ``nx.dijkstra_path`` returns on the filtered graph, and its
    distance is the in-order sum of its weights, which is ``omega`` of it.
    """
    counter = itertools.count()
    parent, seen, done = {origin: None}, {origin: 0.0}, set()
    fringe = [(0.0, next(counter), origin)]
    while fringe:
        dist, _, v = heapq.heappop(fringe)
        if v in done:
            continue
        done.add(v)
        for u, weight, owner in succ[v]:
            if owner in banned or u in done:
                continue
            reach = dist + weight
            if u not in seen or reach < seen[u]:
                seen[u] = reach
                heapq.heappush(fringe, (reach, next(counter), u))
                parent[u] = v
    return seen, parent


def _tree_path(parent, target) -> tuple | None:
    """The path from the root of a ``_dijkstra`` parent map to ``target``."""
    if target not in parent:
        return None
    nodes = [target]
    while (v := parent[nodes[-1]]) is not None:
        nodes.append(v)
    return tuple(reversed(nodes))


def simple_paths(succ, pred, od, cap: int):
    """Every simple path of a group over successor lists ``succ`` with
    predecessor lists ``pred``, as ``(omega, nodes)``, raising
    ``PathCapExceeded`` past ``cap``."""
    back = _dijkstra(pred, od[1])[0]
    if od[0] not in back:
        return
    paths = _near_shortest_paths(succ, back, *od, float("inf"))
    for count, pair in enumerate(paths, start=1):
        if count > cap:
            raise PathCapExceeded(f"OD {od} exceeds the {cap} simple-path cap")
        yield pair


def _build_covers(network: Network, activations, path_sets, subsidies=None):
    subsidies = subsidies or {}
    terms = {f: [] for f in sorted(network.operators) if f != DUMMY_OPERATOR}
    for od in sorted(path_sets):
        for info in path_sets[od].paths:
            term = (od, info.nodes, info.flow)  # shared by its operators' covers
            for f in info.operators:
                terms[f].append(term)
    covers = {}
    for f, cover in terms.items():
        rhs = sum((link.operating_cost - subsidies.get(link.arc, 0.0))
                  for link in network.operator_links(f)
                  if activations.get(link.arc, 0) >= 0.5)
        if cover or rhs > 0:
            covers[f] = (cover, rhs)
    return covers


def _owner_free_entry(network, demand, matching, decomposition) -> dict:
    """The memo entry on ``matching`` that every generation with these
    inputs, whatever their owners, shares."""
    duals, activations = decomposition.duals, matching.activations
    links = tuple((link.tail, link.head, link.travel_cost,
                   _omega_weight(link, duals, activations))
                  for link in network.links)
    return matching.cached((links, demand.entries,
                            tuple(decomposition.path_flows)), dict)


def _generate(network, demand, matching, decomposition, memo, alternatives):
    """Path sets and raw stability rows.  ``memo`` is the owner-free memo
    entry these inputs share; ``alternatives(network, duals, activations,
    memo)`` returns the function ``(od, path_set) -> pairs`` that gives each
    group's alternative paths as ``(nodes, omega)``."""
    duals, activations = decomposition.duals, matching.activations
    if "path_sets" in memo:
        path_sets = _relabel(memo["path_sets"], network)
    else:
        path_sets = optimal_path_sets(network, demand, duals, activations,
                                      decomposition)
        memo["path_sets"] = dict(path_sets)
    alternatives_of = alternatives(network, duals, activations, memo)
    rows = []
    for od in sorted(path_sets):
        pset = path_sets[od]
        # one (nodes, operator) term per price variable, shared by its rows
        anchors = [(info.operators, {f: (info.nodes, f) for f in info.operators})
                   for info in pset.paths]
        # a path that avoids several subcoalitions would repeat its rows
        for alt, alt_omega in dict.fromkeys(alternatives_of(od, pset)):
            if alt_omega <= pset.omega_value + TIE_TOL:
                continue  # an omega-tied path belongs to the optimal set
            alt_ops = _operators(network, alt)
            bound = pset.utility - alt_omega
            for operators, term in anchors:
                terms = tuple(term[f] for f in sorted(operators & alt_ops))
                rows.append(StabilityRow(group=od, terms=terms, bound=bound))
    return path_sets, rows


def _relabel(path_sets, network):
    """``path_sets`` with each path's operators read off ``network``'s
    owners; a path or set whose operators stay is reused as it is."""
    operator_sets, out = {}, {}
    for od, pset in path_sets.items():
        infos = []
        for info in pset.paths:
            operators = _operators(network, info.nodes)
            operators = operator_sets.setdefault(operators, operators)
            infos.append(info if operators == info.operators
                         else replace(info, operators=operators))
        if all(new is old for new, old in zip(infos, pset.paths)):
            out[od] = pset
            continue
        union = frozenset().union(*(info.operators for info in infos))
        out[od] = replace(pset, paths=tuple(infos),
                          operators=operator_sets.setdefault(union, union))
    return out


def _row_order(row):
    return (row.group, row.terms, -row.bound)


def _dedup_rows(rows):
    # keep the strongest bound per distinct variable set, which sorts first
    best = {}
    for row in sorted(rows, key=_row_order):
        best.setdefault(row.variables(), row)
    return list(best.values())


def _excluded_paths(network, duals, activations, memo):
    """Per group and subcoalition, the cheapest path avoiding it and its
    omega.  ``memo`` keeps each answer, or None, under (group, the links the
    subcoalition owns, as a bit mask over link positions); a missing one is
    read off a tree per (origin, subcoalition), grown by this call on its
    first miss."""
    succ = _omega_arcs(network, duals, activations)
    owned = {}  # owner -> bit mask of its links; owners' masks are disjoint
    for position, link in enumerate(network.links):
        owned[link.owner] = owned.get(link.owner, 0) | 1 << position
    found = memo.setdefault("excluded", {})
    banned, trees = {}, {}

    def alternatives(od, pset):
        for pi in subcoalitions(pset.operators):
            if pi not in banned:
                banned[pi] = sum(owned[f] for f in pi)
            key = (od, banned[pi])
            if key in found:
                pair = found[key]
            else:
                if (od[0], pi) not in trees:
                    trees[od[0], pi] = _dijkstra(succ, od[0], frozenset(pi))
                dist, parent = trees[od[0], pi]
                alt = _tree_path(parent, od[1])
                pair = found[key] = None if alt is None else (alt, dist[od[1]])
            if pair is not None:
                yield pair

    return alternatives


def generate_constraints_algorithm1(
    network: Network,
    demand: DemandTable,
    matching: MatchingSolution,
    decomposition: PathFlowSolution,
    subsidies: dict | None = None,
) -> ConstraintSystem:
    """Algorithm 1: per group, one alternative per nonempty subcoalition of
    its operators, the cheapest path avoiding that subcoalition; rows over
    the same variables keep the strongest bound.

    A generation whose owners, operating costs and subsidies an earlier one
    on this matching had returns that system itself; one with only the
    owners in common shares its path sets and rows and builds its own
    covers."""
    memo = _owner_free_entry(network, demand, matching, decomposition)
    owners = tuple(link.owner for link in network.links)
    # omega leaves out an operated link's operating cost, which its cover reads
    key = (owners, tuple(link.operating_cost for link in network.links),
           tuple(sorted((subsidies or {}).items())))
    systems = memo.setdefault("systems", {})
    if key in systems:
        return systems[key]
    by_owners = memo.setdefault("rows", {})
    if owners not in by_owners:
        path_sets, rows = _generate(network, demand, matching, decomposition,
                                    memo, _excluded_paths)
        by_owners[owners] = path_sets, _dedup_rows(rows)
    path_sets, rows = by_owners[owners]
    covers = _build_covers(network, matching.activations, path_sets, subsidies)
    system = systems[key] = ConstraintSystem(groups=path_sets, covers=covers,
                                             stability_rows=rows)
    return system


def generate_constraints_enumeration(
    network: Network,
    demand: DemandTable,
    matching: MatchingSolution,
    decomposition: PathFlowSolution,
    subsidies: dict | None = None,
    path_cap: int = ENUMERATION_CAP,
) -> ConstraintSystem:
    """Oracle generator: every simple path of a group is an alternative, and
    every (alternative, anchor) pair keeps its row."""

    def every_simple_path(network, duals, activations, memo):
        succ = _omega_arcs(network, duals, activations)
        pred = _predecessors(succ)
        return lambda od, pset: (
            (nodes, value)
            for value, nodes in simple_paths(succ, pred, od, path_cap))

    memo = _owner_free_entry(network, demand, matching, decomposition)
    path_sets, rows = _generate(network, demand, matching, decomposition,
                                memo, every_simple_path)
    covers = _build_covers(network, matching.activations, path_sets, subsidies)
    return ConstraintSystem(groups=path_sets, covers=covers,
                            stability_rows=sorted(rows, key=_row_order))
