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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import networkx as nx

from .errors import (PathCapExceeded, StabilityToleranceError,
                     SubcoalitionCapExceeded)
from .matching import MatchingSolution, Path, PathFlowSolution
from .network import DUMMY_OPERATOR, DemandTable, Network

TIE_TOL = 1e-6           # omega gap below which two paths are tied
TIE_CAP = 1000           # tied optimal paths per group before PathCapExceeded
SUBCOALITION_CAP = 2 ** 12


def omega(nodes, network: Network, duals: dict, activations: dict) -> float:
    """Deviation cost of a path: travel cost, plus the capacity dual on
    saturated links, plus the full operating cost of links not operated."""
    total = 0.0
    for arc in zip(nodes[:-1], nodes[1:]):
        link = network.by_arc[arc]
        operated = activations.get(arc, 0) >= 0.5
        total += link.travel_cost + duals.get(arc, 0.0)
        if not operated:
            total += link.operating_cost
    return total


@dataclass(frozen=True)
class PathInfo:
    nodes: tuple[int, ...]
    travel_cost: float
    omega_cost: float
    flow: float            # z_r from the decomposition, 0 for unused optima
    operators: frozenset[int]  # non-dummy owners on the path


@dataclass(frozen=True)
class OptimalPathSet:
    group: tuple[int, int]
    utility: float
    demand: float
    paths: tuple[PathInfo, ...]   # all omega-minimal paths, sorted by nodes
    operators: frozenset[int]     # union of non-dummy owners

    @property
    def omega_value(self) -> float:
        return self.paths[0].omega_cost


@dataclass(frozen=True)
class StabilityRow:
    """u_s + sum of the listed price variables >= bound."""

    group: tuple[int, int]
    terms: tuple[tuple[tuple[int, ...], int], ...]  # ((path nodes), operator)
    bound: float

    def variables(self):
        return (self.group, frozenset(self.terms))


@dataclass
class ConstraintSystem:
    groups: dict                      # od -> OptimalPathSet
    covers: dict                      # operator -> (terms, rhs); terms: [(od, nodes, z_r)]
    stability_rows: list = field(default_factory=list)

    def price_variables(self):
        """All (od, path nodes, operator) triples carrying a price variable."""
        out = []
        for od in sorted(self.groups):
            for info in self.groups[od].paths:
                for f in sorted(info.operators):
                    out.append((od, info.nodes, f))
        return out

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


def _omega_graph(network: Network, duals, activations) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(network.nodes)
    for link in network.links:
        operated = activations.get(link.arc, 0) >= 0.5
        weight = link.travel_cost + duals.get(link.arc, 0.0) \
            + (0.0 if operated else link.operating_cost)
        graph.add_edge(link.tail, link.head, weight=weight, owner=link.owner)
    return graph


def optimal_path_sets(
    network: Network,
    demand: DemandTable,
    duals: dict,
    activations: dict,
    decomposition: PathFlowSolution,
) -> dict:
    """Omega-minimal path set per group, enumerating ties up to ``TIE_CAP``."""
    graph = _omega_graph(network, duals, activations)
    support = {}
    for path, z in decomposition.path_flows:
        support.setdefault(path.group, {})[path.nodes] = z
    sets = {}
    for entry in demand.entries:
        flows = support.get(entry.od, {})
        infos = []
        for count, nodes in enumerate(
                nx.shortest_simple_paths(graph, entry.origin, entry.destination,
                                         weight="weight")):
            if count >= TIE_CAP:
                raise PathCapExceeded(
                    f"more than {TIE_CAP} tied optimal paths for OD {entry.od}")
            value = omega(nodes, network, duals, activations)
            if infos and value > infos[0].omega_cost + TIE_TOL:
                break
            path = Path(entry.od, tuple(nodes))
            infos.append(PathInfo(nodes=path.nodes,
                                  travel_cost=path.travel_cost(network),
                                  omega_cost=value,
                                  flow=flows.get(path.nodes, 0.0),
                                  operators=path.operators(network)))
        best = infos[0].omega_cost
        for nodes in flows.keys() - {info.nodes for info in infos}:
            value = omega(nodes, network, duals, activations)
            if value > best + TIE_TOL:
                raise StabilityToleranceError(
                    f"flow-carrying path {nodes} for OD {entry.od} has deviation "
                    f"cost {value}, above the minimum {best}")
        infos.sort(key=lambda info: info.nodes)
        sets[entry.od] = OptimalPathSet(
            group=entry.od, utility=entry.utility, demand=entry.demand,
            paths=tuple(infos),
            operators=frozenset().union(*(i.operators for i in infos)))
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


def excluded_shortest_path(graph: nx.DiGraph, od, pi) -> tuple | None:
    """Cheapest deviation path using no link owned by the given operators."""
    banned = set(pi)

    def keep(u, v):
        return graph[u][v]["owner"] not in banned

    view = nx.subgraph_view(graph, filter_edge=keep)
    try:
        nodes = nx.dijkstra_path(view, od[0], od[1], weight="weight")
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
    return tuple(nodes)


def simple_paths(graph: nx.DiGraph, od, cap: int):
    """Every simple path of a group, raising ``PathCapExceeded`` past ``cap``."""
    for count, nodes in enumerate(nx.all_simple_paths(graph, *od), start=1):
        if count > cap:
            raise PathCapExceeded(f"OD {od} exceeds the {cap} simple-path cap")
        yield tuple(nodes)


def _build_covers(network: Network, activations, path_sets, subsidies=None):
    subsidies = subsidies or {}
    covers = {}
    for f in sorted(network.operators):
        if f == DUMMY_OPERATOR:
            continue
        rhs = sum((link.operating_cost - subsidies.get(link.arc, 0.0))
                  for link in network.operator_links(f)
                  if activations.get(link.arc, 0) >= 0.5)
        terms = [(od, info.nodes, info.flow)
                 for od in sorted(path_sets)
                 for info in path_sets[od].paths if f in info.operators]
        if terms or rhs > 0:
            covers[f] = (terms, rhs)
    return covers


def _generate(network, demand, matching, decomposition, subsidies,
              alternatives):
    """Path sets, covers and raw stability rows, with each group's
    alternative paths drawn from ``alternatives(graph, od, path_set)``."""
    duals, activations = decomposition.duals, matching.activations
    path_sets = optimal_path_sets(network, demand, duals, activations,
                                  decomposition)
    graph = _omega_graph(network, duals, activations)
    rows = []
    for od in sorted(path_sets):
        pset = path_sets[od]
        for alt in alternatives(graph, od, pset):
            alt_omega = omega(alt, network, duals, activations)
            if alt_omega <= pset.omega_value + TIE_TOL:
                continue  # an omega-tied path belongs to the optimal set
            alt_ops = Path(od, alt).operators(network)
            bound = pset.utility - alt_omega
            for info in pset.paths:
                shared = info.operators & alt_ops
                terms = tuple(sorted((info.nodes, f) for f in shared))
                rows.append(StabilityRow(group=od, terms=terms, bound=bound))
    covers = _build_covers(network, activations, path_sets, subsidies)
    return path_sets, covers, rows


def _row_order(row):
    return (row.group, row.terms, -row.bound)


def _dedup_rows(rows):
    # keep the strongest bound per distinct variable set, which sorts first
    best = {}
    for row in sorted(rows, key=_row_order):
        best.setdefault(row.variables(), row)
    return list(best.values())


def generate_constraints_algorithm1(
    network: Network,
    demand: DemandTable,
    matching: MatchingSolution,
    decomposition: PathFlowSolution,
    subsidies: dict | None = None,
) -> ConstraintSystem:
    """Algorithm 1: per group, one alternative per nonempty subcoalition of
    its operators, the cheapest path avoiding that subcoalition; rows over
    the same variables keep the strongest bound."""

    def excluded_paths(graph, od, pset):
        for pi in subcoalitions(pset.operators):
            alt = excluded_shortest_path(graph, od, pi)
            if alt is not None:
                yield alt

    path_sets, covers, rows = _generate(network, demand, matching,
                                        decomposition, subsidies,
                                        excluded_paths)
    return ConstraintSystem(groups=path_sets, covers=covers,
                            stability_rows=_dedup_rows(rows))


def generate_constraints_enumeration(
    network: Network,
    demand: DemandTable,
    matching: MatchingSolution,
    decomposition: PathFlowSolution,
    subsidies: dict | None = None,
    path_cap: int = 20_000,
) -> ConstraintSystem:
    """Oracle generator: every simple path of a group is an alternative, and
    every (alternative, anchor) pair keeps its row."""
    path_sets, covers, rows = _generate(
        network, demand, matching, decomposition, subsidies,
        lambda graph, od, pset: simple_paths(graph, od, path_cap))
    return ConstraintSystem(groups=path_sets, covers=covers,
                            stability_rows=sorted(rows, key=_row_order))
