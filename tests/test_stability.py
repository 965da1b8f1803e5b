import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import maas_market
from maas_market import (DemandEntry, DemandTable, Link, Network,
                         ObjectivePolicy, PathFlowSolution, Scenario,
                         apply_scenario, build_outcome_lp,
                         decompose_flows, extract_duals, fig5,
                         generate_constraints_algorithm1, omega,
                         optimal_path_sets, solve_matching, solve_outcome,
                         subcoalitions)
from maas_market import stability
from maas_market.errors import (InfeasibleMatchingError, PathCapExceeded,
                                StabilityToleranceError, SubcoalitionCapExceeded)
from maas_market.network import DUMMY_OPERATOR
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL
from maas_market.randnet import random_instance
from maas_market.scenario import (MergeOperators, ScaleTravel, SetFixedFare,
                                  Subsidy, Surcharge)
from maas_market.stability import (TIE_TOL, _build_covers, _dijkstra,
                                   _omega_arcs, _omega_weight, _predecessors,
                                   _tree_path,
                                   generate_constraints_enumeration,
                                   simple_paths)
from conftest import float_capacity_shortfall, grid, pipeline_artifacts


def test_omega_fig5_paths(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, duals = fig5_pipeline[0], fig5_pipeline[1]
    assert omega((1, 5, 4), network, duals, matching.activations) == \
        pytest.approx(410, abs=1e-6)      # 7 + 3 + 200 + 200
    assert omega((1, 6, 4), network, duals, matching.activations) == \
        pytest.approx(412, abs=1e-6)
    assert omega((1, 21, 23, 4), network, duals, matching.activations) == \
        pytest.approx(10, abs=1e-6)       # 2 + 4 (dual) + 0 + 4
    assert omega((1, 4), network, duals, matching.activations) == \
        pytest.approx(10, abs=1e-6)


def test_omega_operated_zero_dual_is_travel_cost():
    links = (Link(1, 2, travel_cost=3, operating_cost=7, capacity=10, owner=1),)
    network = Network(nodes=frozenset({1, 2}), links=links)
    assert omega((1, 2), network, {}, {(1, 2): 1}) == 3
    assert omega((1, 2), network, {}, {(1, 2): 0}) == 10


def test_fig5_optimal_path_sets(fig5_instance, fig5_pipeline):
    system = fig5_pipeline[3]
    pset13 = system.groups[(1, 3)]
    assert [i.nodes for i in pset13.paths] == [(1, 3)]
    assert pset13.operators == frozenset({1})
    pset14 = system.groups[(1, 4)]
    assert sorted(i.nodes for i in pset14.paths) == [(1, 4), (1, 21, 23, 4)]
    # platform transfer links never contribute an operator
    assert pset14.operators == frozenset({1, 3, 4})


def test_single_link_od_optimal_set():
    links = (Link(1, 2, travel_cost=3, operating_cost=1, capacity=10, owner=1),)
    network = Network(nodes=frozenset({1, 2}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 10),))
    _, _, _, system = pipeline_artifacts(network, demand)
    assert [i.nodes for i in system.groups[(1, 2)].paths] == [(1, 2)]


def test_subcoalition_ordering():
    out = subcoalitions({3, 1, 4})
    assert out == [(1,), (3,), (4,), (1, 3), (1, 4), (3, 4), (1, 3, 4)]
    assert subcoalitions({2}) == [(2,)]
    assert subcoalitions(set()) == []


def test_subcoalition_cap():
    with pytest.raises(SubcoalitionCapExceeded):
        subcoalitions(set(range(1, 14)))
    with pytest.raises(ValueError):
        subcoalitions({0, 1})


def _excluded_path(succ, od, pi):
    return _tree_path(_dijkstra(succ, od[0], frozenset(pi))[1], od[1])


def test_excluded_shortest_path_fig5(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, duals = fig5_pipeline[0], fig5_pipeline[1]
    succ = _omega_arcs(network, duals, matching.activations)
    # excluding operator A disconnects (1,3): the detour entry is A's too
    assert _excluded_path(succ, (1, 3), (1,)) is None
    alt = _excluded_path(succ, (1, 4), (1, 3, 4))
    assert alt == (1, 5, 4)
    all_ops = tuple(sorted(f for f in network.operators))
    assert _excluded_path(succ, (1, 4), all_ops) is None


def omega_graph(network, duals, activations):
    """Reference: the omega-weighted network as a networkx graph."""
    graph = nx.DiGraph()
    graph.add_nodes_from(network.nodes)
    for link in network.links:
        graph.add_edge(link.tail, link.head,
                       weight=_omega_weight(link, duals, activations),
                       owner=link.owner)
    return graph


def networkx_excluded_path(graph, od, pi):
    """Reference: ``nx.dijkstra_path`` on the view without pi's links."""
    banned = set(pi)
    view = nx.subgraph_view(
        graph, filter_edge=lambda u, v: graph[u][v]["owner"] not in banned)
    try:
        return tuple(nx.dijkstra_path(view, od[0], od[1], weight="weight"))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def yen_optimal_paths(graph, od, network, duals, activations):
    """Reference: walk Yen's k-shortest simple paths until the first one
    above the first path's omega plus ``TIE_TOL``; (nodes, omega) sorted."""
    found = []
    for nodes in nx.shortest_simple_paths(graph, *od, weight="weight"):
        value = omega(nodes, network, duals, activations)
        if found and value > found[0][1] + TIE_TOL:
            break
        found.append((tuple(nodes), value))
    return sorted(found)


def test_tree_paths_equal_networkx_dijkstra(reference_instances):
    checked = 0
    for network, demand, matching, decomposition, _ in reference_instances:
        duals, activations = decomposition.duals, matching.activations
        succ = _omega_arcs(network, duals, activations)
        graph = omega_graph(network, duals, activations)
        owners = network.operators - {0}
        for entry in demand.entries:
            for pi in [()] + subcoalitions(owners):
                dist, parent = _dijkstra(succ, entry.origin, frozenset(pi))
                path = _tree_path(parent, entry.destination)
                assert path == networkx_excluded_path(graph, entry.od, pi), \
                    (entry.od, pi)
                # generation reads each alternative's omega off its tree
                if path is not None:
                    assert dist[entry.destination] == \
                        omega(path, network, duals, activations), (entry.od, pi)
                checked += 1
    assert checked > 2000


def test_optimal_path_sets_equal_yen_walk(reference_instances):
    ties = 0
    for network, demand, matching, decomposition, _ in reference_instances:
        duals, activations = decomposition.duals, matching.activations
        graph = omega_graph(network, duals, activations)
        sets = optimal_path_sets(network, demand, duals, activations,
                                 decomposition)
        for entry in demand.entries:
            got = [(i.nodes, i.omega_cost) for i in sets[entry.od].paths]
            assert got == yen_optimal_paths(graph, entry.od, network, duals,
                                            activations), entry.od
            ties += len(got) > 1
    assert ties > 0


def test_simple_paths_equal_networkx_simple_paths(reference_instances):
    """The oracle's alternatives are networkx's simple paths in networkx's
    order, each with its ``omega``; the first 20 per group."""
    checked = 0
    for network, demand, matching, decomposition, _ in reference_instances:
        duals, activations = decomposition.duals, matching.activations
        succ = _omega_arcs(network, duals, activations)
        pred = _predecessors(succ)
        graph = omega_graph(network, duals, activations)
        for od in demand.ods:
            got = list(itertools.islice(
                simple_paths(succ, pred, od, math.inf), 20))
            want = itertools.islice(nx.all_simple_paths(graph, *od), 20)
            assert [nodes for _, nodes in got] == [tuple(p) for p in want], od
            for value, nodes in got:
                assert value == omega(nodes, network, duals, activations), nodes
            checked += len(got)
    assert checked > 10_000


def _per_operator_covers(network, activations, path_sets, subsidies=None):
    """The cover builder as it was, one pass over the paths per operator."""
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


def test_build_covers_equals_per_operator_builder(reference_instances):
    repeats = 0
    for network, _, matching, _, system in reference_instances:
        activations = matching.activations
        subsidies = {link.arc: link.operating_cost / 2
                     for link in network.links[::3]}
        for given in (None, subsidies):
            got = _build_covers(network, activations, system.groups, given)
            want = _per_operator_covers(network, activations, system.groups, given)
            assert got == want and list(got) == list(want)
        # one term tuple per path, whichever covers list it
        terms = [term for cover, _ in got.values() for term in cover]
        distinct = {term[:2]: term for term in terms}
        assert all(term is distinct[term[:2]] for term in terms)
        repeats += len(terms) - len(distinct)
    assert repeats > 0


def test_path_sets_share_input_tuples(reference_instances):
    for _, demand, _, decomposition, system in reference_instances:
        for entry in demand.entries:
            assert system.groups[entry.od].group is entry.od
        carried = {(path.group, path.nodes): path.nodes
                   for path, _ in decomposition.path_flows}
        for od, pset in system.groups.items():
            for info in pset.paths:
                if info.flow > 0:
                    assert info.nodes is carried[(od, info.nodes)]


def _parallel_paths(count):
    """``count`` tied two-link paths 1-k-2 of cost 2, plus a direct link of
    cost 5."""
    links = [Link(1, 2, travel_cost=5, operating_cost=0, capacity=10, owner=1)]
    for k in range(3, 3 + count):
        links += [Link(1, k, travel_cost=1, operating_cost=0, capacity=10, owner=1),
                  Link(k, 2, travel_cost=1, operating_cost=0, capacity=10, owner=1)]
    network = Network(nodes=frozenset({1, 2, *range(3, 3 + count)}),
                      links=tuple(sorted(links, key=lambda l: l.arc)))
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 10),))
    activations = {link.arc: 1 for link in network.links}
    return network, demand, activations, PathFlowSolution(path_flows=[], duals={})


def test_tie_cap_counts_tied_paths_only(monkeypatch):
    monkeypatch.setattr(stability, "TIE_CAP", 4)
    network, demand, activations, decomposition = _parallel_paths(4)
    sets = optimal_path_sets(network, demand, {}, activations, decomposition)
    assert [i.nodes for i in sets[(1, 2)].paths] == \
        [(1, 3, 2), (1, 4, 2), (1, 5, 2), (1, 6, 2)]
    network, demand, activations, decomposition = _parallel_paths(5)
    with pytest.raises(PathCapExceeded, match="more than 4 tied"):
        optimal_path_sets(network, demand, {}, activations, decomposition)


def test_flow_path_above_the_minimum_raises_tolerance_error(fig5_instance, fig5_pipeline):
    # mu(1, 21) + 1 puts the flow-carrying (1, 21, 23, 4) at 11 against (1, 4)'s 10
    network, demand = fig5_instance
    matching, duals, decomposition, _ = fig5_pipeline
    raised = {**duals, (1, 21): duals[(1, 21)] + 1}
    message = r"\(1, 21, 23, 4\) for OD \(1, 4\) has deviation cost 11.0, above the minimum 10.0"
    with pytest.raises(StabilityToleranceError, match=message):
        optimal_path_sets(network, demand, raised, matching.activations, decomposition)


def test_unreachable_od_has_no_simple_paths(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, duals = fig5_pipeline[0], fig5_pipeline[1]
    succ = _omega_arcs(network, duals, matching.activations)
    assert list(simple_paths(succ, _predecessors(succ), (3, 1), 20)) == []


def test_unroutable_od_raises_infeasible_matching():
    links = (Link(1, 2, travel_cost=1, operating_cost=0, capacity=10, owner=1),
             Link(3, 1, travel_cost=1, operating_cost=0, capacity=10, owner=1))
    network = Network(nodes=frozenset({1, 2, 3}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 10),
                                  DemandEntry(1, 3, 5, 10)))
    with pytest.raises(InfeasibleMatchingError) as info:
        optimal_path_sets(network, demand, {}, {(1, 2): 1, (3, 1): 1},
                          PathFlowSolution(path_flows=[], duals={}))
    assert info.value.offending_ods == ((1, 3),)


def _closed_link_gap(figures):
    return pytest.mark.xfail(strict=True, reason=(
        "the flow LP's capacity duals ignore closed links, so a path through "
        "a closed link is a whole cost unit omega-cheaper than a path that "
        "carries flow: " + figures))


@pytest.mark.parametrize("seed", [
    pytest.param(17, marks=_closed_link_gap(
        "OD (3, 9) sends flow over (3, 7, 6, 5, 9) at omega 9.0, minimum 8.0")),
    pytest.param(761, marks=_closed_link_gap(
        "OD (3, 5) sends flow over (3, 7, 6, 5) at omega 9.0, minimum 8.0")),
    pytest.param(765, marks=_closed_link_gap(
        "OD (6, 12) sends flow over (6, 10, 11, 12) at omega 8.0, minimum 7.0")),
])
def test_flow_carrying_paths_are_omega_minimal_on_grids(seed):
    network, demand = grid(seed)
    matching = solve_matching(network, demand)
    succ = _omega_arcs(network, matching.duals, matching.activations)
    least = {entry.od: _dijkstra(succ, entry.origin)[0][entry.destination]
             for entry in demand.entries}
    for path, _ in matching.path_flows:
        value = omega(path.nodes, network, matching.duals, matching.activations)
        assert value <= least[path.group] + TIE_TOL, (path.group, path.nodes)


def test_algorithm1_runs_without_networkx(tmp_path):
    """Algorithm 1, the oracle, the instance generator, ``enumerate-paths``
    and the infeasibility diagnosis run where importing networkx fails."""
    files = {}
    for name, (network, demand) in (("fig5", fig5()),
                                    ("short", float_capacity_shortfall())):
        files[name] = [f"--network={tmp_path / name}-network.csv",
                       f"--demand={tmp_path / name}-demand.csv"]
        maas_market.dump_network(network, tmp_path / f"{name}-network.csv")
        maas_market.dump_demand(demand, tmp_path / f"{name}-demand.csv")
    script = "\n".join((
        "import sys",
        "sys.modules['networkx'] = None",  # any import of it fails
        "import maas_market as mm",
        "from maas_market.cli import main, run_pipeline",
        "from maas_market.randnet import random_instance",
        "network, demand = mm.fig5()",
        "result = run_pipeline(network, demand, mm.PolicyAnnotations())",
        "assert result['outcomes']['seller'].status == 'optimal'",
        "oracle = mm.generate_constraints_enumeration(",
        "    network, demand, result['matching'], result['decomposition'])",
        "assert len(oracle.stability_rows) > len(result['system'].stability_rows)",
        "random_instance(0)",
        f"assert main(['enumerate-paths', *{files['fig5']!r}]) == 0",
        f"assert main(['run', '--out={tmp_path / 'out'}', *{files['short']!r}]) == 2",
    ))
    src = str(Path(maas_market.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert '"error_class": "infeasible_demand"' in done.stderr


def test_fig5_lexicographic_system_exact(fig5_pipeline):
    system = fig5_pipeline[3]
    # three surplus equalities
    assert sum(len(p.paths) for p in system.groups.values()) == 3
    # three cost covers: operators A, C, D (B unused, E/F unoperated)
    assert sorted(system.covers) == [1, 3, 4]
    terms_a, rhs_a = system.covers[1]
    assert rhs_a == pytest.approx(400)
    assert sorted((nodes, round(z)) for _, nodes, z in terms_a) == \
        [((1, 3), 1000), ((1, 21, 23, 4), 200)]
    _, rhs_c = system.covers[3]
    _, rhs_d = system.covers[4]
    assert (rhs_c, rhs_d) == (pytest.approx(200), pytest.approx(200))
    # exactly one stability row: u_(1,4) >= 20 - 410, and never the -392 one
    assert len(system.stability_rows) == 1
    row = system.stability_rows[0]
    assert row.group == (1, 4) and row.terms == ()
    assert row.bound == pytest.approx(-390, abs=1e-6)


def test_fig5_enumeration_rows(fig5_instance, fig5_pipeline):
    network, demand = fig5_instance
    matching, _, decomposition, _ = fig5_pipeline
    system = generate_constraints_enumeration(network, demand, matching,
                                              decomposition)
    bounds = sorted(round(r.bound, 6) for r in system.stability_rows
                    if r.group == (1, 4) and r.terms == ())
    # both detour rows exist under enumeration, one per anchor
    assert bounds.count(-390.0) >= 1 and bounds.count(-392.0) >= 1
    others = [r for r in system.stability_rows if r.group == (1, 3)]
    assert all(r.bound <= -293 + 1e-6 for r in others)


def test_two_node_single_path_no_stability_rows():
    links = (Link(1, 2, travel_cost=3, operating_cost=1, capacity=10, owner=1),)
    network = Network(nodes=frozenset({1, 2}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 10),))
    matching, duals, decomposition, system = pipeline_artifacts(network, demand)
    assert system.stability_rows == []
    enum = generate_constraints_enumeration(network, demand, matching,
                                            decomposition)
    assert enum.stability_rows == []


def test_single_operator_network_rows_have_no_price_terms():
    links = (
        Link(1, 2, travel_cost=1, operating_cost=2, capacity=100, owner=1),
        Link(2, 3, travel_cost=1, operating_cost=2, capacity=100, owner=1),
        Link(1, 3, travel_cost=9, operating_cost=2, capacity=100, owner=1),
    )
    network = Network(nodes=frozenset({1, 2, 3}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 3, 5, 30),))
    _, _, _, system = pipeline_artifacts(network, demand)
    # the only alternative is owned by the same operator, so excluding it
    # leaves no deviation target: no rows at all
    assert system.stability_rows == []


def test_decomposition_defaults_to_the_matching_duals(fig5_instance,
                                                     fig5_pipeline):
    network, demand = fig5_instance
    matching = fig5_pipeline[0]
    duals = extract_duals(network, demand, matching.activations)
    implicit = generate_constraints_algorithm1(
        network, demand, matching, decompose_flows(network, demand, matching))
    explicit = generate_constraints_algorithm1(
        network, demand, matching,
        decompose_flows(network, demand, matching, duals))
    assert implicit.render_text() == explicit.render_text()


def test_no_dummy_price_variables(fig5_pipeline):
    system = fig5_pipeline[3]
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=BUYER_OPTIMAL))
    assert all(f != 0 for _, _, f in model.p_index)
    for row in system.stability_rows:
        assert all(f != 0 for _, f in row.terms)


def test_subsidy_relaxes_covers(fig5_instance):
    network, demand = fig5_instance
    _, _, _, base = pipeline_artifacts(network, demand)
    _, _, _, subsidized = pipeline_artifacts(
        network, demand, subsidies={(1, 21): 150.0})
    assert subsidized.covers[1][1] == pytest.approx(base.covers[1][1] - 150.0)
    for f in base.covers:
        assert subsidized.covers[f][1] <= base.covers[f][1] + 1e-9


def test_render_text(fig5_pipeline):
    text = fig5_pipeline[3].render_text()
    assert "u[(1, 4)] >= -390.000000" in text
    assert "p[[1, 21, 23, 4]][3]" in text


def test_owner_edits_reuse_the_matchings_searches(fig5_instance,
                                                  fig5_pipeline, monkeypatch):
    network, demand = fig5_instance
    matching, decomposition = fig5_pipeline[0], fig5_pipeline[2]
    searches = []

    def counted(*args, **kwargs):
        searches.append(args[1])
        return _dijkstra(*args, **kwargs)

    monkeypatch.setattr(stability, "_dijkstra", counted)
    matching = dataclasses.replace(matching)  # a fresh memo

    def generate(edit, on=matching):
        edited, _, annotations = apply_scenario(network, demand,
                                                Scenario(edits=(edit,)))
        searches.clear()
        return generate_constraints_algorithm1(
            edited, demand, on, decomposition, subsidies=annotations.subsidies)

    base = generate_constraints_algorithm1(network, demand, matching,
                                           decomposition)
    merge = MergeOperators((1, 3), 1)
    first = generate(merge)
    assert searches
    assert generate(merge) is first and not searches
    # a fixed fare keeps every input of the system: the base comes back
    assert generate(SetFixedFare(3, True)) is base and not searches
    # a subsidy keeps the owners, so only the covers are built again
    subsidized = generate(Subsidy((1, 21), 150.0))
    assert not searches
    assert subsidized.groups is base.groups
    assert subsidized.stability_rows is base.stability_rows
    assert subsidized.covers[1][1] == base.covers[1][1] - 150.0
    # operators 5 and 6 run no link, so both edits move their links' omega,
    # and 1-5-4 is the cheapest path avoiding operators 1, 3 and 4
    for edit in (ScaleTravel(6, 1.5), Surcharge(5, 10.0)):
        reused = generate(edit)
        assert searches
        assert reused == generate(edit, on=dataclasses.replace(matching))


def _vertex(system, mode):
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=mode))
    return solve_outcome(model, tie_break=False).objective


@pytest.mark.xfail(strict=True, reason=(
    "Algorithm 1 skips a subcoalition whose cheapest avoiding path is itself "
    "omega-optimal, so on group (2, 4) it never writes the oracle's row from "
    "the non-optimal path 2-3-5-4: seller vertex 795.9076 against 201.2656"))
def test_instance_6440_algorithm1_matches_oracle():
    network, demand = random_instance(6440)
    matching, _, decomposition, system = pipeline_artifacts(network, demand)
    oracle = generate_constraints_enumeration(network, demand, matching,
                                              decomposition)
    assert _vertex(system, BUYER_OPTIMAL) == pytest.approx(
        _vertex(oracle, BUYER_OPTIMAL), rel=1e-6)
    assert _vertex(system, SELLER_OPTIMAL) == pytest.approx(
        _vertex(oracle, SELLER_OPTIMAL), rel=1e-6)
