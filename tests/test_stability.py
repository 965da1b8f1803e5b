import pytest

from maas_market import (DemandEntry, DemandTable, Link, Network,
                         ObjectivePolicy, build_outcome_lp, omega,
                         solve_outcome, subcoalitions)
from maas_market.errors import SubcoalitionCapExceeded
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL
from maas_market.randnet import random_instance
from maas_market.stability import (_omega_graph, excluded_shortest_path,
                                   generate_constraints_enumeration)
from conftest import pipeline_artifacts


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


def test_excluded_shortest_path_fig5(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, duals = fig5_pipeline[0], fig5_pipeline[1]
    graph = _omega_graph(network, duals, matching.activations)
    # excluding operator A disconnects (1,3): the detour entry is A's too
    assert excluded_shortest_path(graph, (1, 3), (1,)) is None
    alt = excluded_shortest_path(graph, (1, 4), (1, 3, 4))
    assert alt == (1, 5, 4)
    all_ops = tuple(sorted(f for f in network.operators))
    assert excluded_shortest_path(graph, (1, 4), all_ops) is None


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


def test_no_dummy_price_variables(fig5_pipeline):
    system = fig5_pipeline[3]
    assert all(f != 0 for _, _, f in system.price_variables())
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
