import json

import pytest

from maas_market import (DemandEntry, DemandTable, InfeasibleMatchingError,
                         Link, Network, Path, decompose_flows,
                         dump_demand, dump_network, extract_duals, fig5,
                         solve_matching, solve_milp)
from maas_market.cli import main
from maas_market.matching import FLOW_EPS, _walk_paths
from maas_market.randnet import random_instance
from conftest import build_mcnd, float_capacity_shortfall

def _line_network():
    links = (Link(1, 2, travel_cost=2, operating_cost=5, capacity=10, owner=1),)
    return Network(nodes=frozenset({1, 2}), links=links)


def test_build_mcnd_dimensions():
    network = _line_network()
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 10),))
    mip = build_mcnd(network, demand)
    assert mip.lp.num_vars == 2           # 1 flow + 1 binary
    assert len(mip.binary_vars) == 1
    senses = [row.sense for row in mip.lp.rows]
    assert senses.count("=") == 2         # conservation at both nodes
    assert senses.count("<=") == 1        # one capacity row


def test_literal_model_solves_fig5(fig5_instance, fig5_pipeline):
    network, demand = fig5_instance
    matching = fig5_pipeline[0]
    result = solve_milp(build_mcnd(network, demand))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(matching.objective, rel=1e-9)


def test_fig5_matching_flows(fig5_instance, fig5_pipeline):
    network, demand = fig5_instance
    matching = fig5_pipeline[0]
    assert matching.total_flow((1, 3)) == pytest.approx(1000, abs=1e-6)
    assert matching.total_flow((1, 21)) == pytest.approx(200, abs=1e-6)
    assert matching.total_flow((1, 4)) == pytest.approx(300, abs=1e-6)
    # operator B's link stays unused and unoperated
    assert matching.total_flow((22, 3)) == 0
    assert matching.activations[(22, 3)] == 0
    assert matching.objective == pytest.approx(12000, abs=1e-6)


def test_fig5_capacity_dual(fig5_pipeline):
    duals = fig5_pipeline[1]
    assert duals[(1, 21)] == pytest.approx(4.0, abs=1e-6)
    assert all(v <= 1e-6 for arc, v in duals.items() if arc != (1, 21))


def test_uncapacitated_duals_zero():
    links = (
        Link(1, 2, travel_cost=1, operating_cost=2, capacity=1e9, owner=1),
        Link(2, 3, travel_cost=1, operating_cost=2, capacity=1e9, owner=1),
    )
    network = Network(nodes=frozenset({1, 2, 3}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 3, 50, 100),))
    matching = solve_matching(network, demand)
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in matching.duals.values())


def test_parallel_route_dual_is_cost_gap():
    # binding cheap route: its dual equals the detour's extra travel cost
    links = (
        Link(1, 2, travel_cost=1, operating_cost=0, capacity=10, owner=1),
        Link(1, 3, travel_cost=4, operating_cost=0, capacity=100, owner=1),
        Link(3, 2, travel_cost=2, operating_cost=0, capacity=100, owner=1),
    )
    network = Network(nodes=frozenset({1, 2, 3}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 2, 30, 100),))
    matching = solve_matching(network, demand)
    assert matching.duals[(1, 2)] == pytest.approx(5.0, abs=1e-6)  # (4+2) - 1


def test_zero_demand():
    network, demand = _line_network(), DemandTable(entries=())
    matching = solve_matching(network, demand)
    assert matching.objective == 0.0
    assert all(y == 0 for y in matching.activations.values())
    assert matching.duals == extract_duals(network, demand, matching.activations) \
        == {(1, 2): 0.0}


def test_matching_duals_equal_a_separate_dual_solve(reference_instances):
    # solve_matching reads mu off the flow LP it solves for the flows
    for network, demand, matching, _, _ in reference_instances:
        assert set(matching.duals) == set(network.by_arc)
        assert matching.duals == extract_duals(network, demand,
                                               matching.activations)


def test_missing_path_reported():
    demand = DemandTable(entries=(DemandEntry(2, 1, 5, 10),))
    with pytest.raises(InfeasibleMatchingError) as info:
        solve_matching(_line_network(), demand)
    assert info.value.offending_ods == ((2, 1),)
    assert info.value.exit_code == 2


def test_capacity_shortfall_reported():
    demand = DemandTable(entries=(DemandEntry(1, 2, 50, 10),))
    with pytest.raises(InfeasibleMatchingError) as info:
        solve_matching(_line_network(), demand)
    assert info.value.offending_ods == ((1, 2),)


def test_float_capacity_shortfall_reported(tmp_path, capsys):
    network, demand = float_capacity_shortfall()
    with pytest.raises(InfeasibleMatchingError) as info:
        solve_matching(network, demand)
    assert info.value.offending_ods == ((1, 2),)
    dump_network(network, tmp_path / "network.csv")
    dump_demand(demand, tmp_path / "demand.csv")
    code = main(["run", "--network", str(tmp_path / "network.csv"),
                 "--demand", str(tmp_path / "demand.csv"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error_class"] == "infeasible_demand"


def test_fig5_decomposition(fig5_pipeline):
    decomposition = fig5_pipeline[2]
    flows = {(p.group, p.nodes): z for p, z in decomposition.path_flows}
    assert flows[((1, 3), (1, 3))] == pytest.approx(1000, abs=1e-6)
    assert flows[((1, 4), (1, 21, 23, 4))] == pytest.approx(200, abs=1e-6)
    assert flows[((1, 4), (1, 4))] == pytest.approx(300, abs=1e-6)


def test_diamond_decomposition_reconstructs_links():
    links = (
        Link(1, 2, travel_cost=1, operating_cost=0, capacity=6, owner=1),
        Link(1, 3, travel_cost=1, operating_cost=0, capacity=100, owner=1),
        Link(2, 4, travel_cost=1, operating_cost=0, capacity=100, owner=1),
        Link(3, 4, travel_cost=1, operating_cost=0, capacity=100, owner=1),
    )
    network = Network(nodes=frozenset({1, 2, 3, 4}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 4, 10, 50),))
    matching = solve_matching(network, demand)
    decomposition = decompose_flows(network, demand, matching)
    rebuilt = {}
    for path, z in decomposition.path_flows:
        for arc in path.arcs:
            rebuilt[arc] = rebuilt.get(arc, 0.0) + z
    for link in links:
        assert rebuilt.get(link.arc, 0.0) == pytest.approx(
            matching.total_flow(link.arc), abs=1e-6)
    total = sum(z for _, z in decomposition.path_flows)
    assert total == pytest.approx(10, abs=1e-6)


def _rewalk_per_od(demand, matching):
    """Reference decomposition: walk each OD's summed link flows again."""
    path_flows = []
    for entry in demand.entries:
        residual = {arc: v for arc, v in matching.flows[entry.od].items()
                    if v > FLOW_EPS}
        merged = {}
        for nodes, amount in _walk_paths(entry.origin,
                                         {entry.destination: entry.demand}, residual):
            merged[nodes] = merged.get(nodes, 0.0) + amount
        path_flows.extend((Path(group=entry.od, nodes=nodes), amount)
                          for nodes, amount in merged.items() if amount > FLOW_EPS)
    return path_flows


def test_origin_walk_matches_per_od_rewalk():
    instances = [("fig5", fig5())]
    instances += [(f"random-{seed}", random_instance(seed)) for seed in range(50)]
    for name, (network, demand) in instances:
        matching = solve_matching(network, demand)
        assert matching.path_flows == _rewalk_per_od(demand, matching), name


def test_walk_cancels_a_cycle_and_starts_again():
    # the walk 1-2-3 meets node 2 again, so it cancels the cycle 2-3-2
    residual = {(1, 2): 3.0, (2, 3): 2.0, (3, 2): 2.0, (2, 4): 3.0}
    assert list(_walk_paths(1, {4: 3.0}, residual)) == [((1, 2, 4), 3.0)]
    assert residual == {}


def test_single_path_commodity():
    network = _line_network()
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 10),))
    matching = solve_matching(network, demand)
    decomposition = decompose_flows(network, demand, matching)
    assert decomposition.path_flows == [
        (decomposition.path_flows[0][0], pytest.approx(5.0))]
    assert decomposition.path_flows[0][0].nodes == (1, 2)


def test_joint_cost_scaling_invariance(fig5_instance):
    network, demand = fig5_instance
    base = solve_matching(network, demand)
    scaled_links = [Link(l.tail, l.head, l.travel_cost * 3.0,
                         l.operating_cost * 3.0, l.capacity, l.owner)
                    for l in network.links]
    scaled_net = Network(nodes=network.nodes, links=tuple(scaled_links))
    scaled = solve_matching(scaled_net, demand)
    assert scaled.objective == pytest.approx(3.0 * base.objective, rel=1e-9)
    assert scaled.activations == base.activations
    for od in base.flows:
        for arc, v in base.flows[od].items():
            assert scaled.flows[od].get(arc, 0.0) == pytest.approx(v, abs=1e-5)


def test_conservation_and_capacity_residuals(fig5_instance, fig5_pipeline):
    network, demand = fig5_instance
    matching = fig5_pipeline[0]
    for entry in demand.entries:
        per_od = matching.flows.get(entry.od, {})
        for node in network.nodes:
            out_flow = sum(v for (t, _), v in per_od.items() if t == node)
            in_flow = sum(v for (_, h), v in per_od.items() if h == node)
            expected = (entry.demand if node == entry.origin else
                        -entry.demand if node == entry.destination else 0.0)
            assert out_flow - in_flow == pytest.approx(expected, abs=1e-6)
    for link in network.links:
        total = matching.total_flow(link.arc)
        assert total <= link.capacity * matching.activations[link.arc] + 1e-6


def test_operator_b_unused_but_fig5_objective_recomputes(fig5_instance,
                                                         fig5_pipeline):
    network, _ = fig5_instance
    matching = fig5_pipeline[0]
    travel = sum(matching.total_flow(l.arc) * l.travel_cost
                 for l in network.links)
    fixed = sum(l.operating_cost for l in network.links
                if matching.activations[l.arc])
    assert travel + fixed == pytest.approx(matching.objective, rel=1e-6)
