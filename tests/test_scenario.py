import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from maas_market import (Link, Scenario, apply_scenario, build_sioux_falls,
                         fig5, load_scenario)
from maas_market.errors import ScenarioError, ValidationError
from maas_market.scenario import (_EDITS, AddLinks, MergeOperators, RemoveLinks,
                                  ScaleCosts, ScaleTravel, SetCapacity,
                                  SetFixedFare, SetObjectivePolicy, Subsidy,
                                  Surcharge)


@pytest.fixture()
def instance():
    return fig5()


def test_set_capacity_only_touches_target(instance):
    network, demand = instance
    net2, dem2, _ = apply_scenario(
        network, demand, Scenario(edits=(SetCapacity((1, 21), 5000),)))
    assert net2.by_arc[(1, 21)].capacity == 5000
    for arc, link in net2.by_arc.items():
        if arc != (1, 21):
            assert link == network.by_arc[arc]
    assert dem2 == demand


def test_scale_costs_and_travel(instance):
    network, demand = instance
    scenario = Scenario(edits=(ScaleCosts(1, 0.5), ScaleTravel(1, 0.8)))
    net2, _, _ = apply_scenario(network, demand, scenario)
    assert net2.by_arc[(1, 3)].operating_cost == pytest.approx(100)
    assert net2.by_arc[(1, 3)].travel_cost == pytest.approx(5.6)
    assert net2.by_arc[(1, 4)].operating_cost == 200  # other operator untouched


def test_scale_travel_all(instance):
    network, demand = instance
    net2, _, _ = apply_scenario(network, demand,
                                Scenario(edits=(ScaleTravel(None, 2.0),)))
    assert all(net2.by_arc[a].travel_cost ==
               pytest.approx(2 * network.by_arc[a].travel_cost)
               for a in network.by_arc)


def test_surcharge(instance):
    network, demand = instance
    net2, _, _ = apply_scenario(network, demand,
                                Scenario(edits=(Surcharge(3, 25.0),)))
    assert net2.by_arc[(23, 4)].operating_cost == 225


def test_subsidy_recorded_and_bounded(instance):
    network, demand = instance
    _, _, ann = apply_scenario(network, demand,
                               Scenario(edits=(Subsidy((1, 21), 150.0),)))
    assert ann.subsidies == {(1, 21): 150.0}
    with pytest.raises(ScenarioError):
        apply_scenario(network, demand,
                       Scenario(edits=(Subsidy((1, 21), 1000.0),)))


def test_add_remove_links(instance):
    network, demand = instance
    new = Link(3, 4, travel_cost=1, operating_cost=1, capacity=10, owner=7)
    net2, _, _ = apply_scenario(
        network, demand,
        Scenario(edits=(AddLinks((new,)), RemoveLinks(((22, 3),)))))
    assert (3, 4) in net2.by_arc and (22, 3) not in net2.by_arc
    with pytest.raises(ScenarioError):
        apply_scenario(network, demand,
                       Scenario(edits=(RemoveLinks(((9, 9),)),)))


def test_remove_demand_node_rejected(instance):
    network, demand = instance
    arcs = tuple(a for a in network.by_arc if 4 in a)
    with pytest.raises(ScenarioError):
        apply_scenario(network, demand, Scenario(edits=(RemoveLinks(arcs),)))


def test_merge_operators(instance):
    network, demand = instance
    scenario = Scenario(edits=(SetFixedFare(3, True),
                               MergeOperators((1, 3), 1)))
    net2, _, ann = apply_scenario(network, demand, scenario)
    assert 3 not in net2.operators
    assert net2.by_arc[(23, 4)].owner == 1
    assert ann.fixed_fare_operators == {1}
    with pytest.raises(ScenarioError):
        apply_scenario(network, demand,
                       Scenario(edits=(MergeOperators((0, 1), 1),)))


def test_policy_edits(instance):
    network, demand = instance
    scenario = Scenario(edits=(SetObjectivePolicy(1, "revenue_max"),
                               SetObjectivePolicy(3, "welfare_max"),
                               SetFixedFare(4, True), SetFixedFare(4, False)))
    _, _, ann = apply_scenario(network, demand, scenario)
    assert ann.objective_modes == {1: "revenue_max", 3: "welfare_max"}
    assert ann.fixed_fare_operators == set()


@pytest.mark.parametrize("edit", [SetObjectivePolicy(0, "welfare_max"),
                                  SetObjectivePolicy(0, "revenue_max"),
                                  SetFixedFare(0, True), MergeOperators((0,), 1),
                                  MergeOperators((1,), 0)])
def test_platform_operator_takes_no_price_policy(instance, edit):
    # the platform carries no price: a welfare mode for it would count
    # consumer surplus twice, a revenue mode would make a custom vertex
    network, demand = instance
    with pytest.raises(ScenarioError, match="operator 0 is the platform"):
        apply_scenario(network, demand,
                       Scenario(edits=(SetObjectivePolicy(1, "welfare_max"), edit)))


def test_platform_operator_cost_edits_allowed(instance):
    network, demand = instance
    edits = (ScaleTravel(0, 2.0), ScaleCosts(0, 2.0), Surcharge(0, 1.5))
    net2, _, _ = apply_scenario(network, demand, Scenario(edits=edits))
    assert net2.by_arc[(21, 22)].operating_cost == 1.5
    assert net2.by_arc[(1, 21)] == network.by_arc[(1, 21)]


def test_removed_link_takes_its_subsidy_along(instance):
    network, demand = instance
    link = network.by_arc[(23, 4)]
    edits = (Subsidy(link.arc, 50.0), RemoveLinks((link.arc,)),
             AddLinks((replace(link, operating_cost=10.0),)))
    net2, _, ann = apply_scenario(network, demand, Scenario(edits=edits))
    assert ann.subsidies == {}
    assert net2.by_arc[link.arc].operating_cost == 10.0


def test_owner_and_policy_edits_keep_link_order_and_costs(instance):
    """Stability generation reuses a matching's path sets and searches
    across these edits, which relies on this invariant."""
    sioux_falls, sf_demand = build_sioux_falls(transfer_cost=2.0,
                                               capacity_scale=10 / 3)
    for network, demand in (instance, (sioux_falls, sf_demand)):
        owners = sorted(network.operators - {0})
        operated = next(l for l in network.links if l.owner != 0)
        before = [(l.arc, l.travel_cost, l.operating_cost, l.capacity)
                  for l in network.links]
        for edit in (MergeOperators(tuple(owners[:2]), owners[0]),
                     MergeOperators((owners[-1],), owners[0]),
                     SetFixedFare(owners[0], True),
                     Subsidy(operated.arc, operated.operating_cost / 2),
                     SetObjectivePolicy(owners[-1], "welfare_max")):
            net2, _, _ = apply_scenario(network, demand, Scenario(edits=(edit,)))
            assert [(l.arc, l.travel_cost, l.operating_cost, l.capacity)
                    for l in net2.links] == before, edit


def test_missing_entity_errors(instance):
    network, demand = instance
    with pytest.raises(ScenarioError):
        apply_scenario(network, demand,
                       Scenario(edits=(SetCapacity((9, 9), 10),)))
    with pytest.raises(ScenarioError):
        apply_scenario(network, demand, Scenario(edits=(ScaleCosts(99, 2.0),)))


def _one_edit_at_a_time(network, demand, edits):
    for edit in edits:
        network, demand, _ = apply_scenario(network, demand, Scenario(edits=(edit,)))
    return network


def test_capacity_runs_match_one_edit_at_a_time(instance):
    sioux_falls, sf_demand = build_sioux_falls(transfer_cost=2.0, utility=40.0,
                                               capacity_scale=10 / 3)
    cut = tuple(SetCapacity(link.arc, link.capacity * 0.6)
                for link in sioux_falls.links if link.owner != 0)
    assert apply_scenario(sioux_falls, sf_demand, Scenario(edits=cut))[0] == \
        _one_edit_at_a_time(sioux_falls, sf_demand, cut)
    network, demand = instance
    edits = (SetCapacity((1, 21), 500), SetCapacity((1, 3), 700),
             SetCapacity((1, 21), 900), ScaleCosts(1, 0.5), SetCapacity((1, 3), 50),
             Surcharge(3, 25.0), SetCapacity((23, 4), 10), SetCapacity((1, 4), 20))
    cut_network = apply_scenario(network, demand, Scenario(edits=edits))[0]
    assert cut_network == _one_edit_at_a_time(network, demand, edits)
    assert cut_network.by_arc[(1, 21)].capacity == 900
    assert cut_network.by_arc[(1, 3)].capacity == 50


def test_added_link_takes_its_place_in_arc_order(instance):
    network, demand = instance
    first = Link(1, 2, travel_cost=1, operating_cost=1, capacity=10, owner=7)
    assert first.arc < network.links[0].arc
    edits = (AddLinks((first,)), ScaleTravel(None, 2.0))
    edited = apply_scenario(network, demand, Scenario(edits=edits))[0]
    assert [l.arc for l in edited.links] == sorted(edited.by_arc)
    assert edited.links[0].arc == (1, 2) and edited.links[0].travel_cost == 2
    assert edited == _one_edit_at_a_time(network, demand, edits)


def test_capacity_run_errors(instance):
    network, demand = instance
    # the first faulty edit of a run decides the error, as one edit at a time
    for edits, error in (
            ((SetCapacity((1, 21), 500), SetCapacity((9, 9), 10)), ScenarioError),
            ((SetCapacity((1, 3), 0.0), SetCapacity((9, 9), 10)), ValidationError),
            ((SetCapacity((9, 9), 10), SetCapacity((1, 3), 0.0)), ScenarioError),
            ((SetCapacity((1, 3), -5.0), SetCapacity((1, 3), 10.0)), ValidationError),
            ((SetCapacity((1, 21), 500), SetCapacity((1, 3), math.nan)), ValidationError)):
        with pytest.raises(error):
            apply_scenario(network, demand, Scenario(edits=edits))
        with pytest.raises(error):
            _one_edit_at_a_time(network, demand, edits)


def test_only_link_edits_build_a_new_network(instance):
    # scenarios that replace, add or remove no link hand back the input
    network, demand = instance
    for edits in ((), (SetFixedFare(1, True),), (Subsidy((23, 4), 5.0),),
                  (SetObjectivePolicy(1, "revenue_max"),)):
        assert apply_scenario(network, demand, Scenario(edits=edits))[0] is network
    edited = apply_scenario(network, demand,
                            Scenario(edits=(SetCapacity((1, 21), 5000),)))[0]
    assert edited is not network and edited != network


def test_apply_is_pure_and_deterministic(instance):
    network, demand = instance
    scenario = Scenario(edits=(ScaleCosts(1, 0.5), Subsidy((23, 4), 10.0)))
    out1 = apply_scenario(network, demand, scenario)
    out2 = apply_scenario(network, demand, scenario)
    assert out1[0] == out2[0] and out1[1] == out2[1]
    assert out1[2].subsidies == out2[2].subsidies
    assert network.by_arc[(1, 3)].operating_cost == 200  # input untouched


def test_load_scenario_json():
    doc = json.dumps([
        {"edit": "set_capacity", "tail": 1, "head": 21, "capacity": 500},
        {"edit": "subsidy", "tail": 23, "head": 4, "gamma": 5},
        {"edit": "merge_operators", "sources": [1, 3.0], "target": "1"},
        {"edit": "set_fixed_fare", "operator": 1},
        {"edit": "set_objective_policy", "operator": 1, "mode": "welfare_max"},
        {"edit": "scale_travel", "factor": 1.5},
    ])
    scenario = load_scenario(io.StringIO(doc))
    assert len(scenario.edits) == 6
    assert isinstance(scenario.edits[0], SetCapacity)
    # integral ids parse from a float or a string too
    assert scenario.edits[2] == MergeOperators(sources=(1, 3), target=1)
    assert scenario.edits[3].flag is True
    assert scenario.edits[5].operator is None


def test_load_scenario_rejects_unknown():
    with pytest.raises(ScenarioError):
        load_scenario(io.StringIO(json.dumps([{"edit": "nuke"}])))
    with pytest.raises(ScenarioError):
        load_scenario(io.StringIO(json.dumps({"edit": "set_capacity"})))


NEW_LINK = {"tail": 3, "head": 4, "travel_cost": 1, "operating_cost": 2,
            "capacity": 10, "owner": 7}

EDIT_JSON = [
    ({"edit": "set_capacity", "tail": 1, "head": 21, "capacity": 500},
     SetCapacity((1, 21), 500.0)),
    ({"edit": "scale_costs", "operator": 1, "factor": 0.5}, ScaleCosts(1, 0.5)),
    ({"edit": "scale_travel", "operator": 3, "factor": 2}, ScaleTravel(3, 2.0)),
    ({"edit": "surcharge", "operator": 3, "delta": 25}, Surcharge(3, 25.0)),
    ({"edit": "subsidy", "tail": 23, "head": 4, "gamma": 5}, Subsidy((23, 4), 5.0)),
    ({"edit": "add_links", "links": [NEW_LINK]},
     AddLinks((Link(3, 4, travel_cost=1.0, operating_cost=2.0, capacity=10.0, owner=7),))),
    ({"edit": "remove_links", "links": [{"tail": 22, "head": 3}, {"tail": 1, "head": 6}]},
     RemoveLinks(((22, 3), (1, 6)))),
    ({"edit": "merge_operators", "sources": [1, 3], "target": 1}, MergeOperators((1, 3), 1)),
    ({"edit": "set_objective_policy", "operator": 1, "mode": "welfare_max"},
     SetObjectivePolicy(1, "welfare_max")),
    ({"edit": "set_fixed_fare", "operator": 4, "flag": False}, SetFixedFare(4, False)),
]


def test_every_edit_kind_is_parsed_below():
    assert sorted(obj["edit"] for obj, _ in EDIT_JSON) == sorted(_EDITS)


@pytest.mark.parametrize("obj, edit", EDIT_JSON, ids=[o["edit"] for o, _ in EDIT_JSON])
def test_load_each_edit_kind(obj, edit):
    assert load_scenario(io.StringIO(json.dumps([obj]))) == Scenario(edits=(edit,))


# stray keys in an edit object itself are in the CLI's bad-input table
@pytest.mark.parametrize("obj, stray", [
    ({"edit": "add_links", "links": [NEW_LINK | {"ownr": 8}]}, ["ownr"]),
    ({"edit": "remove_links", "links": [{"tail": 22, "head": 3, "capacity": 0}]},
     ["capacity"]),
], ids=["link", "arc"])
def test_load_scenario_rejects_stray_keys(obj, stray):
    message = f"entry 0: malformed {obj['edit']} edit: unknown keys {stray}"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(io.StringIO(json.dumps([obj])))


def test_readme_scenario_example_applies_to_fig5(instance):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    network, demand = instance
    _, _, ann = apply_scenario(network, demand, load_scenario(io.StringIO(block)))
    assert ann.fixed_fare_operators == {1}
    assert ann.subsidies == {(23, 4): 5.0}
