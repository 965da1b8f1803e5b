"""Invariant suites over the seeded random-instance corpus."""

import dataclasses
import random

import pytest

from maas_market import (Link, Network, ObjectivePolicy, Scenario,
                         apply_scenario, build_outcome_lp,
                         generate_constraints_algorithm1,
                         generate_constraints_enumeration, solve_matching,
                         solve_outcome)
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL, WELFARE_MAX
from maas_market.randnet import random_instance
from maas_market.scenario import (MergeOperators, ScaleCosts, SetFixedFare,
                                  SetObjectivePolicy, Subsidy)
from conftest import core_nonempty, flows_for, pipeline_artifacts

SEEDS = list(range(12))


@pytest.fixture(scope="module", params=SEEDS)
def corpus_instance(request):
    network, demand = random_instance(request.param)
    return request.param, network, demand, pipeline_artifacts(network, demand)


def test_conservation_and_capacity(corpus_instance):
    _, network, demand, (matching, _, _, _) = corpus_instance
    for entry in demand.entries:
        per_od = matching.flows.get(entry.od, {})
        for node in network.nodes:
            balance = (sum(v for (t, _), v in per_od.items() if t == node)
                       - sum(v for (_, h), v in per_od.items() if h == node))
            expected = (entry.demand if node == entry.origin else
                        -entry.demand if node == entry.destination else 0.0)
            assert balance == pytest.approx(expected, abs=1e-5)
    for link in network.links:
        total = matching.total_flow(link.arc)
        assert total <= link.capacity * matching.activations[link.arc] + 1e-6


def test_complementary_slackness(corpus_instance):
    _, network, _, (matching, duals, _, _) = corpus_instance
    for link in network.links:
        if duals[link.arc] > 1e-6:
            assert matching.total_flow(link.arc) == pytest.approx(
                link.capacity, rel=1e-6, abs=1e-5)


def test_decomposition_completeness(corpus_instance):
    _, network, demand, (matching, _, decomposition, _) = corpus_instance
    for entry in demand.entries:
        flows = flows_for(decomposition, entry.od)
        assert sum(z for _, z in flows) == pytest.approx(entry.demand,
                                                         abs=1e-5)
        rebuilt = {}
        for path, z in flows:
            for arc in path.arcs:
                rebuilt[arc] = rebuilt.get(arc, 0.0) + z
        for arc, v in matching.flows.get(entry.od, {}).items():
            assert rebuilt.get(arc, 0.0) == pytest.approx(v, abs=1e-5)


def test_objective_recomputes(corpus_instance):
    _, network, _, (matching, _, _, _) = corpus_instance
    travel = sum(matching.total_flow(l.arc) * l.travel_cost
                 for l in network.links)
    fixed = sum(l.operating_cost for l in network.links
                if matching.activations[l.arc])
    assert travel + fixed == pytest.approx(matching.objective, rel=1e-6)


def test_lambda_scaling(corpus_instance):
    _, network, demand, (matching, _, _, _) = corpus_instance
    lam = 1.7
    scaled = Network(
        nodes=network.nodes,
        links=tuple(Link(l.tail, l.head, l.travel_cost * lam,
                         l.operating_cost * lam, l.capacity, l.owner)
                    for l in network.links))
    other = solve_matching(scaled, demand)
    assert other.objective == pytest.approx(lam * matching.objective,
                                            rel=1e-8)
    assert other.activations == matching.activations


def test_transfer_identity_tight(corpus_instance):
    _, _, _, (_, _, _, system) = corpus_instance
    for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
        model = build_outcome_lp(system, ObjectivePolicy(global_mode=mode))
        out = solve_outcome(model)
        if out.status != "optimal":
            continue
        for od, pset in system.groups.items():
            for info in pset.paths:
                total = out.surplus[od] + sum(
                    out.prices[(od, info.nodes, f)] for f in info.operators)
                assert total == pytest.approx(pset.utility - info.travel_cost,
                                              abs=1e-9)


def test_buyer_seller_ordering(corpus_instance):
    _, _, _, (_, _, _, system) = corpus_instance
    buyer = solve_outcome(build_outcome_lp(
        system, ObjectivePolicy(global_mode=BUYER_OPTIMAL)))
    seller = solve_outcome(build_outcome_lp(
        system, ObjectivePolicy(global_mode=SELLER_OPTIMAL)))
    if buyer.status != "optimal":
        assert seller.status != "optimal"
        return
    assert buyer.consumer_surplus >= seller.consumer_surplus - 1e-6
    assert (sum(m.revenue for m in seller.operators.values())
            >= sum(m.revenue for m in buyer.operators.values()) - 1e-6)


def test_seller_total_revenue_tiebreak_invariant(corpus_instance):
    _, _, _, (_, _, _, system) = corpus_instance
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=SELLER_OPTIMAL))
    plain = solve_outcome(model, tie_break=False)
    broken = solve_outcome(model, tie_break=True)
    if plain.status != "optimal":
        return
    assert (sum(m.revenue for m in broken.operators.values())
            == pytest.approx(sum(m.revenue for m in plain.operators.values()),
                             rel=1e-6, abs=1e-6))


# scenario-engine properties on the seeded corpus


def _operator_max_revenue(system, operator):
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=SELLER_OPTIMAL))
    obj = [0.0] * model.lp.num_vars
    flows = {}
    for f, (terms, _) in system.covers.items():
        for od, nodes, z in terms:
            flows[(od, nodes)] = z
    for (od, nodes, f), col in model.p_index.items():
        if f == operator:
            obj[col] = flows.get((od, nodes), 0.0)
    model.lp.objective = obj
    out = solve_outcome(model, tie_break=False)
    return out


def test_acquisition_never_raises_acquired_revenue(corpus_instance):
    seed, _, _, (_, _, _, system) = corpus_instance
    seller = solve_outcome(build_outcome_lp(
        system, ObjectivePolicy(global_mode=SELLER_OPTIMAL)))
    if seller.status != "optimal" or len(system.covers) < 2:
        return
    acquired = sorted(system.covers)[-1]
    modes = {f: "revenue_max" for f in system.covers}
    modes[acquired] = "welfare_max"
    out = solve_outcome(build_outcome_lp(
        system, ObjectivePolicy(per_operator=modes)))
    assert out.status == "optimal"
    assert (out.operators[acquired].revenue
            <= seller.operators[acquired].revenue + 1e-6)


def test_capacity_increase_never_raises_dual(corpus_instance):
    _, network, demand, (matching, duals, _, _) = corpus_instance
    binding = [a for a, v in duals.items() if v > 1e-6]
    if not binding:
        return
    arc = binding[0]
    relaxed = Network(
        nodes=network.nodes,
        links=tuple(Link(l.tail, l.head, l.travel_cost, l.operating_cost,
                         l.capacity * 1.5 if l.arc == arc else l.capacity,
                         l.owner)
                    for l in network.links))
    matching2 = solve_matching(relaxed, demand)
    assert matching2.duals[arc] <= duals[arc] + 1e-6


def test_subsidy_enlarges_stable_region(corpus_instance):
    _, network, demand, (matching, _, decomposition, system) = corpus_instance
    buyer = solve_outcome(build_outcome_lp(
        system, ObjectivePolicy(global_mode=BUYER_OPTIMAL)), tie_break=False)
    if buyer.status != "optimal":
        return
    operated = [l for l in network.links
                if matching.activations[l.arc] and l.operating_cost > 0
                and l.owner != 0]
    if not operated:
        return
    subsidies = {operated[0].arc: operated[0].operating_cost * 0.5}
    bigger = generate_constraints_algorithm1(network, demand, matching,
                                             decomposition,
                                             subsidies=subsidies)
    model = build_outcome_lp(bigger, ObjectivePolicy(global_mode=BUYER_OPTIMAL))
    # re-check the unsubsidized vertex against every subsidized row
    for od, pset in bigger.groups.items():
        for info in pset.paths:
            lhs = buyer.surplus[od] + sum(
                buyer.prices[(od, info.nodes, f)] for f in info.operators)
            assert lhs == pytest.approx(pset.utility - info.travel_cost,
                                        abs=1e-6)
    for f, (terms, rhs) in bigger.covers.items():
        lhs = sum(z * buyer.prices[(od, nodes, f)] for od, nodes, z in terms)
        assert lhs >= rhs - 1e-6
    for row in bigger.stability_rows:
        lhs = buyer.surplus[row.group] + sum(
            buyer.prices[(row.group, nodes, f)] for nodes, f in row.terms)
        assert lhs >= row.bound - 1e-6
    assert core_nonempty(bigger)


def test_merge_all_preserves_nonempty_core(corpus_instance):
    _, network, demand, (_, _, _, system) = corpus_instance
    if not core_nonempty(system):
        return
    merged_links = tuple(
        Link(l.tail, l.head, l.travel_cost, l.operating_cost, l.capacity,
             1 if l.owner != 0 else 0)
        for l in network.links)
    merged_net = Network(nodes=network.nodes, links=merged_links)
    _, _, _, merged_system = pipeline_artifacts(merged_net, demand)
    assert core_nonempty(merged_system)


def _owner_and_policy_scenarios(seed, network, activations):
    """Seeded scenarios that keep the matching's omega: a merge, an
    acquisition into another operator, a fixed fare, a subsidy, a merge
    followed by a fixed fare, an objective mode, and a scaling of the
    operating costs of an operator whose links are all operated, which
    changes only its cover's right-hand side."""
    rng = random.Random(seed)
    owners = sorted(network.operators - {0})
    costly = [l for l in network.links if l.owner != 0 and l.operating_cost > 0]
    edits = [(SetFixedFare(rng.choice(owners), True),)]
    if costly:
        link = rng.choice(costly)
        edits.append((Subsidy(link.arc, rng.uniform(0, link.operating_cost)),))
    if len(owners) >= 2:
        merged = tuple(rng.sample(owners, 2))
        acquired, acquirer = rng.sample(owners, 2)
        edits += [(MergeOperators(merged, merged[0]),),
                  (MergeOperators((acquired,), acquirer),),
                  (MergeOperators(merged, merged[0]),
                   SetFixedFare(merged[0], True))]
    edits.append((SetObjectivePolicy(rng.choice(owners), WELFARE_MAX),))
    operated = [f for f in owners
                if all(activations.get(l.arc, 0) >= 0.5
                       for l in network.operator_links(f))
                and any(l.operating_cost > 0 for l in network.operator_links(f))]
    if operated:
        edits.append((ScaleCosts(rng.choice(operated), 2.0),))
    return [Scenario(edits=e) for e in edits]


def _on_reused_and_fresh(generate, network, demand, matching, decomposition,
                         scenario):
    """``generate`` on the scenario's network, once on ``matching`` and once
    on a copy whose memo is empty."""
    edited, _, annotations = apply_scenario(network, demand, scenario)
    return [generate(edited, demand, on, decomposition,
                     subsidies=annotations.subsidies)
            for on in (matching, dataclasses.replace(matching))]


def test_scenarios_on_one_matching_equal_fresh_generations(reference_instances):
    """fig5, Sioux Falls and random_instance(0..199): scenario systems
    generated on the base matching, whose memo holds the base generation,
    equal those of a fresh generation byte for byte."""
    for seed, (network, demand, matching, decomposition, _) in \
            enumerate(reference_instances):
        for scenario in _owner_and_policy_scenarios(
                seed, network, matching.activations):
            reused, fresh = _on_reused_and_fresh(
                generate_constraints_algorithm1, network, demand, matching,
                decomposition, scenario)
            assert reused.render_text() == fresh.render_text(), (seed, scenario)


def test_oracle_on_one_matching_equals_fresh_oracle(reference_instances):
    """The enumeration oracle shares the memo's path sets: fig5 and
    random_instance(0..39)."""
    instances = reference_instances[:1] + reference_instances[2:42]
    for seed, (network, demand, matching, decomposition, _) in \
            enumerate(instances):
        for scenario in _owner_and_policy_scenarios(
                seed, network, matching.activations):
            reused, fresh = _on_reused_and_fresh(
                generate_constraints_enumeration, network, demand, matching,
                decomposition, scenario)
            assert reused.render_text() == fresh.render_text(), (seed, scenario)
