"""Invariant suites over the seeded random-instance corpus.

The ten equilibrium checks and the corpus come from ``conftest``, whose
bodies the acceptance gates run too; each check runs here as one test over
the twelve seeds.  The bodies here check what no gate does: the objective recomputed from flows and activations, the seller
vertex's total revenue under the tie-break, the capacity dual after a
capacity increase, and scenario generation on a reused matching.
"""

import dataclasses
import random

import pytest

from maas_market import (Link, Network, ObjectivePolicy, Scenario,
                         apply_scenario, build_outcome_lp,
                         generate_constraints_algorithm1,
                         generate_constraints_enumeration, solve_matching,
                         solve_outcome)
from maas_market.outcomes import SELLER_OPTIMAL, WELFARE_MAX
from maas_market.scenario import (MergeOperators, ScaleCosts, SetFixedFare,
                                  SetObjectivePolicy, Subsidy)
from conftest import (CORPUS_SEEDS, acquisition, buyer_seller_ordering,
                      complementary_slackness, conservation_and_capacity,
                      decomposition_completeness, merge_all, strong_duality,
                      subsidy, transfer_identity, uniform_cost_scaling)


@pytest.fixture(scope="module", params=CORPUS_SEEDS)
def corpus_instance(request, corpus):
    return corpus[request.param]


def _corpus_test(check):
    """A test that ``check`` holds, or does not apply, on each corpus seed."""
    def test(corpus_instance):
        verdict = check(*corpus_instance)
        assert verdict in (True, None), verdict
    return test


# one test per equilibrium check, each under a stable test id
test_conservation_and_capacity = _corpus_test(conservation_and_capacity)
test_complementary_slackness = _corpus_test(complementary_slackness)
test_decomposition_completeness = _corpus_test(decomposition_completeness)
test_strong_duality = _corpus_test(strong_duality)
test_transfer_identity_tight = _corpus_test(transfer_identity)
test_buyer_seller_ordering = _corpus_test(buyer_seller_ordering)
test_lambda_scaling = _corpus_test(uniform_cost_scaling)
test_acquisition_never_raises_acquired_revenue = _corpus_test(acquisition)
test_subsidy_enlarges_stable_region = _corpus_test(subsidy)
test_merge_all_preserves_nonempty_core = _corpus_test(merge_all)


def test_objective_recomputes(corpus_instance):
    _, network, _, (matching, _, _, _) = corpus_instance
    travel = sum(matching.total_flow(l.arc) * l.travel_cost
                 for l in network.links)
    fixed = sum(l.operating_cost for l in network.links
                if matching.activations[l.arc])
    assert travel + fixed == pytest.approx(matching.objective, rel=1e-6)


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
