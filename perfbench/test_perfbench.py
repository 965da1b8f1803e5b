"""The benchmark's checkers accept right answers and reject wrong ones.

Run with ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

import copy

import pytest

import maas_market as mm
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL
from maas_market.scenario import Scenario

import checks
import worker
from spans import NullTracer, Tracer


@pytest.fixture(scope="module")
def fig5_unit(tmp_path_factory):
    network, demand = mm.fig5()
    csv = worker.write_inputs(tmp_path_factory.mktemp("fig5"), "fig5", network, demand)
    eq = worker.solve_equilibrium(NullTracer(), *csv, Scenario())
    options = worker.options_for(eq.annotations)
    out = {}
    for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
        out[mode] = worker.solve_vertex(NullTracer(), eq, eq.network, eq.system,
                                        mm.ObjectivePolicy(global_mode=mode), options)
    return eq, options, out


def test_independent_milp_gives_the_paper_optimum_on_fig5():
    assert checks.independent_matching_objective(*mm.fig5()) == pytest.approx(12000.0)


def test_right_answers_pass(fig5_unit):
    eq, options, out = fig5_unit
    checks.check_equilibrium(eq)
    for outcome in out.values():
        checks.check_stable(eq.network, eq.matching.activations, eq.system,
                            options.subsidies, outcome)
    checks.check_buyer_seller(out[BUYER_OPTIMAL], out[SELLER_OPTIMAL])
    checks.check_fig5(eq, out[BUYER_OPTIMAL])
    checks.check_matching_objective(
        eq.matching, checks.independent_matching_objective(eq.network, eq.demand), "fig5")


def test_perturbed_price_is_rejected(fig5_unit):
    eq, options, out = fig5_unit
    wrong = copy.deepcopy(out[BUYER_OPTIMAL])
    key = ((1, 4), (1, 21, 23, 4), 3)
    wrong.prices[key] += 0.5
    with pytest.raises(checks.CheckFailed, match="surplus equality"):
        checks.check_stable(eq.network, eq.matching.activations, eq.system,
                            options.subsidies, wrong)


def test_negative_price_is_rejected(fig5_unit):
    eq, options, out = fig5_unit
    wrong = copy.deepcopy(out[SELLER_OPTIMAL])
    key = ((1, 4), (1, 21, 23, 4), 1)
    shift = wrong.prices[key] + 1.0
    wrong.prices[key] -= shift
    wrong.prices[((1, 4), (1, 21, 23, 4), 3)] += shift
    with pytest.raises(checks.CheckFailed, match="negative price|does not cover"):
        checks.check_stable(eq.network, eq.matching.activations, eq.system,
                            options.subsidies, wrong)


def test_flow_that_breaks_conservation_is_rejected(fig5_unit):
    eq, _, _ = fig5_unit
    matching = copy.deepcopy(eq.matching)
    matching.flows[(1, 4)][(1, 4)] += 10.0
    with pytest.raises(checks.CheckFailed, match="not conserved"):
        checks.check_flows(eq.network, eq.demand, matching)


def test_dual_on_unsaturated_link_is_rejected(fig5_unit):
    eq, _, _ = fig5_unit
    duals = {**eq.duals, (1, 3): 1.0}
    with pytest.raises(checks.CheckFailed, match="unsaturated"):
        checks.check_duals(eq.network, eq.matching, duals)


def test_shifted_matching_objective_is_rejected(fig5_unit):
    eq, _, _ = fig5_unit
    matching = copy.deepcopy(eq.matching)
    matching.objective += 1.0
    reference = checks.independent_matching_objective(eq.network, eq.demand)
    with pytest.raises(checks.CheckFailed, match="matching objective"):
        checks.check_matching_objective(matching, reference, "fig5")


def test_non_optimal_path_is_rejected(fig5_unit):
    eq, _, _ = fig5_unit
    duals = dict(eq.duals)
    duals[(1, 21)] += 1.0  # path 1-21-23-4 is no longer omega-minimal
    with pytest.raises(checks.CheckFailed, match="omega"):
        checks.check_optimal_paths(eq.network, eq.demand, eq.matching, duals, eq.system)


def test_traced_path_records_every_layer(tmp_path):
    network, demand = mm.fig5()
    csv = worker.write_inputs(tmp_path, "fig5", network, demand)
    tr = Tracer()
    with worker.layer_probes(tr):
        with worker.timed_unit(tr, [], "fig5"):
            eq = worker.solve_equilibrium(tr, *csv, Scenario())
            worker.solve_vertex(tr, eq, eq.network, eq.system,
                                mm.ObjectivePolicy(global_mode=BUYER_OPTIMAL),
                                worker.options_for(eq.annotations))
    metrics = worker.layer_metrics(tr)
    for name in worker.SPAN_LAYERS:
        assert metrics[f"{name}_ms"] > 0, name
    assert metrics["matching.binding_links"] == 1
    assert metrics["matching.path_flows"] == 3
    assert metrics["outcomes.tiebreak_stages"] >= 1
    path_sets = [s for s in tr.spans if s["name"] == "stability.path_sets"]
    assert path_sets and tr.spans[path_sets[0]["parent"]]["name"] == "stability.generate"
