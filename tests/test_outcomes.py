from dataclasses import replace

import numpy as np
import pytest

from maas_market import (DemandEntry, DemandTable, Link, Network,
                         ObjectivePolicy, OutcomeOptions, Scenario,
                         apply_scenario, build_outcome_lp, build_sioux_falls,
                         generate_constraints_algorithm1, outcomes, report,
                         solve, solve_lp, solve_outcome)
from maas_market.errors import SolveNumericalError
from maas_market.outcomes import (BUYER_OPTIMAL, REVENUE_MAX, SELLER_OPTIMAL,
                                  WELFARE_MAX)
from maas_market.scenario import SetCapacity
from maas_market.solve import EQ
from conftest import (buyer_seller_ordering, core_nonempty, pipeline_artifacts,
                      rebuilt, transfer_identity, vertex)
from test_answers import split_network, split_scenarios


def test_fig5_buyer_objective_terms(fig5_pipeline):
    system = fig5_pipeline[3]
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=BUYER_OPTIMAL))
    weights = sorted(v for v in model.lp.objective if v != 0)
    assert weights == [1.0, 1.0]          # one unit weight per user group


def test_fig5_seller_objective_terms(fig5_pipeline):
    system = fig5_pipeline[3]
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=SELLER_OPTIMAL))
    by_var = {key: model.lp.objective[col]
              for key, col in model.p_index.items()}
    assert by_var[((1, 3), (1, 3), 1)] == pytest.approx(1000)
    assert by_var[((1, 4), (1, 21, 23, 4), 1)] == pytest.approx(200)
    assert by_var[((1, 4), (1, 21, 23, 4), 3)] == pytest.approx(200)
    assert by_var[((1, 4), (1, 4), 4)] == pytest.approx(300)


def test_fig5_buyer_vertex(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, system = fig5_pipeline[0], fig5_pipeline[3]
    out = vertex(system, BUYER_OPTIMAL, matching=matching, network=network)
    assert out.status == "optimal"
    assert out.surplus[(1, 3)] == pytest.approx(13.0, abs=0.01)
    assert out.surplus[(1, 4)] == pytest.approx(28 / 3, abs=0.01)
    assert out.prices[((1, 3), (1, 3), 1)] == pytest.approx(0.0, abs=0.01)
    assert out.prices[((1, 4), (1, 21, 23, 4), 1)] == pytest.approx(11 / 3, abs=0.01)
    assert out.prices[((1, 4), (1, 21, 23, 4), 3)] == pytest.approx(1.0, abs=0.01)
    assert out.prices[((1, 4), (1, 4), 4)] == pytest.approx(2 / 3, abs=0.01)
    assert out.operators[1].profit == pytest.approx(1000 / 3, abs=0.01)


def test_fig5_seller_vertex(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, system = fig5_pipeline[0], fig5_pipeline[3]
    out = vertex(system, SELLER_OPTIMAL, matching=matching, network=network)
    assert out.surplus[(1, 3)] == pytest.approx(0.0, abs=1e-6)
    assert out.surplus[(1, 4)] == pytest.approx(0.0, abs=1e-6)
    assert out.operators[1].revenue == pytest.approx(15600, abs=1e-6)
    assert out.operators[3].revenue == pytest.approx(200, abs=1e-6)
    assert out.operators[4].revenue == pytest.approx(3000, abs=1e-6)
    # canonical split of the shared path's 14 total
    p2a = out.prices[((1, 4), (1, 21, 23, 4), 1)]
    p2c = out.prices[((1, 4), (1, 21, 23, 4), 3)]
    assert p2a == pytest.approx(13.0, abs=1e-6)
    assert p2c == pytest.approx(1.0, abs=1e-6)


def test_fig5_seller_subsidy_income(fig5_instance):
    # half of link (1,3)'s operating cost of 200 is subsidised
    network, demand = fig5_instance
    subsidies = {(1, 3): 100.0}
    matching, _, _, system = pipeline_artifacts(network, demand,
                                                subsidies=subsidies)
    out = vertex(system, SELLER_OPTIMAL, OutcomeOptions(subsidies=subsidies),
                 matching=matching, network=network)
    m = out.operators[1]
    assert m.subsidy == pytest.approx(100.0, abs=1e-6)
    assert m.profit == pytest.approx(15300.0, abs=1e-6)
    assert m.profit == pytest.approx(m.revenue - m.operating_cost + m.subsidy)
    assert out.operators[4].subsidy == 0.0


def test_outcome_models_share_price_keys(fig5_pipeline):
    system = fig5_pipeline[3]
    buyer = build_outcome_lp(system, ObjectivePolicy(global_mode=BUYER_OPTIMAL))
    seller = build_outcome_lp(system, ObjectivePolicy(global_mode=SELLER_OPTIMAL))
    assert buyer.p_index is seller.p_index
    assert buyer.revenue_terms is seller.revenue_terms
    assert buyer.lp.rows is seller.lp.rows


def test_solve_outcome_leaves_model_unchanged(fig5_pipeline):
    system = fig5_pipeline[3]
    model = build_outcome_lp(system, ObjectivePolicy(global_mode=SELLER_OPTIMAL))
    rows = len(model.lp.rows)
    first = solve_outcome(model)
    assert len(model.lp.rows) == rows
    second = solve_outcome(model)
    assert len(model.lp.rows) == rows
    assert second.prices == first.prices


def _cover_flows(system):
    """Each flow-carrying path's z_r, read off the operator covers."""
    return {(od, nodes): z for terms, _ in system.covers.values()
            for od, nodes, z in terms}


def _stage_objectives(model):
    """Each earning operator's revenue as an objective, in ascending operator
    id, read off the covers and the price columns."""
    flows, stages = _cover_flows(model.system), {}
    for (od, nodes, f), col in model.p_index.items():
        if flows.get((od, nodes), 0.0) != 0:
            stages.setdefault(f, np.zeros(model.lp.num_vars))[col] = flows[(od, nodes)]
    return [stages[f] for f in sorted(stages)]


def _cold_tiebreak(model, primary_value, x):
    """The revenue tie-break with an exact pin row on each optimum before
    and one cold solve per stage: an independent reference for the warm
    stages, which work on the optimal face instead."""
    lp = model.lp
    stage = rebuilt(lp)
    primary = [(i, v) for i, v in enumerate(lp.objective) if v != 0]
    stage.add_row(primary, EQ, primary_value)
    flows = _cover_flows(model.system)
    for f in sorted(model.system.covers):
        coeffs = [(col, flows.get((od, nodes), 0.0))
                  for (od, nodes, g), col in model.p_index.items() if g == f]
        coeffs = [(c, v) for c, v in coeffs if v != 0]
        if not coeffs:
            continue
        stage.objective = [0.0] * lp.num_vars
        for c, v in coeffs:
            stage.objective[c] = v
        result = solve_lp(stage)
        if result.status != "optimal":
            raise SolveNumericalError(
                f"revenue tie-break stage for operator {f}: {result.status}")
        x = result.x
        stage.add_row(coeffs, EQ, result.objective)
    return x


@pytest.fixture(scope="module")
def sioux_falls_cut():
    """Sioux Falls (10/3) with every service link cut to 0.6x capacity."""
    network, demand = build_sioux_falls(transfer_cost=2.0, capacity_scale=10 / 3)
    cut = Scenario(edits=tuple(
        SetCapacity(arc=link.arc, capacity=link.capacity * 0.6)
        for link in network.links if link.owner != 0))
    network, demand, _ = apply_scenario(network, demand, cut)
    matching, _, decomposition, system = pipeline_artifacts(network, demand)
    return network, demand, matching, decomposition, system


def test_warm_tiebreak_matches_cold(reference_instances, sioux_falls_cut,
                                    monkeypatch):
    calls, results = [], []
    warm_solve = outcomes.solve_lp

    def counted(lp, warm=None):
        calls.append(warm)
        results.append(warm_solve(lp, warm=warm))
        return results[-1]

    monkeypatch.setattr(outcomes, "solve_lp", counted)
    solved = 0
    for network, _, matching, _, system in reference_instances + [sioux_falls_cut]:
        for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
            model = build_outcome_lp(system, ObjectivePolicy(global_mode=mode))
            calls.clear()
            results.clear()
            got = solve_outcome(model, matching=matching, network=network)
            primary = solve_lp(model.lp)
            if primary.status != "optimal":
                assert got.status == "empty_core" and len(calls) == 1
                continue
            x = _cold_tiebreak(model, primary.objective, primary.x)
            want = outcomes._assemble_outcome(model, primary.objective, x,
                                              matching, network)
            flows = _cover_flows(system)
            earning = [f for f in model.system.covers
                       if any(g == f and flows.get((od, nodes), 0.0) != 0
                              for od, nodes, g in model.p_index)]
            # the last stage is not run where the primary objective is the
            # stages' sum: it cannot move the point
            stages = _stage_objectives(model)
            skipped = bool(stages) and np.array_equal(sum(stages), model.lp.objective)
            assert skipped == (mode == SELLER_OPTIMAL and bool(earning))
            assert len(calls) == 1 + len(earning) - skipped
            assert calls[0] is None and None not in calls[1:]  # stages re-solve warm
            # the last stage's point keeps the primary optimum
            assert np.dot(model.lp.objective, results[-1].x) == pytest.approx(
                primary.objective, rel=1e-9)
            assert got.objective == pytest.approx(want.objective, rel=1e-7)
            assert list(got.operators) == list(want.operators)
            for f, metrics in want.operators.items():
                assert got.operators[f].revenue == pytest.approx(
                    metrics.revenue, rel=1e-7)
            again = solve_outcome(model, matching=matching, network=network)
            assert again.prices == got.prices
            solved += 1
    assert solved > 300


def test_skipped_last_stage_would_not_move_the_point(reference_instances,
                                                     sioux_falls_cut):
    # run the stage that solve_outcome leaves out: it takes no simplex
    # iteration and gives the very point of the stage before
    network, demand = split_network()
    matching, _, decomposition, _ = pipeline_artifacts(network, demand)
    systems = [(n, m, s, OutcomeOptions()) for n, _, m, _, s in
               reference_instances[:52] + [sioux_falls_cut]]  # fig5, Sioux Falls, 0..49
    for _, scenario in split_scenarios(network):
        edited, _, annotations = apply_scenario(network, demand, scenario)
        systems.append((edited, matching, generate_constraints_algorithm1(
            edited, demand, matching, decomposition, subsidies=annotations.subsidies),
            OutcomeOptions(fixed_fare_operators=frozenset(annotations.fixed_fare_operators),
                           subsidies=annotations.subsidies)))
    skipped = 0
    for network, matching, system, options in systems:
        for policy in (ObjectivePolicy(global_mode=SELLER_OPTIMAL),
                       ObjectivePolicy(per_operator=dict.fromkeys(system.covers,
                                                                  REVENUE_MAX))):
            model = build_outcome_lp(system, policy, options)
            got = solve_outcome(model, matching=matching, network=network)
            stages = _stage_objectives(model)
            result = primary = solve_lp(model.lp)
            if primary.status != "optimal" or not stages:
                continue
            assert np.array_equal(sum(stages), model.lp.objective)
            for objective in stages:
                before = result
                result = solve_lp(replace(model.lp, objective=objective), warm=before)
            assert result.handle.highs.getInfo().simplex_iteration_count == 0
            np.testing.assert_array_equal(result.x, before.x)
            want = outcomes._assemble_outcome(model, primary.objective, result.x,
                                              matching, network)
            assert got.prices == want.prices
            assert ({f: m.revenue for f, m in got.operators.items()}
                    == {f: m.revenue for f, m in want.operators.items()})
            skipped += 1
    assert skipped > 100


def test_incremental_face_restriction_equals_the_full_one(reference_instances,
                                                         monkeypatch):
    # each warm stage changes only what moved; the handle must end up where
    # re-fixing every column with a nonzero reduced cost, fixing every
    # binding inequality row and writing every cost would put it
    row_changes = []

    class Recorded(solve._Highs):
        def changeRowBounds(self, row, lower, upper):
            row_changes.append(row)
            return super().changeRowBounds(row, lower, upper)

    monkeypatch.setattr(solve, "_Highs", Recorded)
    monkeypatch.setattr(solve, "_IDLE", [])
    restrict, stages = solve._restrict_to_face, []

    def checked(lp, warm):
        handle = warm.handle
        highs, solution = handle.highs, handle.highs.getSolution()
        want = highs.getLp()
        col_lower, col_upper = np.array(want.col_lower_), np.array(want.col_upper_)
        row_lower, row_upper = np.array(want.row_lower_), np.array(want.row_upper_)
        cols = np.abs(solution.col_dual) > solve.FACE_TOL
        col_lower[cols] = col_upper[cols] = np.array(solution.col_value)[cols]
        sense = lp.rows.csr()[3][handle.lp_rows]
        rows = (np.abs(solution.row_dual) > solve.FACE_TOL) & (sense != solve._EQ)
        row_lower[rows] = row_upper[rows]
        assert restrict(lp, warm) is handle
        got = highs.getLp()
        for name, array in (("col_lower_", col_lower), ("col_upper_", col_upper),
                            ("row_lower_", row_lower), ("row_upper_", row_upper),
                            ("col_cost_", handle.sign * np.asarray(lp.objective))):
            np.testing.assert_array_equal(getattr(got, name), array, err_msg=name)
        stages.append(rows.sum())
        return handle

    monkeypatch.setattr(solve, "_restrict_to_face", checked)
    for network, _, matching, _, system in reference_instances[:2]:  # fig5, Sioux Falls
        for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
            row_changes.clear()
            assert vertex(system, mode, matching=matching, network=network).status == "optimal"
            assert len(row_changes) == len(set(row_changes)), mode
    assert len(stages) >= 8 and sum(stages) > 0


def test_split_network_rail_acquisition_vertex():
    # Sioux Falls with its bus layer split among six firms by the tail of
    # each link; rail at welfare-max, each firm at revenue-max.  An exact pin
    # row per tie-break stage made rail's stage infeasible here.
    network, demand = build_sioux_falls(transfer_cost=2.0, utility=40.0,
                                        capacity_scale=10 / 3)
    network = network.replace_links([
        link if link.owner != 1 else replace(link, owner=11 + (link.tail - 1) // 4)
        for link in network.links])
    matching, _, _, system = pipeline_artifacts(network, demand)
    policy = ObjectivePolicy(per_operator={2: WELFARE_MAX} | {
        f: REVENUE_MAX for f in range(11, 17)})
    out = solve_outcome(build_outcome_lp(system, policy),
                        matching=matching, network=network)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(7_832_114.98, rel=1e-7)
    revenues = {2: 62.00, 11: 529_836.67, 12: 679_700.0, 13: 2_874_946.67,
                14: 1_614_430.0, 15: 544_086.67, 16: 1_585_200.0}
    assert list(out.operators) == list(revenues)
    for f, revenue in revenues.items():
        assert out.operators[f].revenue == pytest.approx(revenue, rel=1e-7), f


def test_buyer_seller_ordering(fig5_instance, fig5_pipeline):
    assert buyer_seller_ordering("fig5", *fig5_instance, fig5_pipeline) is True


def test_transfer_identity(fig5_instance, fig5_pipeline):
    assert transfer_identity("fig5", *fig5_instance, fig5_pipeline) is True


def test_all_rows_satisfied(fig5_pipeline):
    system = fig5_pipeline[3]
    out = vertex(system, SELLER_OPTIMAL)
    for f, (terms, rhs) in system.covers.items():
        lhs = sum(z * out.prices[(od, nodes, f)] for od, nodes, z in terms)
        assert lhs >= rhs - 1e-6
    for row in system.stability_rows:
        lhs = out.surplus[row.group] + sum(
            out.prices[(row.group, nodes, f)] for nodes, f in row.terms)
        assert lhs >= row.bound - 1e-6


def test_core_nonempty_fig5(fig5_pipeline):
    assert core_nonempty(fig5_pipeline[3])


def test_empty_core_low_utility():
    links = (Link(1, 2, travel_cost=5, operating_cost=1, capacity=10, owner=1),)
    network = Network(nodes=frozenset({1, 2}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 1.0),))
    _, _, _, system = pipeline_artifacts(network, demand)
    assert not core_nonempty(system)
    out = vertex(system, BUYER_OPTIMAL)
    assert out.status == "empty_core"


def test_empty_core_cover_exceeds_surplus():
    # d*(U - t) = 5*2 < c = 40: operator cost cannot be recovered
    links = (Link(1, 2, travel_cost=3, operating_cost=40, capacity=10, owner=1),)
    network = Network(nodes=frozenset({1, 2}), links=links)
    demand = DemandTable(entries=(DemandEntry(1, 2, 5, 5.0),))
    _, _, _, system = pipeline_artifacts(network, demand)
    assert not core_nonempty(system)


def test_fixed_fare_ties_prices(fig5_pipeline):
    system = fig5_pipeline[3]
    options = OutcomeOptions(fixed_fare_operators=frozenset({1}))
    out = vertex(system, SELLER_OPTIMAL, options=options)
    p1 = out.prices[((1, 3), (1, 3), 1)]
    p2 = out.prices[((1, 4), (1, 21, 23, 4), 1)]
    assert p1 == pytest.approx(p2, abs=1e-9)
    m = out.operators[1]
    assert m.min_fare == pytest.approx(m.max_fare, abs=1e-9)


def test_acquisition_policy_objective(fig5_pipeline):
    system = fig5_pipeline[3]
    policy = ObjectivePolicy(per_operator={1: "revenue_max", 3: "welfare_max",
                                           4: "revenue_max"})
    model = build_outcome_lp(system, policy)
    # welfare term puts weight on every surplus variable
    for od, col in model.u_index.items():
        assert model.lp.objective[col] == pytest.approx(1.0)
    assert model.lp.objective[model.p_index[((1, 3), (1, 3), 1)]] == \
        pytest.approx(1000)


@pytest.mark.parametrize("kwargs, message", [
    ({}, "exactly one of"),
    ({"global_mode": BUYER_OPTIMAL, "per_operator": {1: WELFARE_MAX}}, "exactly one of"),
    ({"global_mode": REVENUE_MAX}, "unknown global mode"),
    ({"per_operator": {1: BUYER_OPTIMAL}}, "unknown operator mode"),
])
def test_objective_policy_rejects_bad_modes(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ObjectivePolicy(**kwargs)


def test_policy_objects_reject_the_platform_operator():
    # operator 0 carries no price, so a mode for it would only count its
    # consumer surplus twice or add an objective no operator asked for
    with pytest.raises(ValueError, match="operator 0 is the platform"):
        ObjectivePolicy(per_operator={0: WELFARE_MAX, 1: WELFARE_MAX})
    with pytest.raises(ValueError, match="operator 0 is the platform"):
        OutcomeOptions(fixed_fare_operators=frozenset({0, 1}))


def test_avg_fare_identity(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, system = fig5_pipeline[0], fig5_pipeline[3]
    out = vertex(system, SELLER_OPTIMAL, matching=matching, network=network)
    for m in out.operators.values():
        if m.ridership > 0:
            assert m.avg_fare * m.ridership == pytest.approx(m.revenue,
                                                             rel=1e-6)


def test_uniform_scaling_scales_vertex(fig5_instance):
    network, demand = fig5_instance
    lam = 2.5
    scaled_net = Network(
        nodes=network.nodes,
        links=tuple(Link(l.tail, l.head, l.travel_cost * lam,
                         l.operating_cost * lam, l.capacity, l.owner)
                    for l in network.links))
    scaled_dem = DemandTable(entries=tuple(
        DemandEntry(e.origin, e.destination, e.demand, e.utility * lam)
        for e in demand.entries))
    _, _, _, base = pipeline_artifacts(network, demand)
    _, _, _, scaled = pipeline_artifacts(scaled_net, scaled_dem)
    for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
        out1 = vertex(base, mode)
        out2 = vertex(scaled, mode)
        for od, u in out1.surplus.items():
            assert out2.surplus[od] == pytest.approx(lam * u, abs=1e-6)
        for key, p in out1.prices.items():
            assert out2.prices[key] == pytest.approx(lam * p, abs=1e-6)


def test_report_document(fig5_instance, fig5_pipeline):
    network, _ = fig5_instance
    matching, system = fig5_pipeline[0], fig5_pipeline[3]
    out = vertex(system, BUYER_OPTIMAL, matching=matching, network=network)
    doc = report(out, matching)
    assert doc["status"] == "optimal"
    assert doc["matching_objective"] == pytest.approx(12000)
    assert {row["operator"] for row in doc["operators"]} == {1, 3, 4}
    assert doc["avg_services_per_traveler"] == pytest.approx(1700 / 1500)
