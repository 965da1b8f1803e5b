"""Every LP the pipeline builds reaches HiGHS in ``linprog``'s form.

The handle builder reorders and transposes each LP's CSR rows with numpy.
These tests record what it passes to HiGHS for every model of the pipeline
and compare it with a reference built from ``lp.rows`` with
``scipy.sparse``: the matching MILP, the flow LP and the outcome LPs with
and without fixed-fare rows.  The warm tie-break stages restrict the
outcome LP's handle to an optimal face by bounds, so they add no row.
"""

import math

import numpy as np
import scipy.sparse as sp

from maas_market import (ObjectivePolicy, OutcomeOptions, build_outcome_lp,
                         build_sioux_falls, decompose_flows, fig5,
                         generate_constraints_algorithm1, solve,
                         solve_matching, solve_outcome)
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL
from maas_market.randnet import random_instance
from maas_market.scenario import Scenario, SetCapacity, apply_scenario
from maas_market.solve import EQ, GE


def _instances():
    sioux_falls = build_sioux_falls(transfer_cost=2.0, utility=40.0,
                                    capacity_scale=10 / 3)
    cut = Scenario(edits=tuple(SetCapacity(arc=link.arc, capacity=link.capacity * 0.6)
                               for link in sioux_falls[0].links if link.owner != 0))
    yield "fig5", fig5()
    yield "sioux-falls", sioux_falls
    yield "sioux-falls-cut", apply_scenario(*sioux_falls, cut)[:2]
    for seed in range(50):
        yield f"seed {seed}", random_instance(seed)


def _pipeline(network, demand):
    matching = solve_matching(network, demand)
    system = generate_constraints_algorithm1(
        network, demand, matching, decompose_flows(network, demand, matching))
    for policy, options in (
            (BUYER_OPTIMAL, OutcomeOptions()),
            (SELLER_OPTIMAL, OutcomeOptions()),
            (SELLER_OPTIMAL, OutcomeOptions(fixed_fare_operators=frozenset(system.covers)))):
        solve_outcome(build_outcome_lp(system, ObjectivePolicy(global_mode=policy), options),
                      matching=matching, network=network)


def _record(monkeypatch):
    """Patch the solver to record, per cold handle, the LP and the model
    HiGHS holds once it is passed; per warm stage, the LP's row count and
    the handle's; and the arguments of every ``addRows`` call.  Returns the
    three lists."""
    cold, warm, passed, added = [], [], [], []

    class Recorded(solve._Highs):
        def passModel(self, *args):
            status = super().passModel(*args)
            model = self.getLp()
            passed.append({name: np.array(getattr(model, name + "_")) for name in
                           ("col_cost", "col_lower", "col_upper", "row_lower", "row_upper")}
                          | {name: np.array(getattr(model.a_matrix_, name + "_"))
                             for name in ("start", "index", "value")})
            return status

        def addRows(self, *args):
            added.append(args)
            return super().addRows(*args)

    highs_handle, restrict = solve._highs_handle, solve._restrict_to_face

    def recorded_handle(lp, bounds):
        handle = highs_handle(lp, bounds)
        cold.append((_snapshot(lp), np.array(bounds), passed.pop()))
        return handle

    def recorded_restrict(lp, result):
        handle = restrict(lp, result)
        warm.append((len(lp.rows), handle.highs.getNumRow()))
        return handle

    monkeypatch.setattr(solve, "_Highs", Recorded)
    monkeypatch.setattr(solve, "_IDLE", [])
    monkeypatch.setattr(solve, "_highs_handle", recorded_handle)
    monkeypatch.setattr(solve, "_restrict_to_face", recorded_restrict)
    return cold, warm, added


def _snapshot(lp):
    return lp.num_vars, list(lp.objective), lp.maximize, list(lp.rows)


def _linprog_form(snapshot, bounds):
    """The model of ``snapshot`` in ``linprog``'s form, its matrix built
    with ``scipy.sparse`` (which sums duplicate entries)."""
    num_vars, objective, maximize, rows = snapshot
    ordered = [row for row in rows if row.sense != EQ] + [row for row in rows if row.sense == EQ]
    flips = [-1.0 if row.sense == GE else 1.0 for row in ordered]
    entries = [(k, j, flip * v) for k, (row, flip) in enumerate(zip(ordered, flips))
               for j, v in row.coeffs]
    ks, js, vs = (list(column) for column in zip(*entries)) if entries else ([], [], [])
    A = sp.csc_matrix((vs, (ks, js)), shape=(len(ordered), num_vars))
    upper = [flip * row.rhs for row, flip in zip(ordered, flips)]
    return {"col_cost": (-1.0 if maximize else 1.0) * np.array(objective, dtype=float),
            "col_lower": bounds[:, 0], "col_upper": bounds[:, 1],
            "row_lower": [-math.inf if row.sense != EQ else row.rhs for row in ordered],
            "row_upper": upper, "start": A.indptr, "index": A.indices, "value": A.data}


def test_handles_get_each_lp_in_linprog_form(monkeypatch):
    cold, warm, added = _record(monkeypatch)
    for label, (network, demand) in _instances():
        before = len(cold)
        _pipeline(network, demand)
        assert len(cold) - before >= 5, label  # MILP, flow LP, three outcome LPs
    for snapshot, bounds, model in cold:
        want = _linprog_form(snapshot, bounds)
        for name, array in want.items():
            np.testing.assert_array_equal(model[name], array, err_msg=name)
    # every stage after the primary solve re-solves warm on the rows it had
    assert len(warm) > 100
    assert all(lp_rows == handle_rows for lp_rows, handle_rows in warm)
    assert added == []
