import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import maas_market
from maas_market import (LinearProgram, MixedIntegerProgram, solve, solve_lp,
                         solve_milp)
from maas_market.errors import ResourceLimitExceeded
from maas_market.solve import EQ, GE, LE, Row
from conftest import effective_bounds, rebuilt


def test_trivial_lp_with_dual():
    lp = LinearProgram(num_vars=1, objective=[1.0], maximize=True)
    row = lp.add_row([(0, 1.0)], LE, 5.0)
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.x[0] == pytest.approx(5.0)
    assert result.duals[row] == pytest.approx(1.0)


def test_ge_row_dual_sign():
    # min x s.t. x >= 3: pushing the rhs up raises the optimum
    lp = LinearProgram(num_vars=1, objective=[1.0])
    row = lp.add_row([(0, 1.0)], GE, 3.0)
    result = solve_lp(lp)
    assert result.objective == pytest.approx(3.0)
    assert result.duals[row] == pytest.approx(1.0)


def test_degenerate_lp_valid_dual():
    # two identical binding rows: duals non-unique but must price the rhs
    lp = LinearProgram(num_vars=1, objective=[1.0], maximize=True)
    r1 = lp.add_row([(0, 1.0)], LE, 5.0)
    r2 = lp.add_row([(0, 1.0)], LE, 5.0)
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.duals[r1] + result.duals[r2] == pytest.approx(1.0)
    assert result.duals[r1] >= -1e-9 and result.duals[r2] >= -1e-9


def test_infeasible_and_unbounded_status():
    lp = LinearProgram(num_vars=1, objective=[1.0])
    lp.add_row([(0, 1.0)], LE, -1.0)
    assert solve_lp(lp).status == "infeasible"
    lp2 = LinearProgram(num_vars=1, objective=[1.0], maximize=True)
    assert solve_lp(lp2).status == "unbounded"


@pytest.mark.parametrize("sense, feasible, infeasible",
                         [(LE, 1.5, -1.5), (GE, -1.5, 1.5), (EQ, 0.0, 1.5)])
def test_rows_without_columns_are_checked(sense, feasible, infeasible):
    # each row reads 0 sense rhs, with or without columns in the LP
    for rhs, status in ((feasible, "optimal"), (infeasible, "infeasible")):
        for num_vars in (0, 1):
            lp = LinearProgram(num_vars=num_vars, objective=[0.0] * num_vars)
            lp.add_rows([0, 0], [], [], sense, [rhs])
            assert solve_lp(lp).status == status, (num_vars, rhs)


def test_rows_take_one_sense_each():
    lp = LinearProgram(num_vars=2, objective=[1.0, 1.0])
    assert list(lp.add_rows([0, 1, 2, 4], [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0],
                            [GE, LE, EQ], [1.0, 3.0, 2.5])) == [0, 1, 2]
    assert list(lp.rows) == [Row([(0, 1.0)], GE, 1.0), Row([(1, 1.0)], LE, 3.0),
                             Row([(0, 1.0), (1, 1.0)], EQ, 2.5)]
    for senses in ([GE, LE], [GE, LE, "=="], GE + LE + EQ):
        with pytest.raises(ValueError):
            lp.add_rows([0, 1, 2, 4], [0, 1, 0, 1], [1.0] * 4, senses, [1.0, 3.0, 2.5])
    assert len(lp.rows) == 3
    assert solve_lp(lp).objective == pytest.approx(2.5)


def _random_lp(rng):
    """A small LP with mixed row senses and bounds, built around a feasible
    point; maximised ones with free columns may be unbounded."""
    n = rng.randint(1, 6)
    point = [rng.uniform(-3, 3) for _ in range(n)]
    bounds = []
    for v in point:
        lower = rng.choice([v - rng.uniform(0, 2), -math.inf])
        upper = rng.choice([v + rng.uniform(0, 2), math.inf])
        bounds.append((lower, upper))
    lp = LinearProgram(num_vars=n, maximize=rng.random() < 0.5,
                       objective=[rng.uniform(-3, 3) for _ in range(n)],
                       bounds=bounds)
    for _ in range(rng.randint(0, 6)):
        coeffs = [(j, rng.uniform(-2, 2)) for j in sorted(rng.sample(range(n), rng.randint(1, n)))]
        activity = sum(v * point[j] for j, v in coeffs)
        sense = rng.choice([LE, GE, EQ])
        slack = 0.0 if sense == EQ else rng.uniform(0, 1)
        lp.add_row(coeffs, sense, activity + (slack if sense == LE else -slack))
    return lp


def _linprog_reference(lp):
    """``lp`` solved by scipy's linprog: (status, objective, x, duals)."""
    sign = -1.0 if lp.maximize else 1.0
    ub = [(k, -1.0 if row.sense == GE else 1.0)
          for k, row in enumerate(lp.rows) if row.sense != EQ]
    eq = [k for k, row in enumerate(lp.rows) if row.sense == EQ]

    def dense(rows, flips):
        A = np.zeros((len(rows), lp.num_vars))
        for r, (k, flip) in enumerate(zip(rows, flips)):
            for j, v in lp.rows[k].coeffs:
                A[r, j] += flip * v
        return A

    res = linprog(sign * np.array(lp.objective),
                  A_ub=dense([k for k, _ in ub], [f for _, f in ub]) if ub else None,
                  b_ub=[f * lp.rows[k].rhs for k, f in ub] if ub else None,
                  A_eq=dense(eq, [1.0] * len(eq)) if eq else None,
                  b_eq=[lp.rows[k].rhs for k in eq] if eq else None,
                  bounds=effective_bounds(lp), method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    if status != "optimal":
        return status, None, None, None
    duals = np.zeros(len(lp.rows))
    for r, (k, flip) in enumerate(ub):
        duals[k] = sign * flip * res.ineqlin.marginals[r]
    for r, k in enumerate(eq):
        duals[k] = sign * res.eqlin.marginals[r]
    return status, sign * res.fun, res.x, duals


def test_solve_lp_matches_linprog():
    rng = random.Random(11)
    lps = [_random_lp(rng) for _ in range(200)]
    infeasible = LinearProgram(num_vars=2, objective=[1.0, 1.0])
    infeasible.add_row([(0, 1.0), (1, 1.0)], GE, 3.0)
    infeasible.add_row([(0, 1.0)], LE, 1.0)
    infeasible.add_row([(1, 1.0)], EQ, 1.0)
    unbounded = LinearProgram(num_vars=2, objective=[1.0, 2.0], maximize=True)
    unbounded.add_row([(0, 1.0), (1, -1.0)], LE, 1.0)
    statuses = []
    for lp in lps + [infeasible, unbounded]:
        status, objective, x, duals = _linprog_reference(lp)
        result = solve_lp(lp)
        assert result.status == status
        statuses.append(status)
        if status == "optimal":
            assert result.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
            np.testing.assert_allclose(result.x, x, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(result.duals, duals, rtol=1e-9, atol=1e-9)
    assert statuses[-2:] == ["infeasible", "unbounded"]
    assert statuses.count("optimal") >= 100 and "unbounded" in statuses[:-2]


def test_handle_keeps_linprog_row_form():
    # HiGHS gets the <= rows and the negated >= rows in LP order, then the
    # = rows; that form picks which optimum HiGHS returns among tied ones
    for s in (1.0, -1.0):
        lp = LinearProgram(num_vars=3, objective=[s * 1.0, s * 2.0, s * 3.0],
                           maximize=s < 0)
        lp.add_row([(0, 1.0), (1, 1.0)], EQ, 4.0)
        lp.add_row([(0, 1.0), (2, 2.0)], GE, 6.0)
        lp.add_row([(1, 3.0)], LE, 5.0)
        lp.add_row([(1, 1.0), (2, 1.0)], EQ, 3.0)
        lp.add_row([(2, -1.0)], GE, -6.0)
        handle = solve._highs_handle(lp, np.array(effective_bounds(lp), dtype=float))
        model = handle.highs.getLp()
        A = np.zeros((model.num_row_, model.num_col_))
        start, index, value = (model.a_matrix_.start_, model.a_matrix_.index_,
                               model.a_matrix_.value_)
        for j in range(model.num_col_):
            for k in range(start[j], start[j + 1]):
                A[index[k], j] = value[k]
        np.testing.assert_array_equal(A, [[-1.0, 0.0, -2.0],
                                          [0.0, 3.0, 0.0],
                                          [0.0, 0.0, 1.0],
                                          [1.0, 1.0, 0.0],
                                          [0.0, 1.0, 1.0]])
        assert list(model.row_lower_) == [-math.inf] * 3 + [4.0, 3.0]
        assert list(model.row_upper_) == [-6.0, 5.0, 6.0, 4.0, 3.0]
        assert list(model.col_cost_) == [1.0, 2.0, 3.0]
        assert list(handle.lp_rows) == [1, 2, 4, 0, 3]
        # objective 13 - 2 x1 with x1 = (10 - rhs_1) / 3 while row 1 binds
        result = solve_lp(lp)
        assert result.objective == pytest.approx(s * 31 / 3)
        np.testing.assert_allclose(result.duals, s * np.array([1 / 3, 2 / 3, 0.0, 5 / 3, 0.0]),
                                   atol=1e-9)
        _assert_certified(lp, result)


def test_rows_read_as_a_sequence():
    lp = LinearProgram(num_vars=3, objective=[1.0, 1.0, 1.0])
    assert lp.add_row([(0, 1.0), (2, -2.0)], LE, 4.0) == 0
    assert list(lp.add_rows([0, 1, 3], [1, 0, 2], [3.0, 1.0, 1.0], GE, [1.0, 2.0])) == [1, 2]
    assert lp.add_row([(1, 1)], EQ, 5) == 3
    want = [Row([(0, 1.0), (2, -2.0)], LE, 4.0), Row([(1, 3.0)], GE, 1.0),
            Row([(0, 1.0), (2, 1.0)], GE, 2.0), Row([(1, 1.0)], EQ, 5.0)]
    assert len(lp.rows) == 4
    assert list(lp.rows) == want
    assert [lp.rows[k] for k in range(4)] == want
    assert lp.rows[-1] == want[-1] and lp.rows[1:3] == want[1:3]
    with pytest.raises(IndexError):
        lp.rows[4]
    assert sum(len(row.coeffs) for row in lp.rows) == 6
    # a copy rebuilt row by row, or sharing its rows, takes later rows on its
    # own: the shared Rows object and its arrays stay as they were
    rows, csr = lp.rows, lp.rows.csr()
    for copy in (rebuilt(lp), replace(lp)):
        copy.add_row([(2, 1.0)], LE, 1.0)
        assert len(copy.rows) == 5 and len(lp.rows) == 4
        assert copy.rows[:4] == want and copy.rows is not rows
        assert lp.rows is rows and rows.csr() is csr
    lp.add_row([(0, 1.0)], GE, 0.0)
    assert len(lp.rows) == 5 and lp.rows[4] == Row([(0, 1.0)], GE, 0.0)


@pytest.mark.parametrize("column, value, rhs", [
    (3, 1.0, 0.0), (-1, 1.0, 0.0), (0, math.inf, 0.0), (0, math.nan, 0.0),
    (0, 1.0, math.inf), (0, 1.0, -math.inf), (0, 1.0, math.nan)])
def test_rows_reject_bad_input(column, value, rhs):
    lp = LinearProgram(num_vars=3, objective=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        lp.add_row([(1, 1.0), (column, value)], LE, rhs)
    with pytest.raises(ValueError):
        lp.add_rows([0, 1, 3], [2, 1, column], [1.0, 1.0, value], LE, [0.0, rhs])
    assert len(lp.rows) == 0


@pytest.mark.parametrize("column, value, rhs", [
    (2, 1.0, 1.0), (0, math.nan, 1.0), (0, 1.0, math.inf)])
def test_rows_given_to_the_constructor_are_checked(column, value, rhs):
    # the constructor takes a Rows only; rows reach it through add_rows
    rows = [Row([(0, 1.0), (1, 1.0)], LE, 4.0), Row([(column, value)], LE, rhs)]
    with pytest.raises(TypeError):
        LinearProgram(num_vars=2, objective=[1.0, 1.0], maximize=True, rows=rows)
    lp = LinearProgram(num_vars=2, objective=[1.0, 1.0], maximize=True)
    with pytest.raises(TypeError):
        replace(lp, rows=rows[:1])
    with pytest.raises(ValueError):
        rebuilt(lp, rows)


def test_objective_and_bounds_need_one_entry_per_column():
    lp = LinearProgram(num_vars=3, objective=[1.0, 1.0, 1.0], maximize=True)
    lp.add_row([(0, 1.0), (1, 1.0), (2, 1.0)], LE, 4.0)
    for bad in (replace(lp, bounds=[(0.0, 1.0)]), replace(lp, objective=[1.0]),
                replace(lp, objective=[1.0] * 4)):
        with pytest.raises(ValueError):
            solve_lp(bad)
    # warm: the stage's objective goes to the solved handle
    for objective in ([1.0], [1.0] * 4):
        stage = replace(lp, objective=objective)
        with pytest.raises(ValueError):
            solve_lp(stage, warm=solve_lp(lp))


def test_bounds_must_be_one_pair_of_numbers_per_column():
    for bounds in ([(0.0, 3.0), None], [(0.0, None), (0.0, 1.0)],
                   [(0.0, 1.0)], [(0.0, 1.0, 2.0)] * 2):
        lp = LinearProgram(num_vars=2, objective=[1.0, 1.0], bounds=bounds)
        lp.add_row([(0, 1.0), (1, 1.0)], LE, 4.0)
        with pytest.raises(ValueError, match="bounds must be"):
            solve_lp(lp)
    # the branch-and-bound reads a binary's bounds before any solve
    lp = LinearProgram(num_vars=3, objective=[1.0, 1.0, 1.0], bounds=[(0, 1)])
    lp.add_row([(0, 1.0), (1, 1.0), (2, 1.0)], LE, 4.0)
    with pytest.raises(ValueError, match="bounds must be"):
        solve_milp(MixedIntegerProgram(lp, frozenset({2})))


@pytest.mark.parametrize("binary", [-1, 3])
def test_binaries_out_of_range_are_rejected(binary):
    lp = LinearProgram(num_vars=3, objective=[1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="binary indices out of range"):
        MixedIntegerProgram(lp, frozenset({0, binary}))


def test_milp_without_binaries_solves_the_lp():
    lp = LinearProgram(num_vars=2, objective=[1.0, 2.0], maximize=True)
    lp.add_row([(0, 1.0), (1, 1.0)], LE, 4.0)
    result, want = solve_milp(MixedIntegerProgram(lp)), solve_lp(lp)
    assert result.status == want.status == "optimal"
    assert result.objective == want.objective == pytest.approx(8.0)
    assert result.x.tolist() == want.x.tolist()


def test_rows_reject_malformed_csr_and_senses():
    lp = LinearProgram(num_vars=3, objective=[1.0, 1.0, 1.0])
    for start, index, value, rhs in (([0, 2], [0], [1.0], [0.0]),      # start past the entries
                                     ([1, 2], [0, 1], [1.0, 1.0], [0.0]),
                                     ([0, 2, 1], [0, 1], [1.0, 1.0], [0.0, 0.0]),
                                     ([0, 1], [0], [1.0, 2.0], [0.0]),
                                     ([0, 1], [0], [1.0], [0.0, 1.0]),
                                     ([0, 1], [0], [1.0], 0.0)):
        with pytest.raises(ValueError):
            lp.add_rows(start, index, value, LE, rhs)
    with pytest.raises(ValueError):
        lp.add_row([(0, 1.0)], "<", 1.0)
    with pytest.raises(ValueError):
        lp.add_rows([0, 1], [0], [1.0], "==", [1.0])
    assert len(lp.rows) == 0


def test_a_row_listing_a_column_twice_is_rejected():
    lp = LinearProgram(num_vars=2, objective=[1.0, 1.0], maximize=True)
    lp.add_row([(0, 1.0), (1, 1.0)], LE, 4.0)
    bad = replace(lp)
    bad.add_row([(0, 1.0), (0, 2.0)], LE, 3.0)
    with pytest.raises(ValueError):
        solve_lp(bad)
    first = solve_lp(lp)
    with pytest.raises(ValueError):  # and rows past the solved ones are another model
        solve_lp(bad, warm=first)
    # the rejected rows left the handle as it was, so it still warm-starts
    stage = replace(lp, objective=[1.0, 0.0])
    assert solve_lp(stage, warm=first).objective == pytest.approx(4.0)


def _assert_certified(lp, result, tol=1e-7):
    """``result.x`` is feasible for ``lp``, and ``result.duals`` certify it
    optimal: row duals of the right sign, zero on slack rows, and reduced
    costs of the right sign at each column's bounds."""
    s = 1.0 if lp.maximize else -1.0  # conditions below are for maximizing
    x, y = result.x, s * result.duals
    reduced = s * np.array(lp.objective, dtype=float)
    for k, row in enumerate(lp.rows):
        gap = row.rhs - sum(v * x[j] for j, v in row.coeffs)
        if row.sense == LE:
            assert gap >= -tol and y[k] >= -tol, k
        elif row.sense == GE:
            assert gap <= tol and y[k] <= tol, k
        else:
            assert abs(gap) <= tol, k
        if abs(y[k]) > tol:
            assert abs(gap) <= tol, k
        for j, v in row.coeffs:
            reduced[j] -= y[k] * v
    for j, (lower, upper) in enumerate(effective_bounds(lp)):
        assert lower - tol <= x[j] <= upper + tol
        if x[j] > lower + tol:
            assert reduced[j] >= -tol, j
        if x[j] < upper - tol:
            assert reduced[j] <= tol, j


def _assert_feasible(lp, x, tol=1e-7):
    """``x`` satisfies every row and bound of ``lp``."""
    for k, row in enumerate(lp.rows):
        gap = row.rhs - sum(v * x[j] for j, v in row.coeffs)
        assert {LE: gap >= -tol, GE: gap <= tol, EQ: abs(gap) <= tol}[row.sense], k
    for j, (lower, upper) in enumerate(effective_bounds(lp)):
        assert lower - tol <= x[j] <= upper + tol, j


def test_warm_solve_matches_cold():
    # each stage swaps the objective and re-solves warm over the optimal face
    # of the stage before, as the revenue tie-break does; the reference is a
    # cold solve of the LP with an exact pin row on each objective before.
    # Objectives that leave half their columns out give faces wider than a
    # vertex, some of them unbounded.
    rng = random.Random(23)
    statuses, moved = [], 0
    for _ in range(200):
        lp = _random_lp(rng)
        lp.objective = [rng.choice([0.0, v]) for v in lp.objective]
        result = cold = solve_lp(lp)
        pinned = rebuilt(lp)
        for _ in range(2):
            if result.status != "optimal":
                break
            pinned.add_row(list(enumerate(pinned.objective)), EQ, cold.objective)
            objective = [rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(lp.num_vars)]
            pinned = replace(pinned, objective=objective)
            cold = solve_lp(pinned)
            before = result.x
            result = solve_lp(replace(lp, objective=objective), warm=result)
            assert result.status == cold.status
            statuses.append(cold.status)
            if cold.status == "optimal":
                assert result.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
                assert len(result.duals) == len(lp.rows)
                _assert_feasible(pinned, result.x)
                _assert_certified(pinned, cold)
                moved += not np.allclose(result.x, before)
    assert statuses.count("optimal") >= 100 and moved >= 10
    assert set(statuses) == {"optimal", "unbounded"}  # a face is never empty


def test_warm_solve_rejects_another_model():
    lp = LinearProgram(num_vars=2, objective=[1.0, 1.0], maximize=True)
    lp.add_row([(0, 1.0), (1, 2.0)], LE, 4.0)
    lp.add_row([(0, 3.0), (1, 1.0)], LE, 6.0)
    other_rows = rebuilt(lp, lp.rows[1:])
    other_cols = rebuilt(lp, num_vars=3, objective=[1.0, 1.0, 1.0])
    other_sense = rebuilt(lp, maximize=False)
    for other in (other_rows, other_cols, other_sense):
        with pytest.raises(ValueError):
            solve_lp(other, warm=solve_lp(lp))
    # the same rows rebuilt, not the solved Rows itself, are another model
    with pytest.raises(ValueError):
        solve_lp(rebuilt(lp, objective=[1.0, 0.0]), warm=solve_lp(lp))
    # so are rows appended after the solve, to another LP or to the solved one
    first = solve_lp(lp)
    pinned = replace(lp, objective=[1.0, 0.0])
    pinned.add_row([(0, 1.0), (1, 1.0)], EQ, first.objective)
    with pytest.raises(ValueError):
        solve_lp(pinned, warm=first)
    grown = replace(lp)
    solved = solve_lp(grown)
    grown.add_row([(0, 1.0)], LE, 1.0)
    with pytest.raises(ValueError):
        solve_lp(grown, warm=solved)
    # the face of the optimum (1.6, 1.2) is that point: x0 stays below its 2.0
    stage = replace(lp, objective=[1.0, 0.0])
    assert solve_lp(stage, warm=first).objective == pytest.approx(1.6)
    with pytest.raises(ValueError):  # its handle went to the solve above
        solve_lp(stage, warm=first)
    infeasible = LinearProgram(num_vars=1, objective=[1.0])
    infeasible.add_row([(0, 1.0)], LE, -1.0)
    with pytest.raises(ValueError):
        solve_lp(infeasible, warm=solve_lp(infeasible))


def _warm_chain(rng):
    """Solve a random LP and two warm stages after it, dropping every result."""
    result = None
    while result is None or result.status != "optimal":
        lp = _random_lp(rng)
        result = solve_lp(lp)
    for _ in range(2):
        objective = [rng.uniform(-3, 3) for _ in range(lp.num_vars)]
        result = solve_lp(replace(lp, objective=objective), warm=result)
        if result.status != "optimal":
            break


def _infeasible_solve():
    lp = LinearProgram(num_vars=2, objective=[1.0, 1.0])
    lp.add_row([(0, 1.0), (1, 1.0)], GE, 3.0)
    lp.add_row([(0, 1.0)], LE, 1.0)
    lp.add_row([(1, 1.0)], LE, 1.0)
    assert solve_lp(lp).status == "infeasible"


def test_a_reused_instance_solves_like_a_fresh_one(monkeypatch):
    # a dropped handle leaves its instance in the idle slot; the next handle
    # clears its model and must solve as on a new instance, bit for bit
    rng = random.Random(31)
    chained = 0
    for _ in range(50):
        lp = _random_lp(rng)
        monkeypatch.setattr(solve, "_IDLE", [])
        fresh = solve_lp(lp)
        for leave in (lambda: _warm_chain(rng), _infeasible_solve):
            reused = None  # its handle goes to the slot before this one
            slot = []
            monkeypatch.setattr(solve, "_IDLE", slot)
            leave()
            [used] = slot
            chained += used.getOptionValue("simplex_strategy")[1] == 4
            reused = solve_lp(lp)
            assert reused.status == fresh.status
            if fresh.status != "optimal":
                assert slot == [used]
                continue
            assert reused.handle.highs is used and slot == []
            assert reused.objective == fresh.objective
            assert reused.x.tobytes() == fresh.x.tobytes()
            assert reused.duals.tobytes() == fresh.duals.tobytes()
    assert chained >= 40  # the warm stages left the primal simplex set


def test_the_idle_slot_holds_one_instance(monkeypatch):
    slot = []
    monkeypatch.setattr(solve, "_IDLE", slot)
    lp = LinearProgram(num_vars=2, objective=[1.0, 1.0], maximize=True)
    lp.add_row([(0, 1.0), (1, 2.0)], LE, 4.0)
    results = [solve_lp(lp) for _ in range(4)]
    assert slot == []  # each result holds its handle
    instances = {id(result.handle.highs) for result in results}
    assert len(instances) == 4
    del results
    assert len(slot) == 1
    mip, *_ = _random_fixed_charge(3)
    assert solve_milp(mip).status == "optimal"
    assert len(slot) == 1
    # a warm stage takes the handle of its result, and a taken handle is held
    first = solve_lp(lp)
    assert slot == []
    second = solve_lp(replace(lp, objective=[1.0, 0.0]), warm=first)
    assert first.handle is None and second.handle is not None and slot == []
    del first, second
    assert len(slot) == 1


def test_exit_while_holding_results_is_silent():
    # handles dropped while the interpreter tears its modules down must not
    # reach for the idle slot's module global
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(maas_market.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("from maas_market import LinearProgram, fig5, solve_lp, solve_matching\n"
            "lp = LinearProgram(num_vars=1, objective=[1.0], maximize=True)\n"
            "lp.add_row([(0, 1.0)], '<=', 5.0)\n"
            "held = [solve_lp(lp), solve_lp(lp)]\n"
            "held.append(held)  # a cycle, freed by the collector at exit\n"
            "matching = solve_matching(*fig5())\n"
            "print(held[0].objective)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stdout == "5.0\n"
    assert proc.stderr == ""


def test_strong_duality_and_slackness():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        lp = LinearProgram(num_vars=n,
                           objective=[rng.uniform(0.5, 3) for _ in range(n)],
                           maximize=True)
        rows = []
        for _ in range(rng.randint(2, 5)):
            coeffs = [(j, rng.uniform(0.1, 2)) for j in range(n)]
            rows.append((lp.add_row(coeffs, LE, rng.uniform(1, 10)), coeffs))
        result = solve_lp(lp)
        assert result.status == "optimal"
        dual_obj = sum(result.duals[r] * lp.rows[r].rhs for r, _ in rows)
        assert dual_obj == pytest.approx(result.objective,
                                         rel=1e-6, abs=1e-6)
        for r, coeffs in rows:
            if result.duals[r] > 1e-6:
                lhs = sum(v * result.x[j] for j, v in coeffs)
                assert abs(lhs - lp.rows[r].rhs) <= 1e-6


def test_knapsack():
    lp = LinearProgram(num_vars=2, objective=[3.0, 2.0], maximize=True)
    lp.add_row([(0, 1.0), (1, 1.0)], LE, 1.0)
    mip = MixedIntegerProgram(lp=lp, binary_vars=frozenset({0, 1}))
    result = solve_milp(mip)
    assert result.objective == pytest.approx(3.0)
    assert result.x[0] == pytest.approx(1.0)


def _random_fixed_charge(seed):
    """Tiny fixed-charge model: route demand on arcs with activation costs."""
    rng = random.Random(seed)
    n_bin = rng.randint(2, 6)
    lp = LinearProgram(num_vars=2 * n_bin, objective=[0.0] * (2 * n_bin))
    caps = []
    for k in range(n_bin):
        lp.objective[k] = rng.uniform(0.5, 4)            # flow cost
        lp.objective[n_bin + k] = rng.uniform(1, 20)     # activation cost
        cap = rng.uniform(2, 8)
        caps.append(cap)
        lp.add_row([(k, 1.0), (n_bin + k, -cap)], LE, 0.0)
    demand = rng.uniform(1, sum(caps) * 0.8)
    lp.add_row([(k, 1.0) for k in range(n_bin)], EQ, demand)
    return MixedIntegerProgram(
        lp=lp, binary_vars=frozenset(range(n_bin, 2 * n_bin))), n_bin, caps, demand


def _brute_force(mip, n_bin, caps, demand):
    """The optimum by enumeration, and the first activation pattern reaching it."""
    best, best_pattern = math.inf, None
    lp = mip.lp
    for pattern in itertools.product((0, 1), repeat=n_bin):
        cap = sum(c for c, y in zip(caps, pattern) if y)
        if cap < demand - 1e-9:
            continue
        # greedy fill cheapest active arcs
        order = sorted((lp.objective[k], k) for k in range(n_bin) if pattern[k])
        left, cost = demand, 0.0
        for c, k in order:
            take = min(left, caps[k])
            cost += c * take
            left -= take
        cost += sum(lp.objective[n_bin + k] * pattern[k] for k in range(n_bin))
        if cost < best:
            best, best_pattern = cost, pattern
    return best, best_pattern


def test_fixed_charge_matches_enumeration():
    for seed in range(15):
        mip, n_bin, caps, demand = _random_fixed_charge(seed)
        result = solve_milp(mip)
        assert result.status == "optimal"
        expected, _ = _brute_force(mip, n_bin, caps, demand)
        assert result.objective == pytest.approx(expected, abs=1e-6)


def _root_relaxation(mip):
    """The root LP of ``mip``: its binaries relaxed to [0, 1]."""
    bounds = effective_bounds(mip.lp)
    for i in mip.binary_vars:
        bounds[i] = (max(bounds[i][0], 0.0), min(bounds[i][1], 1.0))
    return replace(mip.lp, bounds=bounds)


def test_root_fixings_of_an_optimum_keep_the_optimum():
    fixed = 0
    for seed in range(15):
        mip, n_bin, caps, demand = _random_fixed_charge(seed)
        expected, pattern = _brute_force(mip, n_bin, caps, demand)
        root = solve_lp(_root_relaxation(mip))
        calls = []

        def open_in_optimum(x, duals):
            # the hook sees the root LP's columns and duals as solve_lp gives them
            np.testing.assert_array_equal(x, root.x)
            np.testing.assert_array_equal(duals, root.duals)
            calls.append(x)
            return {n_bin + k: 1 for k in range(n_bin) if pattern[k]}

        result = solve_milp(mip, root_fixings=open_in_optimum)
        assert result.objective == pytest.approx(expected, abs=1e-6), seed
        fractional = any(abs(root.x[i] - round(root.x[i])) > 1e-9
                         for i in mip.binary_vars)
        assert len(calls) == int(fractional), seed
        fixed += len(calls)
        # the fixings hold at every node, so fixing every binary opens them all
        opened = solve_milp(mip, root_fixings=lambda x, duals: dict.fromkeys(
            mip.binary_vars, 1))
        assert opened.objective >= expected - 1e-6
        if fractional:
            assert all(opened.x[i] == 1 for i in mip.binary_vars), seed
    assert fixed >= 5  # the hook ran on most seeds


def test_root_fixings_skipped_at_an_integral_or_infeasible_root():
    def never(x, duals):
        raise AssertionError("root_fixings called")

    integral = LinearProgram(num_vars=2, objective=[3.0, 2.0], maximize=True)
    integral.add_row([(0, 1.0), (1, 1.0)], LE, 1.0)
    result = solve_milp(MixedIntegerProgram(lp=integral, binary_vars=frozenset({0, 1})),
                        root_fixings=never)
    assert result.objective == pytest.approx(3.0)
    infeasible = LinearProgram(num_vars=1, objective=[1.0])
    infeasible.add_row([(0, 1.0)], GE, 1.5)
    result = solve_milp(MixedIntegerProgram(lp=infeasible, binary_vars=frozenset({0})),
                        root_fixings=never)
    assert result.status == "infeasible"


def test_bundled_node_cap(monkeypatch):
    mip, *_ = _random_fixed_charge(3)
    monkeypatch.setattr(solve, "NODE_LIMIT", 1)
    with pytest.raises(ResourceLimitExceeded):
        solve_milp(mip)


def test_bundled_passes_one_highs_model(monkeypatch):
    models = []

    class Counted(solve._Highs):
        def passModel(self, *model):
            models.append(model)
            return super().passModel(*model)

    monkeypatch.setattr(solve, "_Highs", Counted)
    monkeypatch.setattr(solve, "_IDLE", [])
    mip, n_bin, caps, demand = _random_fixed_charge(3)
    expected, pattern = _brute_force(mip, n_bin, caps, demand)
    result = solve_milp(mip)
    assert result.objective == pytest.approx(expected, abs=1e-6)
    assert len(models) == 1
    # the root re-solve after fixing stays on the same handle
    calls = []

    def open_in_optimum(x, duals):
        calls.append(x)
        return {n_bin + k: 1 for k in range(n_bin) if pattern[k]}

    result = solve_milp(mip, root_fixings=open_in_optimum)
    assert result.objective == pytest.approx(expected, abs=1e-6)
    assert len(calls) == 1 and len(models) == 2


def test_milp_infeasible_status():
    # an infeasible relaxation, then a feasible one with no integral point
    for low, high in ((0.5, 0.4), (0.4, 0.6)):
        lp = LinearProgram(num_vars=1, objective=[1.0])
        lp.add_row([(0, 1.0)], GE, low)
        lp.add_row([(0, 1.0)], LE, high)
        mip = MixedIntegerProgram(lp=lp, binary_vars=frozenset({0}))
        assert solve_milp(mip).status == "infeasible"


def test_instance_3313_solves_in_a_fresh_process():
    # at 1e-10 feasibility tolerances HiGHS corrupted the heap on this
    # instance and aborted the process, so it runs apart from pytest
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(maas_market.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("from maas_market import solve_matching\n"
            "from maas_market.randnet import random_instance\n"
            "print(solve_matching(*random_instance(3313)).objective)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(318.074, abs=1e-3)
