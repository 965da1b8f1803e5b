import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import maas_market
from maas_market import (LinearProgram, MixedIntegerProgram, solve, solve_lp,
                         solve_milp)
from maas_market.errors import ResourceLimitExceeded
from maas_market.solve import EQ, GE, LE, resolve_engine


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


@pytest.mark.parametrize("engine", ["bundled", "external"])
def test_knapsack(engine):
    lp = LinearProgram(num_vars=2, objective=[3.0, 2.0], maximize=True)
    lp.add_row([(0, 1.0), (1, 1.0)], LE, 1.0)
    mip = MixedIntegerProgram(lp=lp, binary_vars=frozenset({0, 1}))
    result = solve_milp(mip, engine=engine)
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
    best = math.inf
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
        best = min(best, cost)
    return best


@pytest.mark.parametrize("engine", ["bundled", "external"])
def test_fixed_charge_matches_enumeration(engine):
    for seed in range(15):
        mip, n_bin, caps, demand = _random_fixed_charge(seed)
        result = solve_milp(mip, engine=engine)
        assert result.status == "optimal"
        expected = _brute_force(mip, n_bin, caps, demand)
        assert result.objective == pytest.approx(expected, abs=1e-6)


def test_bundled_node_cap(monkeypatch):
    mip, *_ = _random_fixed_charge(3)
    monkeypatch.setattr(solve, "NODE_LIMIT", 1)
    with pytest.raises(ResourceLimitExceeded):
        solve_milp(mip, engine="bundled")


def test_bundled_converts_its_model_once(monkeypatch):
    calls = []
    to_scipy = solve._to_scipy

    def counted(lp):
        calls.append(lp)
        return to_scipy(lp)

    monkeypatch.setattr(solve, "_to_scipy", counted)
    mip, n_bin, caps, demand = _random_fixed_charge(3)
    result = solve_milp(mip, engine="bundled")
    assert result.objective == pytest.approx(_brute_force(mip, n_bin, caps, demand),
                                             abs=1e-6)
    assert len(calls) == 1


def test_engine_resolution(monkeypatch):
    assert resolve_engine(None) == "bundled"
    assert resolve_engine("external") == "external"
    monkeypatch.setenv("MAAS_MARKET_ENGINE", "external")
    assert resolve_engine(None) == "external"
    assert resolve_engine("bundled") == "bundled"
    with pytest.raises(ValueError):
        resolve_engine("simplex")


def test_milp_infeasible_status():
    lp = LinearProgram(num_vars=1, objective=[1.0])
    lp.add_row([(0, 1.0)], GE, 0.5)
    lp.add_row([(0, 1.0)], LE, 0.4)
    mip = MixedIntegerProgram(lp=lp, binary_vars=frozenset({0}))
    assert solve_milp(mip, engine="bundled").status == "infeasible"
    assert solve_milp(mip, engine="external").status == "infeasible"


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
