"""The matching's models against each other: the bundled branch-and-bound
against HiGHS's own MILP solver, the origin-aggregated flow LP against the
literal per-commodity model, the Lagrangian bound against the LP relaxation,
and the flow LP's size on Sioux Falls."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from maas_market import (build_mcnd, build_sioux_falls, fig5, solve,
                         solve_lp, solve_matching, solve_milp)
from maas_market.matching import (_build_origin_aggregated, _flow_model,
                                  _lagrangian_bound, _linking, _origin_balances,
                                  _root_fixings, flow_lp)
from maas_market.randnet import random_instance
from maas_market.scenario import Scenario, SetCapacity, apply_scenario
from maas_market.solve import GE, LE
from conftest import effective_bounds

INSTANCES = [("fig5", *fig5())] + [(f"seed {s}", *random_instance(s)) for s in range(50)]


def _sioux_falls(cut=False):
    """Sioux Falls (10/3), with every service link at 0.6x capacity if ``cut``."""
    network, demand = build_sioux_falls(transfer_cost=2.0, utility=40.0,
                                        capacity_scale=10 / 3)
    if cut:
        network, demand, _ = apply_scenario(network, demand, Scenario(edits=tuple(
            SetCapacity(arc=link.arc, capacity=link.capacity * 0.6)
            for link in network.links if link.owner != 0)))
    return network, demand


def _activations_unique(network, demand, activations, objective):
    """True when every other activation vector costs more than ``objective``:
    the matching MILP with a no-good row against ``activations`` is
    infeasible or has a worse optimum."""
    mip = _build_origin_aggregated(network, demand)
    y_offset = mip.lp.num_vars - len(network.links)
    on = [activations[link.arc] for link in network.links]
    coeffs = [(y_offset + k, -1.0 if y else 1.0) for k, y in enumerate(on)]
    mip.lp.add_row(coeffs, GE, 1.0 - sum(on))
    other = solve_milp(mip)
    return other.status == "infeasible" or \
        other.objective > objective + 1e-6 * max(1.0, abs(objective))


def _scipy_milp(mip):
    """``mip`` solved by HiGHS's branch-and-cut through ``scipy.optimize.milp``
    at a relative gap of zero: (objective, x)."""
    lp = mip.lp
    sign = -1.0 if lp.maximize else 1.0
    entries = [(r, j, v) for r, row in enumerate(lp.rows) for j, v in row.coeffs]
    rows, cols, vals = zip(*entries)
    A = sp.csr_array((vals, (rows, cols)), shape=(len(lp.rows), lp.num_vars))
    lower = [row.rhs if row.sense != LE else -np.inf for row in lp.rows]
    upper = [row.rhs if row.sense != GE else np.inf for row in lp.rows]
    binaries = sorted(mip.binary_vars)
    bounds = np.array(effective_bounds(lp), dtype=float)
    bounds[binaries] = np.clip(bounds[binaries], 0.0, 1.0)
    integrality = np.zeros(lp.num_vars)
    integrality[binaries] = 1
    res = milp(sign * np.array(lp.objective), integrality=integrality,
               bounds=Bounds(bounds[:, 0], bounds[:, 1]),
               constraints=LinearConstraint(A, lower, upper),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return sign * res.fun, res.x


def test_matching_matches_scipy_milp():
    unique = 0
    for label, network, demand in INSTANCES:
        matching = solve_matching(network, demand)
        objective, x = _scipy_milp(_build_origin_aggregated(network, demand))
        assert objective == pytest.approx(matching.objective, rel=1e-6), label
        if _activations_unique(network, demand, matching.activations, matching.objective):
            unique += 1
            y_offset = len(x) - len(network.links)
            activations = {link.arc: int(round(x[y_offset + k]))
                           for k, link in enumerate(network.links)}
            assert activations == matching.activations, label
    assert unique >= len(INSTANCES) // 2  # the activation check is not vacuous


def test_flow_lp_agrees_with_literal_model():
    for label, network, demand in INSTANCES:
        matching = solve_matching(network, demand)
        mu = matching.duals
        # the literal per-OD model, activations fixed through their bounds
        lp = build_mcnd(network, demand).lp
        num_links = len(network.links)
        bounds = effective_bounds(lp)
        for k, link in enumerate(network.links):
            y = float(matching.activations[link.arc])
            bounds[lp.num_vars - num_links + k] = (y, y)
        oracle = solve_lp(replace(lp, bounds=bounds))
        assert oracle.status == "optimal", label
        assert matching.objective == pytest.approx(oracle.objective, rel=1e-7), label
        capacity_rows = range(len(lp.rows) - num_links, len(lp.rows))
        for link, row in zip(network.links, capacity_rows):
            want = max(0.0, -oracle.duals[row]) if matching.activations[link.arc] else 0.0
            assert mu[link.arc] == pytest.approx(want, abs=1e-6), (label, link.arc)
        for entry in demand.entries:
            balance = {}
            for (tail, head), value in matching.flows[entry.od].items():
                assert matching.activations[(tail, head)] == 1, label
                balance[tail] = balance.get(tail, 0.0) + value
                balance[head] = balance.get(head, 0.0) - value
            for node in network.nodes:
                expected = (entry.demand if node == entry.origin else
                            -entry.demand if node == entry.destination else 0.0)
                assert balance.get(node, 0.0) == pytest.approx(expected, abs=1e-6), \
                    (label, entry.od, node)


def test_sioux_falls_flow_lp_size():
    network, demand = build_sioux_falls(transfer_cost=2.0, utility=40.0,
                                        capacity_scale=10 / 3)
    lp, links, origins, capacity_rows = flow_lp(
        network, demand, {link.arc: 1 for link in network.links})
    assert (len(origins), len(links), len(network.nodes)) == (24, 98, 35)
    assert lp.num_vars == 24 * 98  # 2,352; one block per OD would be 528 * 98
    assert len(lp.rows) == 24 * 35 + 98
    assert capacity_rows == list(range(24 * 35, 24 * 35 + 98))


def test_milp_leaves_out_one_implied_row_per_origin():
    # each origin block's balance rows sum to zero, so the MILP drops the
    # largest node's row of every block; the flow LP keeps every row
    for label, network, demand in INSTANCES + [("sioux-falls", *_sioux_falls())]:
        origins, balances = _origin_balances(demand)
        blocks, nodes, links = len(origins), len(network.nodes), len(network.links)
        milp_rows = _build_origin_aggregated(network, demand).lp.rows
        assert len(milp_rows) == blocks * (nodes - 1) + links, label
        lp, *_ = flow_lp(network, demand, {link.arc: 1 for link in network.links})
        assert len(lp.rows) == blocks * nodes + links, label
        full, _ = _flow_model(network, network.links, balances,
                              linking=_linking(network, demand))
        assert list(milp_rows) == [row for k, row in enumerate(full.rows)
                                   if k >= blocks * nodes or k % nodes != nodes - 1], label


def _root(mip):
    """The solved root relaxation of ``mip``: its binaries in [0, 1]."""
    bounds = effective_bounds(mip.lp)
    for i in mip.binary_vars:
        bounds[i] = (0.0, 1.0)
    return solve_lp(replace(mip.lp, bounds=bounds))


def _closed(root, column):
    """The optimum of ``root``'s relaxation with ``column`` held at 0, or
    None if infeasible: re-solved on ``root``'s handle, then restored."""
    highs = root.handle.highs
    cols = np.array([column], dtype=np.int32)
    highs.changeColsBounds(1, cols, np.zeros(1), np.zeros(1))
    value = (highs.getInfo().objective_function_value
             if solve._run(highs) == "optimal" else None)
    highs.changeColsBounds(1, cols, np.zeros(1), np.ones(1))
    return value


def test_lagrangian_bound_and_root_fixings():
    fixed = {}
    for label, network, demand in (INSTANCES + [("sioux falls", *_sioux_falls()),
                                                ("sioux falls cut", *_sioux_falls(cut=True))]):
        mip = _build_origin_aggregated(network, demand)
        root = _root(mip)
        num_links = len(network.links)
        y_offset = mip.lp.num_vars - num_links
        lam = np.maximum(0.0, -root.duals[len(mip.lp.rows) - num_links:])
        bound = _lagrangian_bound(network, *_origin_balances(demand),
                                  _linking(network, demand), lam)
        # at the root duals the bound is the LP bound
        assert bound() == pytest.approx(root.objective, rel=1e-9, abs=1e-9), label
        fixings = _root_fixings(network, demand, mip.lp)(root.x, root.duals)
        fixed[label] = len(fixings)
        if not fixings:
            continue
        _, x = _scipy_milp(mip)
        for column, value in fixings.items():
            assert value == 1 and x[column] == pytest.approx(1.0), (label, column)
            # closing the link costs the LP at least the Lagrangian bound
            closed = _closed(root, column)
            if closed is not None:
                j = column - y_offset
                assert bound(j) <= closed * (1 + 1e-9) + 1e-9, (label, j)
    assert (fixed["sioux falls"], fixed["sioux falls cut"]) == (74, 50)
    assert sum(n > 0 for n in fixed.values()) >= 10  # fixing happens off Sioux Falls too


@pytest.mark.parametrize("cut", [False, True])
def test_sioux_falls_branch_and_bound_lp_count(monkeypatch, cut):
    network, demand = _sioux_falls(cut)
    mip = _build_origin_aggregated(network, demand)
    runs = []
    run = solve._run

    def counted(highs):
        runs.append(highs)
        return run(highs)

    monkeypatch.setattr(solve, "_run", counted)
    solve_milp(mip, root_fixings=_root_fixings(network, demand, mip.lp))
    # the root and its re-solve with the fixed links, then the search:
    # 149 LPs on the base and 111 on the cut without the fixing
    assert len(runs) == 2 if not cut else len(runs) <= 12
