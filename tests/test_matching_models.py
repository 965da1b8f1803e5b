"""The matching's models against each other: both MILP engines, the
origin-aggregated flow LP against the literal per-commodity model, and the
flow LP's size on Sioux Falls."""

from dataclasses import replace

import pytest

from maas_market import (build_mcnd, build_sioux_falls, extract_duals, fig5,
                         solve_lp, solve_matching, solve_milp)
from maas_market.matching import _build_origin_aggregated, flow_lp
from maas_market.randnet import random_instance
from maas_market.solve import GE

INSTANCES = [("fig5", *fig5())] + [(f"seed {s}", *random_instance(s)) for s in range(50)]


def _activations_unique(network, demand, activations, objective):
    """True when every other activation vector costs more than ``objective``:
    the matching MILP with a no-good row against ``activations`` is
    infeasible or has a worse optimum."""
    mip = _build_origin_aggregated(network, demand)
    y_offset = mip.lp.num_vars - len(network.links)
    on = [activations[link.arc] for link in network.links]
    coeffs = [(y_offset + k, -1.0 if y else 1.0) for k, y in enumerate(on)]
    mip.lp.add_row(coeffs, GE, 1.0 - sum(on))
    other = solve_milp(mip, engine="bundled")
    return other.status == "infeasible" or \
        other.objective > objective + 1e-6 * max(1.0, abs(objective))


def test_engines_agree():
    unique = 0
    for label, network, demand in INSTANCES:
        bundled = solve_matching(network, demand, engine="bundled")
        external = solve_matching(network, demand, engine="external")
        assert external.objective == pytest.approx(bundled.objective, rel=1e-6), label
        if _activations_unique(network, demand, bundled.activations, bundled.objective):
            unique += 1
            assert external.activations == bundled.activations, label
    assert unique >= len(INSTANCES) // 2  # the activation check is not vacuous


def test_flow_lp_agrees_with_literal_model():
    for label, network, demand in INSTANCES:
        matching = solve_matching(network, demand)
        mu = extract_duals(network, demand, matching.activations)
        # the literal per-OD model, activations fixed through their bounds
        lp = build_mcnd(network, demand).lp
        num_links = len(network.links)
        bounds = lp.effective_bounds()
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
