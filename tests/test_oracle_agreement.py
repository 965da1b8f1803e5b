"""Algorithm 1 against the enumeration oracle, by vertices and by rows.

``grid(seed)`` draws integer costs on a 4 x 4 grid, so omega ties are
common, and ties are where Algorithm 1 misses rows: it writes no row for a
subcoalition whose cheapest avoiding path is omega-tied with the optimum,
where the oracle still writes one from the cheapest non-tied path.  The
seeds where that shows today carry strict xfail marks naming today's
figures.  Grid seed 17 stops with a tolerance error and seed 23 has
infeasible demand, so both are left out.
"""

import functools

import pytest

from conftest import grid, pipeline_artifacts, undominated_rows
from maas_market import (ObjectivePolicy, build_outcome_lp,
                         generate_constraints_enumeration, solve_outcome)
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL

GRID_SEEDS = [s for s in range(50) if s not in (17, 23)] + [153, 187, 673, 771, 844, 977]


def _grid_seeds(misses):
    """``GRID_SEEDS``, each seed of ``misses`` with a strict xfail naming its figures."""
    return [pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=(
                "Algorithm 1 writes no row for a subcoalition whose cheapest "
                "avoiding path is omega-tied with the optimum: " + misses[seed])))
            if seed in misses else seed for seed in GRID_SEEDS]


@pytest.fixture(scope="module")
def grid_systems():
    """``seed -> (Algorithm 1's system, the oracle's)`` on ``grid(seed)``,
    each built once."""

    @functools.cache
    def systems(seed):
        network, demand = grid(seed)
        matching, _, decomposition, system = pipeline_artifacts(network, demand)
        return system, generate_constraints_enumeration(network, demand, matching,
                                                        decomposition)
    return systems


def _vertex(system, mode):
    outcome = solve_outcome(build_outcome_lp(system, ObjectivePolicy(global_mode=mode)))
    return (outcome.status, outcome.objective,
            {f: m.revenue for f, m in outcome.operators.items()})


@pytest.mark.parametrize("seed", _grid_seeds({
    18: "seller revenues {1: 546, 2: 515, 3: 161} against {1: 497, 2: 515, 3: 210}",
    33: "seller revenues {1: 1072, 2: 592, 3: 70} against {1: 682, 2: 982, 3: 70}",
    153: "seller vertex 1,843 against 1,777",
    187: "seller vertex 1,751 against 1,487",
    673: "seller vertex 1,440 against 1,344",
    771: "buyer vertex 71.5 and seller vertex 2,706 where the oracle's core is empty",
    844: "buyer vertex 54.4048 against 54.3655",
    977: "seller vertex 1,717 against 1,643",
}))
def test_grid_vertices_match_the_oracle(grid_systems, seed):
    system, oracle = grid_systems(seed)
    for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
        (status, objective, revenues), want = _vertex(system, mode), _vertex(oracle, mode)
        assert status == want[0], mode
        if status == "optimal":
            assert objective == pytest.approx(want[1], rel=1e-6), mode
            assert revenues == pytest.approx(want[2], rel=1e-6, abs=1e-6), mode


@pytest.mark.parametrize("seed", _grid_seeds({
    seed: f"{count} oracle row{'s' * (count > 1)} with bound > 0 implied by no "
          f"single Algorithm 1 row or surplus equality"
    for seed, count in {8: 1, 12: 1, 18: 1, 25: 1, 33: 2, 46: 1, 153: 1, 187: 2,
                        673: 7, 771: 1, 844: 1, 977: 2}.items()}))
def test_grid_oracle_rows_are_implied(grid_systems, seed):
    assert undominated_rows(*grid_systems(seed)) == []


def test_oracle_rows_are_implied(reference_instances):
    # fig5, then random_instance(0..49)
    for network, demand, matching, decomposition, system in (
            reference_instances[:1] + reference_instances[2:52]):
        oracle = generate_constraints_enumeration(network, demand, matching,
                                                  decomposition)
        assert undominated_rows(system, oracle) == []
