import pytest

from maas_market import (build_sioux_falls, decompose_flows, fig5,
                         generate_constraints_algorithm1, solve_matching)
from maas_market.randnet import random_instance


def pipeline_artifacts(network, demand, subsidies=None):
    """Matching, duals, decomposition, and lexicographic constraint system."""
    matching = solve_matching(network, demand)
    decomposition = decompose_flows(network, demand, matching)
    system = generate_constraints_algorithm1(network, demand, matching,
                                             decomposition, subsidies=subsidies)
    return matching, matching.duals, decomposition, system


@pytest.fixture(scope="session")
def fig5_instance():
    return fig5()


@pytest.fixture(scope="session")
def fig5_pipeline(fig5_instance):
    network, demand = fig5_instance
    return pipeline_artifacts(network, demand)


@pytest.fixture(scope="session")
def reference_instances():
    """fig5, Sioux Falls (10/3, transfer cost 2) and random_instance(0..199),
    each as (network, demand, matching, decomposition, system)."""
    instances = [fig5(), build_sioux_falls(transfer_cost=2.0,
                                           capacity_scale=10 / 3)]
    instances += [random_instance(seed) for seed in range(200)]
    out = []
    for network, demand in instances:
        matching, _, decomposition, system = pipeline_artifacts(network, demand)
        out.append((network, demand, matching, decomposition, system))
    return out
