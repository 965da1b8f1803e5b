"""Answer ledger: one SHA-1 per reference instance over its exact answers.

Each digest covers the ``repr`` of the matching objective, activations, path
flows and duals, the constraint system's ``render_text()`` and the ``report()``
of the instance's vertices, so a change that moves any answer in its last bit
moves a digest.  The instances are fig5, Sioux Falls (10/3) with and without
every service link cut to 0.6x capacity, ``random_instance(0..299)``, the
enumeration oracle on fig5 and ``random_instance(0..39)``, and the Sioux Falls
network with its bus layer split among six firms: its base equilibrium, seller
and rail-acquisition vertices, and ten merge, fare and subsidy scenarios
generated in order on the base matching, each with its seller vertex.

A change that means to move answers rewrites the ledger with

    PYTHONPATH=src python tests/test_answers.py

and names the moved labels, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from conftest import pipeline_artifacts
from maas_market import (Link, MaasMarketError, ObjectivePolicy, OutcomeOptions,
                         Scenario, apply_scenario, build_outcome_lp,
                         build_sioux_falls, fig5, generate_constraints_algorithm1,
                         generate_constraints_enumeration, report, solve_outcome)
from maas_market.fixtures import BUS_OPERATOR, RAIL_OPERATOR
from maas_market.outcomes import (BUYER_OPTIMAL, REVENUE_MAX, SELLER_OPTIMAL,
                                  WELFARE_MAX)
from maas_market.randnet import random_instance
from maas_market.scenario import (MergeOperators, SetCapacity, SetFixedFare,
                                  SetObjectivePolicy, Subsidy)

LEDGER = Path(__file__).resolve().parent / "data" / "answers.json"
RANDOM_SEEDS = range(300)
ORACLE_SEEDS = range(40)
BUYER = ObjectivePolicy(global_mode=BUYER_OPTIMAL)
SELLER = ObjectivePolicy(global_mode=SELLER_OPTIMAL)
SPLIT_FIRMS = tuple(range(11, 17))  # one bus firm per block of four road nodes


def _sha1(parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def _matching_answers(matching):
    return [matching.objective, sorted(matching.activations.items()),
            [(path.group, path.nodes, z) for path, z in matching.path_flows],
            sorted(matching.duals.items())]


def _vertex(network, matching, system, policy, options=OutcomeOptions()):
    """The vertex's ``report()``, or the error it raised."""
    try:
        outcome = solve_outcome(build_outcome_lp(system, policy, options),
                                matching=matching, network=network)
    except MaasMarketError as exc:
        return (type(exc).__name__, str(exc))
    return report(outcome, matching)


def _instance_digest(network, matching, system):
    return _sha1(_matching_answers(matching) + [
        system.render_text(),
        _vertex(network, matching, system, BUYER),
        _vertex(network, matching, system, SELLER)])


def _sioux_falls():
    return build_sioux_falls(transfer_cost=2.0, capacity_scale=10 / 3)


def _sioux_falls_cut():
    network, demand = _sioux_falls()
    cut = Scenario(edits=tuple(
        SetCapacity(arc=link.arc, capacity=link.capacity * 0.6)
        for link in network.links if link.owner != 0))
    network, demand, _ = apply_scenario(network, demand, cut)
    return network, demand


def split_network():
    """Sioux Falls (10/3, transfer cost 2) with each bus link given to firm
    ``11 + (tail - 1) // 4``; rail stays operator 2."""
    network, demand = _sioux_falls()
    network = network.replace_links(
        [link if link.owner != BUS_OPERATOR else
         Link(link.tail, link.head, link.travel_cost, link.operating_cost,
              link.capacity, SPLIT_FIRMS[(link.tail - 1) // 4])
         for link in network.links])
    return network, demand


def split_scenarios(network):
    """Ten merge, fixed-fare and subsidy scenarios on the split network."""
    bus_arc, rail_arc = (10, 15), (101, 103)
    half = {arc: network.by_arc[arc].operating_cost / 2
            for arc in (bus_arc, rail_arc)}
    return [(label, Scenario(edits=tuple(edits))) for label, edits in (
        ("merge-11-12", [MergeOperators((11, 12), 11)]),
        ("merge-13-14-15", [MergeOperators((13, 14, 15), 13)]),
        ("merge-all-bus-rail-acquisition",
         [MergeOperators(SPLIT_FIRMS, 11),
          SetObjectivePolicy(RAIL_OPERATOR, WELFARE_MAX)]),
        ("rail-acquires-16", [MergeOperators((RAIL_OPERATOR, 16), RAIL_OPERATOR)]),
        ("fixed-fare-rail", [SetFixedFare(RAIL_OPERATOR, True)]),
        ("fixed-fare-11", [SetFixedFare(11, True)]),
        ("fixed-fare-14", [SetFixedFare(14, True)]),
        ("subsidy-bus", [Subsidy(bus_arc, half[bus_arc])]),
        ("subsidy-rail", [Subsidy(rail_arc, half[rail_arc])]),
        ("merge-11-12-fixed-fare", [MergeOperators((11, 12), 11),
                                    SetFixedFare(11, True)]),
    )]


def _split_digests():
    network, demand = split_network()
    matching, _, decomposition, system = pipeline_artifacts(network, demand)
    acquisition = {f: REVENUE_MAX for f in system.covers}
    acquisition[RAIL_OPERATOR] = WELFARE_MAX
    out = {"split-base": _sha1(_matching_answers(matching) + [
        system.render_text(),
        _vertex(network, matching, system, SELLER),
        _vertex(network, matching, system,
                ObjectivePolicy(per_operator=acquisition))])}
    for label, scenario in split_scenarios(network):
        edited, _, annotations = apply_scenario(network, demand, scenario)
        scenario_system = generate_constraints_algorithm1(
            edited, demand, matching, decomposition,
            subsidies=annotations.subsidies)
        options = OutcomeOptions(
            fixed_fare_operators=frozenset(annotations.fixed_fare_operators),
            subsidies=dict(annotations.subsidies))
        out[f"split-{label}"] = _sha1([
            scenario_system.render_text(),
            _vertex(edited, matching, scenario_system, SELLER, options)])
    return out


def digests(reference=()):
    """Yield ``(label, digest)`` per instance.  ``reference`` is the
    ``reference_instances`` fixture (fig5, Sioux Falls, then
    ``random_instance(0..)``), whose solved instances are reused; the rest
    are solved here."""
    labels = ["fig5", "sioux-falls"] + [f"random-{s}" for s in RANDOM_SEEDS]
    inputs = [fig5, _sioux_falls] + [
        (lambda s=s: random_instance(s)) for s in RANDOM_SEEDS]
    known = dict(zip(labels, reference))
    solved = {}
    for label, make in zip(labels, inputs):
        if label in known:
            network, demand, matching, decomposition, system = known[label]
        else:
            network, demand = make()
            matching, _, decomposition, system = pipeline_artifacts(network, demand)
        solved[label] = (network, demand, matching, decomposition)
        yield label, _instance_digest(network, matching, system)
    network, demand = _sioux_falls_cut()
    matching, _, _, system = pipeline_artifacts(network, demand)
    yield "sioux-falls-cut", _instance_digest(network, matching, system)
    for label in ["fig5"] + [f"random-{s}" for s in ORACLE_SEEDS]:
        network, demand, matching, decomposition = solved[label]
        oracle = generate_constraints_enumeration(network, demand, matching,
                                                  decomposition)
        yield f"oracle-{label}", _sha1(oracle.render_text())
    yield from _split_digests().items()


def test_answers_match_the_ledger(reference_instances):
    recorded = json.loads(LEDGER.read_text())
    current = dict(digests(reference_instances))
    moved = sorted(label for label in recorded.keys() | current.keys()
                   if recorded.get(label) != current.get(label))
    assert not moved, f"answers moved on {len(moved)} labels: {moved}"


if __name__ == "__main__":
    LEDGER.parent.mkdir(exist_ok=True)
    LEDGER.write_text(json.dumps(dict(digests()), indent=1, sort_keys=True) + "\n")
    print(f"wrote {LEDGER}", file=sys.stderr)
