"""One benchmark workload in one process: set up, run timed rounds, check.

``run.py`` starts this script in a fresh process with single-threaded BLAS
and OpenMP and the checkout's ``src`` first on the import path.  The script
builds its inputs, makes one warm-up solve of fig5, notes the monotonic
clock at its first timed call, and then runs whole rounds of the workload
until ``--seconds`` have passed.  Each round repeats the same operations.
The answers of the first round are checked after the timed phase; later
rounds must give the same answers.  The last line of standard output is one
JSON object for ``run.py``.  A wrong answer exits with status 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import maas_market as mm
from maas_market import outcomes, stability
from maas_market.fixtures import BUS_OPERATOR, RAIL_OPERATOR
from maas_market.outcomes import (BUYER_OPTIMAL, REVENUE_MAX, SELLER_OPTIMAL,
                                  WELFARE_MAX)
from maas_market.randnet import random_instance
from maas_market.scenario import (MergeOperators, Scenario, SetCapacity,
                                  SetFixedFare, SetObjectivePolicy, Subsidy)

import checks
from spans import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
RECORDS = HERE / "records"
PUBLISHED_FLOWS = HERE / "data" / "sioux_falls_published_flows.csv"

# the paper's case study: transfer cost 2, utility 40, capacities x 10/3
SF_TRANSFER_COST, SF_UTILITY, SF_CAPACITY_SCALE = 2.0, 40.0, 10 / 3
# every service link at 0.6x leaves about 21 binding links against 2
SF_CAPACITY_CUT = 0.6
# random-corpus: each seed samples CORPUS_SIZE randnet instances from
# 0..CORPUS_POOL-1.  Instances on which the program fails are left out of
# the pool, because only the seeds whose sample holds them would show it.
CORPUS_SIZE = 100
CORPUS_POOL = 10_000
LEFT_OUT_INSTANCES = {
    3313: "solve_matching aborts the process inside HiGHS (heap corruption)",
    6440: "Algorithm 1 misses a stability row the enumeration oracle has",
}
# bus links of operator-sweep go to one firm per block of four road nodes,
# keyed by the tail node: firms 11..16
BUS_FIRMS = tuple(range(11, 17))
# operator-sweep runs its scenario list twice per round, so that unit_ms_p50
# rests on twenty units spread over about 20 s rather than ten over 10 s
SCENARIO_PASSES = 2

SPAN_LAYERS = ("network.load", "scenario.apply", "matching.solve",
               "matching.duals", "matching.decompose", "stability.path_sets",
               "stability.generate", "outcomes.build", "outcomes.solve",
               "outcomes.report")


@dataclass
class Equilibrium:
    network: object
    demand: object
    annotations: object
    matching: object
    duals: dict
    paths: object
    system: object


@dataclass
class Vertex:
    options: object
    outcome: object  # StableOutcome, or None when the solve raised


@dataclass
class UnitResult:
    label: str
    eq: Equilibrium | None
    vertices: dict = field(default_factory=dict)  # name -> Vertex
    scenario: tuple | None = None  # operator-sweep: (network, annotations, system)


class Ops:
    """Operations attempted and failed; a failure is a raised MaasMarketError."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except mm.MaasMarketError as exc:
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


# ---------------------------------------------------------------------------
# the timed path, in the library's documented order


def solve_equilibrium(tr, network_csv, demand_csv, scenario):
    with tr.span("network.load"):
        network = mm.load_network(network_csv)
        demand = mm.load_demand(demand_csv)
    with tr.span("scenario.apply"):
        network, demand, annotations = mm.apply_scenario(network, demand, scenario)
    with tr.span("matching.solve"):
        matching = mm.solve_matching(network, demand)
    with tr.span("matching.duals"):
        duals = mm.extract_duals(network, demand, matching.activations)
    with tr.span("matching.decompose"):
        paths = mm.decompose_flows(network, demand, matching, duals)
    with tr.span("stability.generate"):
        system = mm.generate_constraints_algorithm1(
            network, demand, matching, paths, subsidies=annotations.subsidies)
    eq = Equilibrium(network, demand, annotations, matching, duals, paths, system)
    if tr.enabled:
        tr.count("matching.operated_links", sum(matching.activations.values()))
        tr.count("matching.binding_links",
                 sum(1 for mu in duals.values() if mu > checks.REL_TOL))
        tr.count("matching.path_flows", len(paths.path_flows))
        count_system(tr, system)
    return eq


def count_system(tr, system):
    if not tr.enabled:
        return
    groups = [p for p in system.groups.values() if p.paths]
    tr.count("stability.optimal_paths", sum(len(p.paths) for p in groups))
    tr.count("stability.searches", sum(2 ** len(p.operators) - 1 for p in groups))
    tr.count("stability.rows", len(system.stability_rows))


def solve_vertex(tr, eq, network, system, policy, options):
    with tr.span("outcomes.build"):
        model = mm.build_outcome_lp(system, policy, options)
    if tr.enabled:
        tr.count("outcomes.lp_cols", model.lp.num_vars)
        tr.count("outcomes.lp_rows", len(model.lp.rows))
        tr.count("outcomes.lp_nnz", sum(len(row.coeffs) for row in model.lp.rows))
        tr.count("outcomes.vertices", 1)
    with tr.span("outcomes.solve"):
        outcome = mm.solve_outcome(model, matching=eq.matching, network=network)
    with tr.span("outcomes.report"):
        mm.report(outcome, eq.matching)
    return outcome


def options_for(annotations, fixed_fare=()):
    return mm.OutcomeOptions(
        fixed_fare_operators=frozenset(fixed_fare) | frozenset(annotations.fixed_fare_operators),
        subsidies=dict(annotations.subsidies))


@contextlib.contextmanager
def timed_unit(tr, unit_ms, label):
    start = time.perf_counter()
    with tr.span("unit", unit=label):
        yield
    unit_ms.append((time.perf_counter() - start) * 1000.0)


@contextlib.contextmanager
def layer_probes(tr):
    """In a traced run, time ``optimal_path_sets`` inside generation and count
    the LP solves made by ``solve_outcome``."""
    if not tr.enabled:
        yield
        return
    path_sets, solve_lp = stability.optimal_path_sets, outcomes.solve_lp

    def counted_solve_lp(*args, **kwargs):
        tr.count("outcomes.lp_solves", 1)
        return solve_lp(*args, **kwargs)

    stability.optimal_path_sets = tr.wrap("stability.path_sets", path_sets)
    outcomes.solve_lp = counted_solve_lp
    try:
        yield
    finally:
        stability.optimal_path_sets, outcomes.solve_lp = path_sets, solve_lp


def write_inputs(directory, stem, network, demand):
    directory.mkdir(parents=True, exist_ok=True)
    network_csv, demand_csv = directory / f"{stem}-network.csv", directory / f"{stem}-demand.csv"
    mm.dump_network(network, network_csv)
    mm.dump_demand(demand, demand_csv)
    return network_csv, demand_csv


def check_vertices(eq, network, system, unit):
    for vertex in unit.vertices.values():
        if vertex.outcome is not None and vertex.outcome.status == "optimal":
            checks.check_stable(network, eq.matching.activations, system,
                                vertex.options.subsidies, vertex.outcome,
                                vertex.options.fixed_fare_operators)
    buyer, seller = unit.vertices.get("buyer"), unit.vertices.get("seller")
    if buyer and seller:
        checks.check_buyer_seller(buyer.outcome, seller.outcome)


def signature(units):
    """The answers of one round, to compare rounds with each other."""
    out = []
    for unit in units:
        if unit.eq is not None:
            out.append((unit.label, "matching", unit.eq.matching.objective))
        for name, v in unit.vertices.items():
            out.append((unit.label, name, None if v.outcome is None else
                        (v.outcome.status, v.outcome.objective)))
    return out


# ---------------------------------------------------------------------------
# workloads


class SiouxFalls:
    """The paper's case study: base network, then every service link cut to
    0.6x capacity.  Each unit reads its CSVs, solves the equilibrium and four
    vertices."""

    def __init__(self, seed, work):
        network, demand = mm.build_sioux_falls(
            transfer_cost=SF_TRANSFER_COST, utility=SF_UTILITY,
            capacity_scale=SF_CAPACITY_SCALE)
        self.csv = write_inputs(work, "sioux-falls", network, demand)
        cut = Scenario(edits=tuple(
            SetCapacity(arc=l.arc, capacity=l.capacity * SF_CAPACITY_CUT)
            for l in network.links if l.owner != 0))
        self.scenarios = (("base", Scenario()), ("capacity-cut", cut))
        self.vertices = (
            ("seller-rail-fixed-fare", mm.ObjectivePolicy(global_mode=SELLER_OPTIMAL),
             (RAIL_OPERATOR,)),
            ("seller", mm.ObjectivePolicy(global_mode=SELLER_OPTIMAL), ()),
            ("buyer", mm.ObjectivePolicy(global_mode=BUYER_OPTIMAL), ()),
            ("rail-acquisition", mm.ObjectivePolicy(per_operator={
                BUS_OPERATOR: REVENUE_MAX, RAIL_OPERATOR: WELFARE_MAX}), ()),
        )

    def run_round(self, tr, ops, unit_ms):
        units = []
        for label, scenario in self.scenarios:
            with timed_unit(tr, unit_ms, label):
                eq = ops.run(f"{label} equilibrium", solve_equilibrium, tr, *self.csv, scenario)
                unit = UnitResult(label, eq)
                if eq is not None:
                    for name, policy, fixed in self.vertices:
                        options = options_for(eq.annotations, fixed)
                        outcome = ops.run(f"{label} {name} vertex", solve_vertex, tr, eq,
                                          eq.network, eq.system, policy, options)
                        unit.vertices[name] = Vertex(options, outcome)
            units.append(unit)
        return units

    def check(self, units):
        for unit in units:
            if unit.eq is None:
                continue
            checks.check_equilibrium(unit.eq)
            check_vertices(unit.eq, unit.eq.network, unit.eq.system, unit)
        base = units[0].eq
        if base is not None:
            checks.check_matching_objective(
                base.matching, checks.published_objective(base.network, PUBLISHED_FLOWS),
                "sioux-falls base vs published flow table")


class RandomCorpus:
    """fig5 plus ``CORPUS_SIZE`` sampled random instances; one unit each:
    the equilibrium, then the buyer and seller vertices."""

    def __init__(self, seed, work):
        pool = [s for s in range(CORPUS_POOL) if s not in LEFT_OUT_INSTANCES]
        instances = [("fig5", *mm.fig5())]
        instances += [(f"instance-{s}", *random_instance(s))
                      for s in sorted(random.Random(seed).sample(pool, CORPUS_SIZE))]
        self.instances = [(label, write_inputs(work, label, network, demand))
                          for label, network, demand in instances]
        self.vertices = (("buyer", mm.ObjectivePolicy(global_mode=BUYER_OPTIMAL)),
                         ("seller", mm.ObjectivePolicy(global_mode=SELLER_OPTIMAL)))

    def run_round(self, tr, ops, unit_ms):
        units = []
        for label, csv in self.instances:
            with timed_unit(tr, unit_ms, label):
                eq = ops.run(f"{label} equilibrium", solve_equilibrium, tr, *csv, Scenario())
                unit = UnitResult(label, eq)
                if eq is not None:
                    options = options_for(eq.annotations)
                    for name, policy in self.vertices:
                        outcome = ops.run(f"{label} {name} vertex", solve_vertex, tr, eq,
                                          eq.network, eq.system, policy, options)
                        unit.vertices[name] = Vertex(options, outcome)
            units.append(unit)
        return units

    def check(self, units):
        for unit in units:
            eq = unit.eq
            if eq is None:
                continue
            checks.check_equilibrium(eq)
            check_vertices(eq, eq.network, eq.system, unit)
            checks.check_matching_objective(
                eq.matching, checks.independent_matching_objective(eq.network, eq.demand),
                f"{unit.label} vs independent MILP")
            oracle = mm.generate_constraints_enumeration(
                eq.network, eq.demand, eq.matching, eq.paths)
            for name, policy in self.vertices:
                got = unit.vertices[name].outcome
                if got is not None:
                    checks.check_oracle_vertex(oracle, policy, got, f"{unit.label} {name}")
        fig5 = units[0]
        checks.check_fig5(fig5.eq, fig5.vertices["buyer"].outcome)


class OperatorSweep:
    """Sioux Falls with the bus layer split among six regional firms.  One
    equilibrium and its seller vertex (not a unit), then one unit per
    scenario, over ``SCENARIO_PASSES`` passes of the scenario list: apply it,
    generate the stability rows, solve the seller vertex and, where the
    scenario sets operator objectives, the custom vertex."""

    def __init__(self, seed, work):
        network, demand = mm.build_sioux_falls(
            transfer_cost=SF_TRANSFER_COST, utility=SF_UTILITY,
            capacity_scale=SF_CAPACITY_SCALE)
        network = network.replace_links(
            [l if l.owner != BUS_OPERATOR else
             mm.Link(l.tail, l.head, l.travel_cost, l.operating_cost, l.capacity,
                     BUS_FIRMS[(l.tail - 1) // 4])
             for l in network.links])
        self.csv = write_inputs(work, "operator-sweep", network, demand)
        bus_arc, rail_arc = (10, 15), (101, 103)
        half = {arc: network.by_arc[arc].operating_cost / 2 for arc in (bus_arc, rail_arc)}
        self.scenarios = tuple((label, Scenario(edits=tuple(edits))) for label, edits in (
            ("merge-11-12", [MergeOperators((11, 12), 11)]),
            ("merge-13-14-15", [MergeOperators((13, 14, 15), 13)]),
            ("merge-all-bus-rail-acquisition",
             [MergeOperators(BUS_FIRMS, 11),
              SetObjectivePolicy(RAIL_OPERATOR, WELFARE_MAX)]),
            ("rail-acquires-16", [MergeOperators((RAIL_OPERATOR, 16), RAIL_OPERATOR)]),
            ("fixed-fare-rail", [SetFixedFare(RAIL_OPERATOR, True)]),
            ("fixed-fare-11", [SetFixedFare(11, True)]),
            ("fixed-fare-14", [SetFixedFare(14, True)]),
            ("subsidy-bus", [Subsidy(bus_arc, half[bus_arc])]),
            ("subsidy-rail", [Subsidy(rail_arc, half[rail_arc])]),
            ("merge-11-12-fixed-fare", [MergeOperators((11, 12), 11),
                                        SetFixedFare(11, True)]),
        ))
        self.seller = mm.ObjectivePolicy(global_mode=SELLER_OPTIMAL)

    def run_round(self, tr, ops, unit_ms):
        with tr.span("unit", unit="base"):
            eq = ops.run("base equilibrium", solve_equilibrium, tr, *self.csv, Scenario())
            if eq is None:
                return [UnitResult("base", None)]
            base = UnitResult("base", eq)
            options = options_for(eq.annotations)
            base.vertices["seller"] = Vertex(options, ops.run(
                "base seller vertex", solve_vertex, tr, eq, eq.network, eq.system,
                self.seller, options))
        units = [base]
        for label, scenario in self.scenarios * SCENARIO_PASSES:
            with timed_unit(tr, unit_ms, label):
                unit = UnitResult(label, None)
                units.append(unit)
                applied = ops.run(f"{label} generation", self._generate, tr, eq, scenario)
                if applied is None:
                    continue
                network, annotations, system = applied
                unit.scenario = (network, annotations, system)
                options = options_for(annotations)
                policies = [("seller", self.seller)]
                if annotations.objective_modes:
                    modes = {f: REVENUE_MAX for f in system.covers}
                    modes.update(annotations.objective_modes)
                    policies.append(("custom", mm.ObjectivePolicy(per_operator=modes)))
                for name, policy in policies:
                    outcome = ops.run(f"{label} {name} vertex", solve_vertex, tr, eq,
                                      network, system, policy, options)
                    unit.vertices[name] = Vertex(options, outcome)
        return units

    @staticmethod
    def _generate(tr, eq, scenario):
        with tr.span("scenario.apply"):
            network, _, annotations = mm.apply_scenario(eq.network, eq.demand, scenario)
        with tr.span("stability.generate"):
            system = mm.generate_constraints_algorithm1(
                network, eq.demand, eq.matching, eq.paths,
                subsidies=annotations.subsidies)
        count_system(tr, system)
        return network, annotations, system

    def check(self, units):
        base = units[0]
        eq = base.eq
        if eq is None:
            return
        checks.check_equilibrium(eq)
        check_vertices(eq, eq.network, eq.system, base)
        base_seller = base.vertices["seller"].outcome
        base_core = base_seller is not None and base_seller.status == "optimal"
        costs = {l.arc: (l.travel_cost, l.operating_cost, l.capacity) for l in eq.network.links}
        for (label, scenario), unit in zip(self.scenarios * SCENARIO_PASSES, units[1:]):
            if unit.scenario is None:
                continue
            network, annotations, system = unit.scenario
            after = {l.arc: (l.travel_cost, l.operating_cost, l.capacity) for l in network.links}
            if after != costs:
                raise checks.CheckFailed(f"{label}: scenario changed a cost or capacity")
            checks.check_optimal_paths(network, eq.demand, eq.matching, eq.duals, system)
            check_vertices(eq, network, system, unit)
            edits = scenario.edits
            if base_core and any(isinstance(e, Subsidy) for e in edits):
                # the base seller prices stay stable once a link is subsidised
                checks.check_stable(network, eq.matching.activations, system,
                                    annotations.subsidies, base_seller)
            if base_core and any(isinstance(e, MergeOperators) for e in edits):
                merged = unit.vertices.get("seller")
                if merged is None or merged.outcome is None \
                        or merged.outcome.status != "optimal":
                    raise checks.CheckFailed(f"{label}: merge emptied a nonempty core")


WORKLOADS = {"sioux-falls": SiouxFalls, "random-corpus": RandomCorpus,
             "operator-sweep": OperatorSweep}


# ---------------------------------------------------------------------------


def warm_up():
    """One fig5 solve, so that HiGHS's lazy loading is not timed."""
    network, demand = mm.fig5()
    matching = mm.solve_matching(network, demand)
    duals = mm.extract_duals(network, demand, matching.activations)
    paths = mm.decompose_flows(network, demand, matching, duals)
    system = mm.generate_constraints_algorithm1(network, demand, matching, paths)
    mm.solve_outcome(mm.build_outcome_lp(system, mm.ObjectivePolicy(global_mode=BUYER_OPTIMAL)),
                     matching=matching, network=network)


def layer_metrics(tr):
    times = tr.per_round_ms()
    counts = tr.per_round_counts()
    metrics = {f"{name}_ms": times.get(name, 0.0) for name in SPAN_LAYERS}
    for name in ("matching.operated_links", "matching.binding_links",
                 "matching.path_flows", "stability.optimal_paths",
                 "stability.searches", "stability.rows", "outcomes.lp_cols",
                 "outcomes.lp_rows", "outcomes.lp_nnz"):
        metrics[name] = counts.get(name, 0.0)
    searches = metrics["stability.searches"]
    metrics["stability.rows_per_search"] = (metrics["stability.rows"] / searches
                                            if searches else 0.0)
    metrics["outcomes.tiebreak_stages"] = (counts.get("outcomes.lp_solves", 0.0)
                                           - counts.get("outcomes.vertices", 0.0))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(mm.__file__).resolve().is_relative_to(SRC):
        print(f"maas_market was imported from {mm.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    warm_up()
    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return 0

    tr = Tracer() if args.trace else NullTracer()
    ops, unit_ms, round_ms = Ops(), [], []
    first = expected = None
    repeatable = True
    start = time.perf_counter()
    with layer_probes(tr):
        while True:
            tr.round = len(round_ms)
            begin = time.perf_counter()
            units = workload.run_round(tr, ops, unit_ms)
            round_ms.append((time.perf_counter() - begin) * 1000.0)
            if first is None:
                first, expected = units, signature(units)
            else:
                repeatable = repeatable and signature(units) == expected
            if time.perf_counter() - start >= args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        if not repeatable:
            raise checks.CheckFailed("a later round gave other answers than the first")
        workload.check(first)
    except checks.CheckFailed as exc:
        print(f"wrong answer on {args.workload}: {exc}", file=sys.stderr)
        return 3

    result = {"first_call": first_call, "attempted": ops.attempted,
              "failed": ops.failed, "errors": sorted(set(ops.errors)),
              "round_ms": round_ms, "unit_ms": unit_ms, "peak_rss_mb": peak_rss_mb}
    if tr.enabled:
        result["layers"] = layer_metrics(tr)
        RECORDS.mkdir(parents=True, exist_ok=True)
        tr.dump(RECORDS / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
