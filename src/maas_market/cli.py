"""Command-line interface.

Subcommands:

* ``fixtures``        write the built-in example input files
* ``run``             full pipeline: matching, duals, decomposition,
                      constraint generation, buyer/seller/custom outcomes
* ``compare``         baseline vs scenario delta report; an owner or policy
                      scenario reuses the baseline matching
* ``bench``           time lexicographic generation against enumeration
* ``lemma1``/``lemma2``  closed-form duopoly bounds
* ``enumerate-paths`` dump every simple path per OD with its deviation cost,
                      up to ``--cap`` per OD (default: the oracle's cap)

Exit codes: 0 success, 2 infeasible demand, 3 empty core, 4 resource limit,
1 anything else, a bad command line included.  Failures print a one-line
JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path as FilePath

from . import fixtures as fixtures_mod
from .closedform import (CoopCompeteInstance, SmallVsLargeInstance,
                         lemma1_lower_bound, lemma2_upper_bound)
from .errors import MaasMarketError, PathCapExceeded, ValidationError
from .matching import (Path, decompose_flows, dump_commodity_flows,
                       dump_link_flows, dump_link_status, solve_matching)
from .network import (dump_demand, dump_network, load_demand, load_network,
                      require_priced, write_csv)
from .outcomes import (BUYER_OPTIMAL, SELLER_OPTIMAL, ObjectivePolicy,
                       OutcomeOptions, build_outcome_lp, report, solve_outcome)
from .randnet import random_instance
from .scenario import PolicyAnnotations, apply_scenario, load_scenario
from .stability import (ENUMERATION_CAP, _omega_arcs, _predecessors,
                        generate_constraints_algorithm1,
                        generate_constraints_enumeration, simple_paths)

EXIT_OK = 0
EXIT_EMPTY_CORE = 3


def _error_line(exc: MaasMarketError) -> str:
    record = {"error_class": exc.error_class, "message": str(exc)}
    if hasattr(exc, "offending_ods") and exc.offending_ods:
        record["offending_ods"] = [list(od) for od in exc.offending_ods]
    return json.dumps(record)


def _load_inputs(args):
    network = load_network(args.network)
    demand = load_demand(args.demand)
    annotations = PolicyAnnotations()
    if getattr(args, "scenario", None):
        scenario = load_scenario(args.scenario)
        network, demand, annotations = apply_scenario(network, demand, scenario)
    for f in getattr(args, "fixed_fare", None) or []:
        require_priced((f,), "--fixed-fare", ValidationError)
        if f not in network.operators:
            raise ValidationError(f"--fixed-fare: unknown operator {f}")
        annotations.fixed_fare_operators.add(f)
    return network, demand, annotations


def _outcome_options(annotations) -> OutcomeOptions:
    return OutcomeOptions(
        fixed_fare_operators=frozenset(annotations.fixed_fare_operators),
        subsidies=dict(annotations.subsidies))


def run_pipeline(network, demand, annotations, policies=("buyer", "seller"),
                 matching=None):
    """Matching with its duals, decomposition, constraint generation, and
    one outcome vertex per requested policy.  Returns artifacts plus
    timings.  A given ``matching`` is used as it is; it must have been
    solved on the same node set, links (owners aside) and demand."""
    timings = {}
    start = time.perf_counter()
    if matching is None:
        matching = solve_matching(network, demand)
    timings["matching_msec"] = (time.perf_counter() - start) * 1000
    decomposition = decompose_flows(network, demand, matching)
    start = time.perf_counter()
    system = generate_constraints_algorithm1(
        network, demand, matching, decomposition,
        subsidies=annotations.subsidies)
    timings["generation_msec"] = (time.perf_counter() - start) * 1000
    options = _outcome_options(annotations)
    outcomes = {}
    start = time.perf_counter()
    for name in policies:
        if name == "buyer":
            policy = ObjectivePolicy(global_mode=BUYER_OPTIMAL)
        elif name == "seller":
            policy = ObjectivePolicy(global_mode=SELLER_OPTIMAL)
        elif name == "custom":
            if not annotations.objective_modes:
                continue
            modes = dict(annotations.objective_modes)
            for f in system.covers:
                modes.setdefault(f, "revenue_max")
            policy = ObjectivePolicy(per_operator=modes)
        else:
            raise ValueError(f"unknown policy {name!r}")
        model = build_outcome_lp(system, policy, options)
        outcomes[name] = solve_outcome(model, matching=matching,
                                       network=network)
    timings["outcomes_msec"] = (time.perf_counter() - start) * 1000
    return {
        "matching": matching,
        "decomposition": decomposition,
        "system": system,
        "outcomes": outcomes,
        "timings": timings,
    }


def _dump_json(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_artifacts(outdir, network, result):
    outdir = FilePath(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    matching = result["matching"]
    dump_link_flows(network, matching, outdir / "link_flows.csv")
    dump_commodity_flows(matching, outdir / "commodity_flows.csv")
    dump_link_status(network, matching, outdir / "link_status.csv")
    write_csv(outdir / "path_flows.csv", ["origin", "destination", "path", "flow"],
              ([*path.group, "-".join(map(str, path.nodes)), f"{z:.6f}"]
               for path, z in result["decomposition"].path_flows))
    with open(outdir / "constraints.txt", "w") as fh:
        fh.write(result["system"].render_text())
    metrics = {"matching_objective": matching.objective, "outcomes": {}}
    for name, outcome in result["outcomes"].items():
        doc = report(outcome, matching)
        _dump_json(doc, outdir / f"outcome_{name}.json")
        metrics["outcomes"][name] = doc
    _dump_json(metrics, outdir / "metrics.json")
    _dump_json(result["timings"], outdir / "timings.json")


def cmd_run(args) -> int:
    network, demand, annotations = _load_inputs(args)
    policies = args.policy or ["buyer", "seller", "custom"]
    result = run_pipeline(network, demand, annotations, policies=policies)
    _write_run_artifacts(args.out, network, result)
    empty = [n for n, o in result["outcomes"].items() if o.status == "empty_core"]
    if empty:
        print(json.dumps({"error_class": "empty_core",
                          "message": f"empty core for {empty}"}), file=sys.stderr)
        return EXIT_EMPTY_CORE
    print(json.dumps({"status": "ok", "out": str(args.out)}))
    return EXIT_OK


def _summary_rows(result):
    rows = {}
    for name, outcome in result["outcomes"].items():
        if outcome.status != "optimal":
            continue
        for f, m in outcome.operators.items():
            rows[(name, f)] = {"revenue": m.revenue, "avg_fare": m.avg_fare,
                               "ridership": m.ridership, "profit": m.profit}
        rows[(name, "consumer_surplus")] = {"value": outcome.consumer_surplus}
    return rows


def _matching_inputs(network, demand):
    """Everything ``solve_matching`` reads: the node set, each link's arc,
    costs and capacity in link order, and the demand.  Owners and policy
    annotations are not among them."""
    links = [(link.tail, link.head, link.travel_cost, link.operating_cost,
              link.capacity) for link in network.links]
    return network.nodes, links, demand


def _compare_rows(deltas):
    for entry in deltas:
        for metric in sorted(entry["base"] or entry["scenario"]):
            b = (entry["base"] or {}).get(metric, "")
            v = (entry["scenario"] or {}).get(metric, "")
            d = v - b if b != "" and v != "" else ""
            yield [entry["policy"], entry["operator"], metric, b, v, d]


def cmd_compare(args) -> int:
    """Base and scenario runs and their per-operator deltas.  A scenario
    that keeps the matching's inputs (owner and policy edits) reuses the
    base matching, so its generation also reuses the base's memo."""
    network = load_network(args.network)
    demand = load_demand(args.demand)
    scenario = load_scenario(args.scenario)
    base = run_pipeline(network, demand, PolicyAnnotations())
    net2, dem2, ann2 = apply_scenario(network, demand, scenario)
    same = _matching_inputs(net2, dem2) == _matching_inputs(network, demand)
    varied = run_pipeline(net2, dem2, ann2,
                          policies=("buyer", "seller", "custom"),
                          matching=base["matching"] if same else None)
    outdir = FilePath(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    base_rows, varied_rows = _summary_rows(base), _summary_rows(varied)
    deltas = []
    for key in sorted(set(base_rows) | set(varied_rows), key=str):
        b, v = base_rows.get(key), varied_rows.get(key)
        entry = {"policy": key[0], "operator": key[1],
                 "base": b, "scenario": v}
        if b and v:
            entry["delta"] = {k: v[k] - b[k] for k in v if k in b}
        deltas.append(entry)
    _dump_json({"deltas": deltas}, outdir / "compare.json")
    write_csv(outdir / "compare.csv",
              ["policy", "operator", "metric", "base", "scenario", "delta"],
              _compare_rows(deltas))
    print(json.dumps({"status": "ok", "out": str(args.out)}))
    return EXIT_OK


def _bench_one(name, network, demand, annotations, args):
    result = run_pipeline(network, demand, annotations, policies=())
    system1 = result["system"]
    record = {"instance": name,
              "lexicographic_msec": result["timings"]["generation_msec"],
              "lexicographic_rows": len(system1.stability_rows)}
    systems = {"lexicographic": system1}
    start = time.perf_counter()
    try:
        system2 = generate_constraints_enumeration(
            network, demand, result["matching"], result["decomposition"],
            subsidies=annotations.subsidies, path_cap=args.enum_cap)
    except PathCapExceeded:
        record["enumeration"] = "capped"
    else:
        record["enumeration_msec"] = (time.perf_counter() - start) * 1000
        record["enumeration_rows"] = len(system2.stability_rows)
        systems["enumeration"] = system2
    options = _outcome_options(annotations)
    for mode, label in ((BUYER_OPTIMAL, "buyer"), (SELLER_OPTIMAL, "seller")):
        values = {}
        for sys_name, system in systems.items():
            model = build_outcome_lp(system, ObjectivePolicy(global_mode=mode),
                                     options)
            start = time.perf_counter()
            outcome = solve_outcome(model, tie_break=False)
            record[f"{label}_{sys_name}_solve_msec"] = \
                (time.perf_counter() - start) * 1000
            values[sys_name] = (outcome.objective
                                if outcome.status == "optimal" else None)
        record[f"{label}_objective"] = values
        if len(values) == 2:
            a, b = values["lexicographic"], values["enumeration"]
            if a is None or b is None:
                record[f"{label}_agree"] = a == b
            else:
                record[f"{label}_agree"] = abs(a - b) <= 1e-6 * max(1.0, abs(a))
    return record


def cmd_bench(args) -> int:
    if bool(args.network) != bool(args.demand):
        raise ValidationError("bench needs --network and --demand together")
    if not args.network and (args.scenario or args.fixed_fare):
        raise ValidationError("bench --scenario and --fixed-fare need --network")
    if args.random < 0 or args.enum_cap < 1 or not (args.network or args.random):
        raise ValidationError("bench needs --random >= 0, --enum-cap >= 1, and "
                              "--network with --demand or --random >= 1")
    records = []
    if args.network:
        network, demand, annotations = _load_inputs(args)
        records.append(_bench_one(FilePath(args.network).stem, network,
                                  demand, annotations, args))
    for i in range(args.random):
        network, demand = random_instance(args.seed + i)
        records.append(_bench_one(f"random-{args.seed + i}", network, demand,
                                  PolicyAnnotations(), args))
    for record in records:
        print(json.dumps(record, sort_keys=True))
    if args.out:
        FilePath(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    outdir = FilePath(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.which == "fig5":
        network, demand = fixtures_mod.fig5()
    else:
        network, demand = fixtures_mod.build_sioux_falls(
            transfer_cost=args.transfer_cost, utility=args.utility,
            capacity_scale=args.capacity_scale)
    dump_network(network, outdir / "network.csv")
    dump_demand(demand, outdir / "demand.csv")
    print(json.dumps({"status": "ok", "out": str(outdir),
                      "links": len(network.links),
                      "nodes": len(network.nodes),
                      "od_pairs": len(demand.entries)}))
    return EXIT_OK


def cmd_lemma1(args) -> int:
    inst = CoopCompeteInstance(t12=args.t12, t23=args.t23, t13=args.t13,
                               c12=args.c12, c23=args.c23, c13=args.c13,
                               d=args.d)
    raw = lemma1_lower_bound(inst)
    print(json.dumps({"raw": raw, "clamped": max(0.0, raw)}))
    return EXIT_OK


def cmd_lemma2(args) -> int:
    inst = SmallVsLargeInstance(t23_small=args.t23_small,
                                t23_large=args.t23_large,
                                c23_large=args.c23_large,
                                x23_large_flow=args.x23_large_flow)
    print(json.dumps({"bound": lemma2_upper_bound(inst)}))
    return EXIT_OK


def cmd_enumerate_paths(args) -> int:
    if args.cap < 1:
        raise ValidationError("enumerate-paths needs --cap >= 1")
    network = load_network(args.network)
    demand = load_demand(args.demand)
    matching = solve_matching(network, demand)
    succ = _omega_arcs(network, matching.duals, matching.activations)
    pred = _predecessors(succ)
    sys.stdout.write("origin,destination,path,travel_cost,deviation_cost\n")
    for entry in demand.entries:
        for w, nodes in simple_paths(succ, pred, entry.od, args.cap):
            t = Path(entry.od, nodes).travel_cost(network)
            path = "-".join(str(n) for n in nodes)
            sys.stdout.write(f"{entry.origin},{entry.destination},{path},"
                             f"{t:.6f},{w:.6f}\n")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`ValidationError` (exit 1),
    not with argparse's usage text and exit 2; subparsers inherit it."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="maas-market",
        description="Market equilibria for multi-operator MaaS platforms")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="solve matching and stable outcomes")
    p.add_argument("--network", required=True)
    p.add_argument("--demand", required=True)
    p.add_argument("--scenario")
    p.add_argument("--out", default="out")
    p.add_argument("--policy", action="append",
                   choices=["buyer", "seller", "custom"])
    p.add_argument("--fixed-fare", type=int, action="append")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="baseline vs scenario deltas")
    p.add_argument("--network", required=True)
    p.add_argument("--demand", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="time constraint generation strategies")
    p.add_argument("--network")
    p.add_argument("--demand")
    p.add_argument("--scenario")
    p.add_argument("--out")
    p.add_argument("--random", type=int, default=0,
                   help="also bench this many seeded random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enum-cap", type=int, default=ENUMERATION_CAP,
                   help="simple paths per OD before enumeration is reported "
                        "as capped")
    p.add_argument("--fixed-fare", type=int, action="append")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fixtures", help="write built-in example inputs")
    p.add_argument("--which", choices=["fig5", "sioux-falls"], default="fig5")
    p.add_argument("--out", default="fixtures")
    p.add_argument("--transfer-cost", type=float, default=0.0)
    p.add_argument("--utility", type=float, default=40.0)
    p.add_argument("--capacity-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("lemma1", help="cooperative duopoly price floor")
    for name in ("t12", "t23", "t13", "c12", "c23", "c13", "d"):
        p.add_argument(f"--{name}", type=float, required=True)
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("lemma2", help="small-vs-large operator price ceiling")
    p.add_argument("--t23-small", type=float, required=True)
    p.add_argument("--t23-large", type=float, required=True)
    p.add_argument("--c23-large", type=float, required=True)
    p.add_argument("--x23-large-flow", type=float, default=0.0)
    p.set_defaults(func=cmd_lemma2)

    p = sub.add_parser("enumerate-paths", help="dump all simple paths per OD")
    p.add_argument("--network", required=True)
    p.add_argument("--demand", required=True)
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    p.set_defaults(func=cmd_enumerate_paths)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MaasMarketError as exc:
        print(_error_line(exc), file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an unreadable input file or an unwritable output
        print(json.dumps({"error_class": "io", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
