"""Acceptance suite: one printed pass/fail line per check.

Run with ``python3 -m pytest tests/test_acceptance.py -s`` to see the lines
as they are produced.  Checks marked INFO are reported but not gating.
"""

import csv
import random
import time
from pathlib import Path

import pytest

from maas_market import (Link, Network, ObjectivePolicy, OutcomeOptions,
                         build_outcome_lp, build_sioux_falls,
                         check_core_nonempty, decompose_flows,
                         fig5, generate_constraints_algorithm1,
                         generate_constraints_enumeration, lemma1_lower_bound,
                         lemma2_upper_bound, solve_matching, solve_outcome)
from maas_market.fixtures import BUS_OPERATOR, RAIL_OPERATOR
from maas_market.matching import flow_lp
from maas_market.outcomes import BUYER_OPTIMAL, SELLER_OPTIMAL
from maas_market.randnet import (coop_compete_network, random_coop_compete,
                                 random_instance, random_small_vs_large,
                                 small_vs_large_network)
from maas_market.solve import solve_lp
from conftest import flows_for, pipeline_artifacts

DATA_DIR = Path(__file__).parent / "data"

CORPUS_SEEDS = list(range(12))


def _gate(label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _info(label, detail):
    print(f"INFO: {label} ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: golden two-OD platform instance


@pytest.fixture(scope="module")
def golden():
    network, demand = fig5()
    start = time.perf_counter()
    matching, duals, decomposition, system = pipeline_artifacts(network, demand)
    buyer = solve_outcome(
        build_outcome_lp(system, ObjectivePolicy(global_mode=BUYER_OPTIMAL)),
        matching=matching, network=network)
    seller = solve_outcome(
        build_outcome_lp(system, ObjectivePolicy(global_mode=SELLER_OPTIMAL)),
        matching=matching, network=network)
    elapsed = time.perf_counter() - start
    return dict(network=network, demand=demand, matching=matching,
                duals=duals, decomposition=decomposition, system=system,
                buyer=buyer, seller=seller, elapsed=elapsed)


def test_criterion1_matching(golden):
    flows = {(path.group, path.nodes): z
             for path, z in golden["decomposition"].path_flows}
    ok = (flows.get(((1, 3), (1, 3)), 0.0) == pytest.approx(1000, abs=1e-6)
          and flows.get(((1, 4), (1, 21, 23, 4)), 0.0)
          == pytest.approx(200, abs=1e-6)
          and flows.get(((1, 4), (1, 4)), 0.0) == pytest.approx(300, abs=1e-6))
    _gate("criterion 1: path flows 1000 / 200 / 300", ok, f"{flows}")
    _gate("criterion 1: capacity dual mu(1,21) = 4",
          golden["duals"][(1, 21)] == pytest.approx(4.0, abs=1e-6),
          f"mu={golden['duals'][(1, 21)]}")
    unused = (golden["matching"].total_flow((22, 3)) == pytest.approx(0.0)
              and golden["matching"].activations[(22, 3)] == 0)
    _gate("criterion 1: operator 2's link (22,3) unused", unused)


def test_criterion1_buyer_vertex(golden):
    out = golden["buyer"]
    checks = {
        "u(1,3)=13": (out.surplus[(1, 3)], 13.0),
        "u(1,4)=9.33": (out.surplus[(1, 4)], 28 / 3),
        "p1A=0": (out.prices[((1, 3), (1, 3), 1)], 0.0),
        "p2A=3.67": (out.prices[((1, 4), (1, 21, 23, 4), 1)], 11 / 3),
        "p2C=1": (out.prices[((1, 4), (1, 21, 23, 4), 3)], 1.0),
        "p3D=0.67": (out.prices[((1, 4), (1, 4), 4)], 2 / 3),
        "profit A=333.33": (out.operators[1].profit, 1000 / 3),
    }
    ok = all(got == pytest.approx(want, abs=0.01)
             for got, want in checks.values())
    _gate("criterion 1: buyer-optimal vertex (tolerance 0.01)", ok,
          ", ".join(f"{k}: {got:.4f}" for k, (got, _) in checks.items()))


def test_criterion1_seller_vertex(golden):
    out = golden["seller"]
    ok = (out.surplus[(1, 3)] == pytest.approx(0.0, abs=1e-6)
          and out.surplus[(1, 4)] == pytest.approx(0.0, abs=1e-6)
          and out.operators[1].revenue == pytest.approx(15600, abs=1e-6)
          and out.operators[3].revenue == pytest.approx(200, abs=1e-6)
          and out.operators[4].revenue == pytest.approx(3000, abs=1e-6))
    _gate("criterion 1: seller-optimal vertex (u=0, revenues 15600/200/3000)",
          ok, ", ".join(f"op{f}: {m.revenue:.2f}"
                        for f, m in sorted(out.operators.items())))
    p2a = out.prices[((1, 4), (1, 21, 23, 4), 1)]
    p2c = out.prices[((1, 4), (1, 21, 23, 4), 3)]
    _gate("criterion 1: shared-path price split sums to 14",
          p2a + p2c == pytest.approx(14.0, abs=1e-6),
          f"p2A={p2a:.4f}, p2C={p2c:.4f}")


def test_criterion1_constraint_rows(golden):
    rows = [r for r in golden["system"].stability_rows if r.group == (1, 4)]
    bounds = [r.bound for r in rows]
    has_390 = any(abs(b - (-390.0)) <= 1e-6 for b in bounds)
    has_392 = any(abs(b - (-392.0)) <= 1e-6 for b in bounds)
    _gate("criterion 1: u(1,4) >= -390 row emitted, -392 row omitted",
          has_390 and not has_392, f"bounds={sorted(bounds)}")


def test_criterion1_runtime(golden):
    _gate("criterion 1: golden-instance pipeline under 1 second",
          golden["elapsed"] < 1.0, f"{golden['elapsed']:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: lexicographic generation equals full enumeration


def _equivalence_check(network, demand, seed):
    matching, duals, decomposition, system1 = pipeline_artifacts(network,
                                                                 demand)
    system2 = generate_constraints_enumeration(network, demand, matching,
                                               decomposition)
    rng = random.Random(f"{seed}-obj")
    for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
        vals = []
        for system in (system1, system2):
            out = solve_outcome(
                build_outcome_lp(system, ObjectivePolicy(global_mode=mode)),
                tie_break=False)
            vals.append(out.objective if out.status == "optimal" else None)
        a, b = vals
        if (a is None) != (b is None):
            return f"{mode}: {a} vs {b}"
        if a is not None and abs(a - b) > 1e-6 * max(1.0, abs(a)):
            return f"{mode}: {a} vs {b}"
    model1 = build_outcome_lp(system1,
                              ObjectivePolicy(global_mode=BUYER_OPTIMAL))
    model2 = build_outcome_lp(system2,
                              ObjectivePolicy(global_mode=BUYER_OPTIMAL))
    assert model1.p_index.keys() == model2.p_index.keys()
    for k in range(20):
        obj = [rng.uniform(-1, 1) for _ in range(model1.lp.num_vars)]
        vals = []
        for model in (model1, model2):
            model.lp.objective = list(obj)
            out = solve_outcome(model, tie_break=False)
            vals.append(out.objective if out.status == "optimal" else None)
        a, b = vals
        if (a is None) != (b is None):
            return f"objective {k}: {a} vs {b}"
        if a is not None and abs(a - b) > 1e-6 * max(1.0, abs(a)):
            return f"objective {k}: {a} vs {b}"
    return None


def test_criterion2_equivalence():
    start = time.perf_counter()
    failures = []
    mismatch = _equivalence_check(*fig5(), seed=-1)
    if mismatch:
        failures.append(("golden", mismatch))
    for seed in range(50):
        network, demand = random_instance(seed)
        mismatch = _equivalence_check(network, demand, seed)
        if mismatch:
            failures.append((seed, mismatch))
    elapsed = time.perf_counter() - start
    _gate("criterion 2: generation equals enumeration on golden + 50 seeds, "
          "buyer/seller + 20 random objectives each",
          not failures and elapsed < 120,
          f"failures={failures}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: closed-form duopoly bounds vs pipeline extreme prices


def _pipeline_extreme_price(network, demand, operator, maximize):
    _, _, _, system = pipeline_artifacts(network, demand)
    model = build_outcome_lp(system,
                             ObjectivePolicy(global_mode=SELLER_OPTIMAL))
    obj = [0.0] * model.lp.num_vars
    for (_, _, f), col in model.p_index.items():
        if f == operator:
            obj[col] = 1.0
    model.lp.objective = obj
    model.lp.maximize = maximize
    out = solve_outcome(model, tie_break=False)
    return out.objective if out.status == "optimal" else None


def test_criterion3_lemma1():
    start = time.perf_counter()
    bad = []
    for seed in range(20):
        inst = random_coop_compete(seed, tight=True)
        bound = lemma1_lower_bound(inst)
        network, demand, operator = coop_compete_network(inst)
        value = _pipeline_extreme_price(network, demand, operator,
                                        maximize=False)
        if value is None or abs(value - bound) > 1e-6:
            bad.append((seed, bound, value))
    for seed in range(20):
        # away from the tight regime the bound is valid, not attained
        inst = random_coop_compete(seed + 1000, tight=False)
        bound = lemma1_lower_bound(inst)
        network, demand, operator = coop_compete_network(inst)
        value = _pipeline_extreme_price(network, demand, operator,
                                        maximize=False)
        if value is None or value < bound - 1e-6:
            bad.append(("generic", seed, bound, value))
    elapsed = time.perf_counter() - start
    _gate("criterion 3: cooperative-duopoly price floor matches pipeline "
          "minimum on 20 tight instances (valid on 20 generic)",
          not bad, f"bad={bad}, {elapsed:.1f}s")


def test_criterion3_lemma2():
    start = time.perf_counter()
    bad = []
    for seed in range(20):
        inst = random_small_vs_large(seed)
        bound = lemma2_upper_bound(inst)
        for variant in (seed, seed + 500):  # end legs must not matter
            network, demand, operator = small_vs_large_network(inst, variant)
            value = _pipeline_extreme_price(network, demand, operator,
                                            maximize=True)
            if value is None or abs(value - bound) > 1e-6:
                bad.append((seed, variant, bound, value))
    elapsed = time.perf_counter() - start
    _gate("criterion 3: small-operator price ceiling matches pipeline "
          "maximum on 20 instances x 2 end-leg draws",
          not bad, f"bad={bad}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: full Sioux Falls run


PUBLISHED_OBJECTIVE_REL_TOL = 1e-6
PUBLISHED_RAIL_RIDERSHIP = 217466.0
PUBLISHED_BUS_RIDERSHIP = 274900.0
PUBLISHED_TOTAL_REVENUE = 6509832.0
PUBLISHED_OPERATING_COSTS = {BUS_OPERATOR: 186.0, RAIL_OPERATOR: 128.0}


def _published_flows():
    rows = []
    with open(DATA_DIR / "sioux_falls_published_flows.csv") as fh:
        for row in csv.DictReader(fh):
            rows.append(((int(row["tail"]), int(row["head"])),
                         float(row["flow"])))
    return dict(rows)


@pytest.fixture(scope="module")
def sioux_falls():
    network, demand = build_sioux_falls(transfer_cost=2.0, utility=40.0,
                                        capacity_scale=10 / 3)
    start = time.perf_counter()
    matching = solve_matching(network, demand)
    decomposition = decompose_flows(network, demand, matching)
    system = generate_constraints_algorithm1(network, demand, matching,
                                             decomposition)
    options = OutcomeOptions(
        fixed_fare_operators=frozenset({RAIL_OPERATOR}))
    outcome = solve_outcome(
        build_outcome_lp(system, ObjectivePolicy(global_mode=SELLER_OPTIMAL),
                         options),
        matching=matching, network=network)
    elapsed = time.perf_counter() - start
    return dict(network=network, demand=demand, matching=matching,
                system=system, outcome=outcome, elapsed=elapsed)


def test_criterion4_objective(sioux_falls):
    network, matching = sioux_falls["network"], sioux_falls["matching"]
    published = _published_flows()
    implied = (sum(flow * network.by_arc[arc].travel_cost
                   for arc, flow in published.items())
               + sum(l.operating_cost for l in network.links))
    rel = abs(matching.objective - implied) / implied
    _gate("criterion 4: matching objective matches the published flow table "
          "within 1e-6 relative",
          rel <= PUBLISHED_OBJECTIVE_REL_TOL,
          f"phi={matching.objective:.1f}, implied={implied:.1f}, rel={rel:.2e}")
    diffs = [(arc, flow, matching.total_flow(arc))
             for arc, flow in sorted(published.items())
             if abs(matching.total_flow(arc) - flow) > 1.0]
    _info("criterion 4: link-flow discrepancies vs published table "
          "(alternative optima, equal objective)",
          f"{len(diffs)} links differ by more than 1 unit")
    for arc, want, got in diffs:
        _info(f"criterion 4:   link {arc}", f"published {want:.0f}, "
              f"computed {got:.1f}")


def test_criterion4_rail_fare(sioux_falls):
    m = sioux_falls["outcome"].operators[RAIL_OPERATOR]
    ok = (m.avg_fare == pytest.approx(1.0, abs=1e-6)
          and m.min_fare == pytest.approx(1.0, abs=1e-6)
          and m.max_fare == pytest.approx(1.0, abs=1e-6))
    _gate("criterion 4: rail fixed fare avg=min=max=1.00", ok,
          f"avg={m.avg_fare:.6f}, min={m.min_fare:.6f}, max={m.max_fare:.6f}")


def test_criterion4_buyer_vertex(sioux_falls):
    buyer = solve_outcome(
        build_outcome_lp(sioux_falls["system"],
                         ObjectivePolicy(global_mode=BUYER_OPTIMAL)),
        matching=sioux_falls["matching"], network=sioux_falls["network"])
    _gate("criterion 4: the buyer-optimal vertex solves",
          buyer.status == "optimal",
          f"status {buyer.status}, objective {buyer.objective}")


def test_criterion4_rail_ridership(sioux_falls):
    got = sioux_falls["outcome"].operators[RAIL_OPERATOR].ridership
    rel = abs(got - PUBLISHED_RAIL_RIDERSHIP) / PUBLISHED_RAIL_RIDERSHIP
    # the published figure exceeds the total flow entering rail stations, so
    # no path decomposition of the published link flows can reach it; see the
    # project notes for the full analysis
    _gate("criterion 4: rail ridership within 1% of 217,466", rel <= 0.01,
          f"got {got:.0f}, rel diff {rel:.3f}")


def test_criterion4_bus_ridership(sioux_falls):
    got = sioux_falls["outcome"].operators[BUS_OPERATOR].ridership
    rel = abs(got - PUBLISHED_BUS_RIDERSHIP) / PUBLISHED_BUS_RIDERSHIP
    # counterpart of the rail inconsistency: travelers the published table
    # counts on rail appear here on bus-only paths
    _gate("criterion 4: bus ridership within 1% of 274,900", rel <= 0.01,
          f"got {got:.0f}, rel diff {rel:.3f}")


def test_criterion4_reported_figures(sioux_falls):
    outcome = sioux_falls["outcome"]
    total_revenue = sum(m.revenue for m in outcome.operators.values())
    _info("criterion 4: total revenue (not gating)",
          f"computed {total_revenue:.0f}, published "
          f"{PUBLISHED_TOTAL_REVENUE:.0f}")
    for f, published in sorted(PUBLISHED_OPERATING_COSTS.items()):
        got = outcome.operators[f].operating_cost
        _info(f"criterion 4: operator {f} operating cost (not gating)",
              f"computed {got:.0f}, published figure {published:g}")


def test_criterion4_runtime(sioux_falls):
    _gate("criterion 4: constraint generation + outcome solve under 5 min",
          sioux_falls["elapsed"] < 300, f"{sioux_falls['elapsed']:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5 and 6 share the seeded random-instance corpus


@pytest.fixture(scope="module")
def corpus():
    instances = []
    for seed in CORPUS_SEEDS:
        network, demand = random_instance(seed)
        instances.append((seed, network, demand,
                          pipeline_artifacts(network, demand)))
    return instances


def _gate_over_corpus(label, corpus, check):
    failures, applicable = [], 0
    for seed, network, demand, artifacts in corpus:
        verdict = check(seed, network, demand, artifacts)
        if verdict is None:
            continue
        applicable += 1
        if verdict is not True:
            failures.append((seed, verdict))
    _gate(label, not failures and applicable >= 10,
          f"{applicable - len(failures)}/{applicable} seeds, "
          f"failures={failures}")


def _gate_over_seeds(label, check, needed=10, seed_cap=100):
    failures, applicable, seed = [], 0, 0
    while applicable < needed and seed < seed_cap:
        network, demand = random_instance(seed)
        verdict = check(seed, network, demand)
        seed += 1
        if verdict is None:
            continue
        applicable += 1
        if verdict is not True:
            failures.append((seed - 1, verdict))
    _gate(label, not failures and applicable >= needed,
          f"{applicable - len(failures)}/{applicable} seeds "
          f"(scanned {seed}), failures={failures}")


def test_criterion5_acquisition():
    def check(seed, network, demand):
        _, _, _, system = pipeline_artifacts(network, demand)
        if len(system.covers) < 2:
            return None
        seller = solve_outcome(build_outcome_lp(
            system, ObjectivePolicy(global_mode=SELLER_OPTIMAL)))
        if seller.status != "optimal":
            return None
        acquired = sorted(system.covers)[-1]
        modes = {f: "revenue_max" for f in system.covers}
        modes[acquired] = "welfare_max"
        out = solve_outcome(build_outcome_lp(
            system, ObjectivePolicy(per_operator=modes)))
        if out.status != "optimal":
            return f"acquisition vertex {out.status}"
        gap = out.operators[acquired].revenue \
            - seller.operators[acquired].revenue
        return True if gap <= 1e-6 else f"revenue rose by {gap}"

    _gate_over_seeds(
        "criterion 5a: acquisition never raises the acquired operator's "
        "revenue", check)


def test_criterion5_capacity_dual():
    from maas_market.matching import _routable

    def check(seed, network, demand):
        # squeeze the most loaded link until its capacity dual binds
        matching = solve_matching(network, demand)
        loaded = max(network.links, key=lambda l: matching.total_flow(l.arc))
        flow = matching.total_flow(loaded.arc)
        if flow <= 0:
            return None

        def with_cap(cap):
            return Network(
                nodes=network.nodes,
                links=tuple(Link(l.tail, l.head, l.travel_cost,
                                 l.operating_cost,
                                 cap if l.arc == loaded.arc else l.capacity,
                                 l.owner)
                            for l in network.links))

        tight = with_cap(flow * 0.6)
        if not _routable(tight, demand):
            return None
        matching1 = solve_matching(tight, demand)
        duals1 = matching1.duals
        if duals1[loaded.arc] <= 1e-6:
            return None
        relaxed = with_cap(flow * 0.9)
        matching2 = solve_matching(relaxed, demand)
        duals2 = matching2.duals
        gap = duals2[loaded.arc] - duals1[loaded.arc]
        return True if gap <= 1e-6 else f"mu rose by {gap}"

    _gate_over_seeds(
        "criterion 5b: raising a binding capacity never raises its dual",
        check)


def test_criterion5_subsidy(corpus):
    def check(seed, network, demand, artifacts):
        matching, _, decomposition, system = artifacts
        buyer = solve_outcome(build_outcome_lp(
            system, ObjectivePolicy(global_mode=BUYER_OPTIMAL)),
            tie_break=False)
        if buyer.status != "optimal":
            return None
        operated = [l for l in network.links
                    if matching.activations[l.arc] and l.operating_cost > 0
                    and l.owner != 0]
        if not operated:
            return None
        subsidies = {operated[0].arc: operated[0].operating_cost * 0.5}
        bigger = generate_constraints_algorithm1(
            network, demand, matching, decomposition, subsidies=subsidies)
        for f, (terms, rhs) in bigger.covers.items():
            lhs = sum(z * buyer.prices[(od, nodes, f)]
                      for od, nodes, z in terms)
            if lhs < rhs - 1e-6:
                return f"cover {f} violated"
        for row in bigger.stability_rows:
            lhs = buyer.surplus[row.group] + sum(
                buyer.prices[(row.group, nodes, f)] for nodes, f in row.terms)
            if lhs < row.bound - 1e-6:
                return f"stability row for {row.group} violated"
        return True if check_core_nonempty(bigger) else "core emptied"

    _gate_over_corpus(
        "criterion 5c: a subsidy keeps every stable point stable",
        corpus, check)


def test_criterion5_merge(corpus):
    def check(seed, network, demand, artifacts):
        _, _, _, system = artifacts
        if not check_core_nonempty(system):
            return None
        merged = Network(
            nodes=network.nodes,
            links=tuple(Link(l.tail, l.head, l.travel_cost, l.operating_cost,
                             l.capacity, 1 if l.owner != 0 else 0)
                        for l in network.links))
        _, _, _, merged_system = pipeline_artifacts(merged, demand)
        return True if check_core_nonempty(merged_system) \
            else "merged core empty"

    _gate_over_corpus(
        "criterion 5d: merging all operators preserves the nonempty core",
        corpus, check)


def test_criterion6_invariants(corpus):
    start = time.perf_counter()

    def conservation(seed, network, demand, artifacts):
        matching = artifacts[0]
        for entry in demand.entries:
            per_od = matching.flows.get(entry.od, {})
            for node in network.nodes:
                balance = (sum(v for (t, _), v in per_od.items() if t == node)
                           - sum(v for (_, h), v in per_od.items()
                                 if h == node))
                expected = (entry.demand if node == entry.origin else
                            -entry.demand if node == entry.destination
                            else 0.0)
                if abs(balance - expected) > 1e-5:
                    return f"node {node} od {entry.od}"
        for link in network.links:
            total = matching.total_flow(link.arc)
            if total > link.capacity * matching.activations[link.arc] + 1e-6:
                return f"capacity {link.arc}"
        return True

    def complementary_slackness(seed, network, demand, artifacts):
        matching, duals = artifacts[0], artifacts[1]
        for link in network.links:
            if duals[link.arc] > 1e-6:
                slack = link.capacity - matching.total_flow(link.arc)
                if abs(slack) > 1e-5 + 1e-6 * link.capacity:
                    return f"{link.arc} dual without saturation"
        return True

    def decomposition_complete(seed, network, demand, artifacts):
        matching, decomposition = artifacts[0], artifacts[2]
        for entry in demand.entries:
            flows = flows_for(decomposition, entry.od)
            if abs(sum(z for _, z in flows) - entry.demand) > 1e-5:
                return f"total for {entry.od}"
            rebuilt = {}
            for path, z in flows:
                for arc in path.arcs:
                    rebuilt[arc] = rebuilt.get(arc, 0.0) + z
            for arc, v in matching.flows.get(entry.od, {}).items():
                if abs(rebuilt.get(arc, 0.0) - v) > 1e-5:
                    return f"arc {arc} for {entry.od}"
        return True

    def strong_duality(seed, network, demand, artifacts):
        matching = artifacts[0]
        lp, _, _, _ = flow_lp(network, demand, matching.activations)
        res = solve_lp(lp)
        if res.status != "optimal":
            return res.status
        dual_obj = sum(dual * row.rhs
                       for dual, row in zip(res.duals, lp.rows))
        gap = abs(dual_obj - res.objective)
        return True if gap <= 1e-6 * max(1.0, abs(res.objective)) \
            else f"gap {gap}"

    def transfer_identity(seed, network, demand, artifacts):
        system = artifacts[3]
        for mode in (BUYER_OPTIMAL, SELLER_OPTIMAL):
            out = solve_outcome(build_outcome_lp(
                system, ObjectivePolicy(global_mode=mode)))
            if out.status != "optimal":
                continue
            for od, pset in system.groups.items():
                for info in pset.paths:
                    total = out.surplus[od] + sum(
                        out.prices[(od, info.nodes, f)]
                        for f in info.operators)
                    if abs(total - (pset.utility - info.travel_cost)) > 1e-9:
                        return f"{mode} path {info.nodes}"
        return True

    def buyer_seller_ordering(seed, network, demand, artifacts):
        system = artifacts[3]
        buyer = solve_outcome(build_outcome_lp(
            system, ObjectivePolicy(global_mode=BUYER_OPTIMAL)))
        seller = solve_outcome(build_outcome_lp(
            system, ObjectivePolicy(global_mode=SELLER_OPTIMAL)))
        if buyer.status != "optimal":
            return True if seller.status != "optimal" else "status mismatch"
        if buyer.consumer_surplus < seller.consumer_surplus - 1e-6:
            return "surplus ordering"
        if (sum(m.revenue for m in seller.operators.values())
                < sum(m.revenue for m in buyer.operators.values()) - 1e-6):
            return "revenue ordering"
        return True

    def lambda_scaling(seed, network, demand, artifacts):
        matching = artifacts[0]
        lam = 1.7
        scaled = Network(
            nodes=network.nodes,
            links=tuple(Link(l.tail, l.head, l.travel_cost * lam,
                             l.operating_cost * lam, l.capacity, l.owner)
                        for l in network.links))
        other = solve_matching(scaled, demand)
        if abs(other.objective - lam * matching.objective) \
                > 1e-8 * max(1.0, abs(matching.objective)):
            return "objective"
        return True if other.activations == matching.activations \
            else "activations"

    invariants = [
        ("conservation and capacity", conservation),
        ("complementary slackness", complementary_slackness),
        ("decomposition completeness", decomposition_complete),
        ("strong duality of the fixed-activation LP", strong_duality),
        ("per-path transfer identity", transfer_identity),
        ("buyer/seller vertex ordering", buyer_seller_ordering),
        ("uniform cost scaling", lambda_scaling),
    ]
    for label, check in invariants:
        _gate_over_corpus(f"criterion 6: {label}", corpus, check)
    _gate("criterion 6: invariant corpus under 3 minutes",
          time.perf_counter() - start < 180,
          f"{time.perf_counter() - start:.1f}s")
