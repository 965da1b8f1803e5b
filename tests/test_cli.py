import json

import pytest

from maas_market import dump_demand, dump_network, fig5
from maas_market import cli
from maas_market import matching as matching_module
from maas_market.cli import main, run_pipeline
from maas_market.randnet import random_instance
from maas_market.scenario import PolicyAnnotations


def _write(path, text):
    path.write_text(text)
    return str(path)


def _random_files(tmp_path, seed):
    network, demand = random_instance(seed)
    dump_network(network, tmp_path / "network.csv")
    dump_demand(demand, tmp_path / "demand.csv")
    return str(tmp_path / "network.csv"), str(tmp_path / "demand.csv")


@pytest.fixture()
def fig5_files(tmp_path):
    assert main(["fixtures", "--which", "fig5", "--out", str(tmp_path)]) == 0
    return str(tmp_path / "network.csv"), str(tmp_path / "demand.csv")


def test_fixtures_writes_inputs(tmp_path, capsys):
    assert main(["fixtures", "--which", "fig5", "--out", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["links"] == 11 and doc["od_pairs"] == 2
    assert (tmp_path / "network.csv").exists()
    assert (tmp_path / "demand.csv").exists()


def test_one_flow_lp_solve_per_equilibrium(monkeypatch):
    # the flow LP gives the flows and the capacity duals in one solve
    solves = []
    solve_lp = matching_module.solve_lp

    def counted(lp, *args, **kwargs):
        solves.append(lp)
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(matching_module, "solve_lp", counted)
    for network, demand in (fig5(), random_instance(3)):
        solves.clear()
        run_pipeline(network, demand, PolicyAnnotations())
        assert len(solves) == 1


def test_run_golden_instance(tmp_path, fig5_files, capsys):
    network, demand = fig5_files
    out = tmp_path / "out"
    code = main(["run", "--network", network, "--demand", demand,
                 "--out", str(out)])
    assert code == 0
    for name in ("link_flows.csv", "commodity_flows.csv", "link_status.csv",
                 "path_flows.csv", "constraints.txt", "outcome_buyer.json",
                 "outcome_seller.json", "metrics.json", "timings.json"):
        assert (out / name).exists(), name
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["matching_objective"] == pytest.approx(12000.0)
    buyer = json.loads((out / "outcome_buyer.json").read_text())
    surplus = {(s["origin"], s["destination"]): s["u"]
               for s in buyer["surplus"]}
    assert surplus[(1, 3)] == pytest.approx(13.0)
    assert surplus[(1, 4)] == pytest.approx(28 / 3)
    seller = json.loads((out / "outcome_seller.json").read_text())
    revenue = {m["operator"]: m["revenue"] for m in seller["operators"]}
    assert revenue[1] == pytest.approx(15600.0)
    assert revenue[3] == pytest.approx(200.0)
    assert revenue[4] == pytest.approx(3000.0)
    assert all(s["u"] == pytest.approx(0.0, abs=1e-9)
               for s in seller["surplus"])


def test_run_reproducible_artifacts(tmp_path, fig5_files):
    network, demand = fig5_files
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--network", network, "--demand", demand,
                     "--out", str(out)]) == 0
        outs.append(out)
    for child in sorted(outs[0].iterdir()):
        if child.name == "timings.json":
            continue
        assert child.read_bytes() == (outs[1] / child.name).read_bytes(), \
            child.name


def test_run_zero_demand(tmp_path, fig5_files):
    network, _ = fig5_files
    demand = _write(tmp_path / "empty.csv", "origin,destination,demand,utility\n")
    code = main(["run", "--network", network, "--demand", demand,
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_run_infeasible_demand_exit_2(tmp_path, capsys):
    network = _write(tmp_path / "net.csv",
                     "tail,head,travel_cost,operating_cost,capacity,owner\n"
                     "1,2,1,1,1,1\n")
    demand = _write(tmp_path / "dem.csv",
                    "origin,destination,demand,utility\n1,2,5,100\n")
    code = main(["run", "--network", network, "--demand", demand,
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error_class"] == "infeasible_demand"
    assert err["offending_ods"] == [[1, 2]]


def test_run_missing_input_file_exit_1(tmp_path, fig5_files, capsys):
    _, demand = fig5_files
    code = main(["run", "--network", str(tmp_path / "missing.csv"),
                 "--demand", demand, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error_class"] == "io"
    assert "missing.csv" in record["message"]


@pytest.mark.parametrize("extra, message", [
    (["--demand", "DEMAND", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: --demand"),
])
def test_bad_command_line_exit_1(fig5_files, capsys, extra, message):
    network, demand = fig5_files
    extra = [demand if arg == "DEMAND" else arg for arg in extra]
    assert main(["run", "--network", network, *extra]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error_class"] == "validation"
    assert message in record["message"]


def test_engine_option_is_gone(fig5_files, capsys):
    # one MILP solver is left, so there is no solver to choose
    network, demand = fig5_files
    assert main(["run", "--network", network, "--demand", demand,
                 "--engine", "bundled"]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error_class"] == "validation"
    assert "unrecognized arguments: --engine bundled" in record["message"]


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--network" in capsys.readouterr().out


@pytest.mark.parametrize("given", ["--network", "--demand"])
def test_bench_needs_network_and_demand_together(fig5_files, capsys, given):
    network, demand = fig5_files
    code = main(["bench", given, network if given == "--network" else demand])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err)["error_class"] == "validation"


def test_run_empty_core_exit_3(tmp_path, capsys):
    # cheap rival with tiny capacity makes the monopoly cover unsupportable:
    # the cover needs p >= 10 per rider but stability caps u + p at omega = 1
    network = _write(tmp_path / "net.csv",
                     "tail,head,travel_cost,operating_cost,capacity,owner\n"
                     "1,2,0,100,10,1\n"
                     "1,3,0,0.5,1,2\n"
                     "3,2,0,0.5,1,2\n")
    demand = _write(tmp_path / "dem.csv",
                    "origin,destination,demand,utility\n1,2,10,20\n")
    code = main(["run", "--network", network, "--demand", demand,
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error_class"] == "empty_core"


def test_run_with_scenario_and_fixed_fare(tmp_path, fig5_files):
    network, demand = fig5_files
    scenario = _write(tmp_path / "scenario.json", json.dumps([
        {"edit": "set_objective_policy", "operator": 1, "mode": "revenue_max"},
        {"edit": "set_fixed_fare", "operator": 3},
    ]))
    out = tmp_path / "out"
    code = main(["run", "--network", network, "--demand", demand,
                 "--scenario", scenario, "--out", str(out)])
    assert code == 0
    custom = json.loads((out / "outcome_custom.json").read_text())
    assert custom["status"] == "optimal"
    fares = [m for m in custom["operators"] if m["operator"] == 3][0]
    assert fares["min_fare"] == pytest.approx(fares["max_fare"])


def test_compare_identity_scenario_zero_deltas(tmp_path, fig5_files, capsys):
    network, demand = fig5_files
    scenario = _write(tmp_path / "scenario.json",
                      json.dumps([{"edit": "scale_travel", "factor": 1.0}]))
    out = tmp_path / "cmp"
    code = main(["compare", "--network", network, "--demand", demand,
                 "--scenario", scenario, "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "compare.json").read_text())
    assert doc["deltas"]
    for entry in doc["deltas"]:
        for value in (entry.get("delta") or {}).values():
            assert value == pytest.approx(0.0, abs=1e-6)
    assert (out / "compare.csv").read_text().startswith(
        "policy,operator,metric,base,scenario,delta\n")


@pytest.mark.parametrize("edit, solves", [
    ({"edit": "set_fixed_fare", "operator": 3}, 1),
    ({"edit": "merge_operators", "sources": [1, 3], "target": 1}, 1),
    ({"edit": "set_capacity", "tail": 1, "head": 21, "capacity": 300}, 2),
])
def test_compare_reuses_the_base_matching(tmp_path, fig5_files, monkeypatch,
                                          capsys, edit, solves):
    """An owner or policy scenario keeps every input the matching reads, so
    ``compare`` solves it once; a capacity edit makes it solve again."""
    network, demand = fig5_files
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return matching_module.solve_matching(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_matching", counted)
    scenario = _write(tmp_path / "scenario.json", json.dumps([edit]))
    code = main(["compare", "--network", network, "--demand", demand,
                 "--scenario", scenario, "--out", str(tmp_path / "cmp")])
    assert code == 0
    assert len(calls) == solves


def test_bench_agreement(tmp_path, fig5_files, capsys):
    network, demand = fig5_files
    out = tmp_path / "bench.jsonl"
    code = main(["bench", "--network", network, "--demand", demand,
                 "--random", "2", "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3
    for record in lines:
        if "enumeration_rows" in record:
            assert record["buyer_agree"] and record["seller_agree"]


def test_lemma_subcommands(capsys):
    code = main(["lemma1", "--t12", "1", "--t23", "1", "--t13", "3",
                 "--c12", "10", "--c23", "10", "--c13", "50", "--d", "100"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw"] == pytest.approx(-50.8)
    assert doc["clamped"] == 0.0
    code = main(["lemma2", "--t23-small", "2", "--t23-large", "5",
                 "--c23-large", "3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["bound"] == pytest.approx(6.0)


def test_lemma_precondition_exit_1(capsys):
    code = main(["lemma1", "--t12", "10", "--t23", "10", "--t13", "1",
                 "--c12", "50", "--c23", "50", "--c13", "1", "--d", "10"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error_class"] == "validation"


LEMMA1 = ["lemma1", "--t12", "1", "--t23", "1", "--t13", "3", "--c12", "10",
          "--c23", "10", "--c13", "50"]


NETWORK_HEADER = b"tail,head,travel_cost,operating_cost,capacity,owner\n"
DEMAND_HEADER = b"origin,destination,demand,utility\n"


# ``edit`` is written as a one-edit scenario; ``raw`` is the content of the
# file given to the last option in ``argv``, in place of a fig5 input
@pytest.mark.parametrize("argv, edit, raw, error_class, message", [
    pytest.param(["fixtures", "--which", "sioux-falls", "--transfer-cost", "-1"], None,
                 None, "validation", "transfer", id="negative-transfer-cost"),
    pytest.param(LEMMA1 + ["--d", "0"], None, None, "validation", "demand positive",
                 id="lemma1-zero-demand"),
    pytest.param(LEMMA1 + ["--d", "nan"], None, None, "validation",
                 "d must be finite, got nan", id="lemma1-nan-demand"),
    pytest.param(["lemma2", "--t23-small", "6", "--t23-large", "5", "--c23-large", "1"],
                 None, None, "validation", "at least as fast",
                 id="lemma2-slower-small-operator"),
    pytest.param(["lemma2", "--t23-small", "nan", "--t23-large", "5", "--c23-large", "1"],
                 None, None, "validation", "t23_small must be finite, got nan",
                 id="lemma2-nan-time"),
    pytest.param(["run"], {"edit": "merge_operators", "sources": [1.5], "target": 1}, None,
                 "scenario", "malformed merge_operators", id="fractional-operator"),
    pytest.param(["run"], {"edit": "set_capacity", "tail": 1.9, "head": 3, "capacity": 10},
                 None, "scenario", "malformed set_capacity", id="fractional-node"),
    pytest.param(["run"], {"edit": "set_fixed_fare", "operator": 1, "flag": "false"}, None,
                 "scenario", "malformed set_fixed_fare", id="string-flag"),
    pytest.param(["run"], {"edit": "scale_costs", "operator": True, "factor": 2}, None,
                 "scenario", "malformed scale_costs", id="boolean-operator"),
    pytest.param(["run"], {"edit": "set_capacity", "tail": 1, "head": 3, "capacity": True},
                 None, "scenario", "entry 0: malformed set_capacity", id="boolean-capacity"),
    pytest.param(["run"], {"edit": "subsidy", "tail": 1, "head": 3, "gamma": False}, None,
                 "scenario", "entry 0: malformed subsidy", id="boolean-gamma"),
    pytest.param(["run"], {"edit": "scale_travel", "operater": 3, "factor": 2}, None,
                 "scenario", "entry 0: malformed scale_travel edit: unknown keys ['operater']",
                 id="stray-operator-key"),
    pytest.param(["run"], {"edit": "set_fixed_fare", "operator": 1, "flg": False}, None,
                 "scenario", "entry 0: malformed set_fixed_fare edit: unknown keys ['flg']",
                 id="stray-flag-key"),
    pytest.param(["run"], {"edit": "set_objective_policy", "operator": 0,
                           "mode": "revenue_max"}, None,
                 "scenario", "operator 0 is the platform", id="platform-objective-mode"),
    pytest.param(["run", "--fixed-fare", "0"], None, None, "validation",
                 "--fixed-fare: operator 0 is the platform", id="platform-fixed-fare"),
    pytest.param(["run", "--fixed-fare", "42"], None, None, "validation",
                 "--fixed-fare: unknown operator 42", id="unknown-fixed-fare"),
    # operator 2 is gone once the scenario has merged it into operator 1
    pytest.param(["run", "--fixed-fare", "2"],
                 {"edit": "merge_operators", "sources": [2], "target": 1}, None,
                 "validation", "--fixed-fare: unknown operator 2", id="merged-fixed-fare"),
    pytest.param(["bench", "--random", "1"], {"edit": "set_fixed_fare", "operator": 1},
                 None, "validation", "need --network",
                 id="bench-scenario-without-network"),
    pytest.param(["bench", "--random", "1", "--fixed-fare", "1"], None, None,
                 "validation", "need --network", id="bench-fixed-fare-without-network"),
    pytest.param(["run"], {"edit": ["x"]}, None, "scenario",
                 "entry 0: unknown edit type ['x']", id="list-edit-type"),
    pytest.param(["run"], {"edit": "subsidy", "tail": 9, "head": 9, "gamma": 1}, None,
                 "scenario", "subsidy: no link (9, 9)", id="subsidy-missing-link"),
    pytest.param(["run"], {"edit": "add_links", "links": [
                     {"tail": 1, "head": 3, "travel_cost": 1, "operating_cost": 1,
                      "capacity": 10, "owner": 1}]}, None,
                 "scenario", "add_links: link (1, 3) already exists", id="add-existing-link"),
    pytest.param(["run"], {"edit": "set_objective_policy", "operator": 1, "mode": "greedy"},
                 None, "scenario", "unknown objective mode 'greedy'",
                 id="unknown-objective-mode"),
    pytest.param(["run"], {"edit": "remove_links", "links": [[1, 3]]}, None, "scenario",
                 "entry 0: malformed remove_links edit: [1, 3] is not an object",
                 id="remove-links-entry-not-object"),
    # a later edit lowers the cost below an earlier subsidy
    pytest.param(["run", "--scenario"], None,
                 b'[{"edit": "subsidy", "tail": 1, "head": 3, "gamma": 150}, '
                 b'{"edit": "scale_costs", "operator": 1, "factor": 0.5}]', "scenario",
                 "subsidy on (1, 3) exceeds its operating cost after edits",
                 id="subsidy-above-cost-after-edits"),
    # node 99 is in neither fig5 nor the scenario's links: nothing removed it
    pytest.param(["run", "--demand"], {"edit": "set_fixed_fare", "operator": 1},
                 DEMAND_HEADER + b"1,99,10,30\n", "scenario",
                 "demand node in neither the network nor the scenario's links: "
                 "OD (1, 99): node 99 not in network", id="demand-node-outside-network"),
    pytest.param(["run", "--scenario"], None, b'[{"edit": "set_capacity", "tail"',
                 "scenario", "scenario is not a JSON document", id="truncated-scenario"),
    pytest.param(["run", "--scenario"], None,
                 b'[{"edit": "set_capacity", "tail": 1, "head": 21, "capacity": 500, '
                 b'"capacity": 5}]', "scenario",
                 "scenario is not a JSON document: repeated keys ['capacity']",
                 id="repeated-key"),
    pytest.param(["run", "--scenario"], None, b"\xff\xfe[]", "scenario",
                 "scenario is not a JSON document", id="utf16-scenario"),
    pytest.param(["run", "--scenario"], None, b"[" * 100_000, "scenario",
                 "scenario is not a JSON document", id="deeply-nested-scenario"),
    pytest.param(["run", "--network"], None, NETWORK_HEADER + b"1,2,3,4,5,1,9\n",
                 "validation", "line 2: malformed row ['1', '2', '3', '4', '5', '1', '9']",
                 id="network-row-too-wide"),
    pytest.param(["run", "--network"], None, NETWORK_HEADER + b"1,2,3,4,5,-1\n",
                 "validation", "link (1, 2): owner must be a non-negative id",
                 id="network-negative-owner"),
    pytest.param(["run", "--demand"], None, DEMAND_HEADER + b"1,1,10,20\n",
                 "validation", "OD (1, 1): origin equals destination",
                 id="demand-origin-is-destination"),
    pytest.param(["run", "--demand"], None, DEMAND_HEADER + b"1,3,10,-1\n",
                 "validation", "OD (1, 3): utility must be non-negative",
                 id="demand-negative-utility"),
    pytest.param(["run", "--network"], None,
                 NETWORK_HEADER + b"1,2,3,4,5,1\n1,3,3,4,5,\xff\n", "validation",
                 "line 3: 'utf-8' codec can't decode", id="network-not-utf8"),
    pytest.param(["bench"], None, None, "validation",
                 "--network with --demand or --random >= 1", id="bench-without-inputs"),
    pytest.param(["bench", "--random", "-3"], None, None, "validation", "--random >= 0",
                 id="bench-negative-random"),
    pytest.param(["bench", "--random", "1", "--enum-cap", "-1"], None, None, "validation",
                 "--enum-cap >= 1", id="bench-negative-enum-cap"),
    pytest.param(["enumerate-paths", "--cap", "0"], None, None, "validation",
                 "--cap >= 1", id="enumerate-paths-zero-cap"),
])
def test_bad_input_prints_one_error_line(tmp_path, fig5_files, capsys, argv, edit, raw,
                                         error_class, message):
    if raw is not None:
        (tmp_path / "raw").write_bytes(raw)
        argv = [*argv, str(tmp_path / "raw")]
    if argv[0] in ("fixtures", "run"):
        argv = [*argv, "--out", str(tmp_path / "out")]
    if argv[0] in ("run", "enumerate-paths"):
        # argparse keeps the last value, so a raw input given above wins
        argv = [*argv[:1], "--network", fig5_files[0], "--demand", fig5_files[1], *argv[1:]]
    if edit is not None:
        argv += ["--scenario", _write(tmp_path / "scenario.json", json.dumps([edit]))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error_class"] == error_class
    assert message in record["message"]


def test_enumerate_paths(fig5_files, capsys):
    network, demand = fig5_files
    code = main(["enumerate-paths", "--network", network, "--demand", demand])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "origin,destination,path,travel_cost,deviation_cost"
    rows = [l.split(",") for l in lines[1:]]
    paths = {r[2] for r in rows if (r[0], r[1]) == ("1", "3")}
    assert "1-3" in paths and "1-21-22-3" in paths


def test_enumerate_paths_over_cap_exit_4(fig5_files, capsys):
    network, demand = fig5_files
    code = main(["enumerate-paths", "--network", network, "--demand", demand,
                 "--cap", "1"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error_class"] == "path_cap"


def test_enumerate_paths_stdout_is_csv(tmp_path, capfd):
    # HiGHS's own MIP solver printed debug text to C-level stdout on this
    # instance; no solver text may reach the CSV
    network, demand = _random_files(tmp_path, 7088)
    code = main(["enumerate-paths", "--network", network, "--demand", demand])
    assert code == 0
    lines = capfd.readouterr().out.splitlines()
    assert lines[0] == "origin,destination,path,travel_cost,deviation_cost"
    assert not any("Highs" in line for line in lines)


def test_bench_capped_enumeration_records_no_agreement(fig5_files, capsys):
    network, demand = fig5_files
    code = main(["bench", "--network", network, "--demand", demand, "--enum-cap", "1"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["enumeration"] == "capped"
    assert not [key for key in record if key.endswith("_agree")]


def test_run_pipeline_rejects_an_unknown_policy():
    network, demand = fig5()
    with pytest.raises(ValueError, match="unknown policy 'both'"):
        run_pipeline(network, demand, PolicyAnnotations(), policies=("both",))


def test_bench_fixed_fare_reaches_outcomes(tmp_path, capsys):
    network, demand = _random_files(tmp_path, 7)
    code = main(["bench", "--network", network, "--demand", demand,
                 "--fixed-fare", "1"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    seller = record["seller_objective"]
    assert seller["lexicographic"] == pytest.approx(547.024, abs=1e-6)
    assert seller["enumeration"] == pytest.approx(547.024, abs=1e-6)
    assert record["seller_agree"] and record["buyer_agree"]
