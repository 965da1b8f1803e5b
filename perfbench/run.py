"""Benchmark of the maas-market equilibrium pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (sioux-falls, random-corpus or operator-sweep) in a fresh
worker process with single-threaded BLAS and OpenMP and the checkout's
``src`` on the import path.  With ``--trace 0`` it first starts the worker
twice more for set-up alone, and reports the median set-up time of the three.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every run is also
appended to ``perfbench/records/runs.jsonl``.  A failed worker, a wrong
answer or a missing ``src/maas_market`` ends the run with a non-zero status
and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = HERE / "records"
SETUP_SAMPLES = 3
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args, deadline):
    """Run the worker to its end; its result, with the set-up time measured
    from just before the process was started."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args], env=worker_env(),
        stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_call"] - started
    return result


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maas_market" / "__init__.py").is_file():
        raise SystemExit(f"no src/maas_market package under {ROOT}")

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn([*common, "--seconds", "0", "--setup-only"],
                                deadline)["setup_s"])
    result = spawn([*common, "--seconds", str(args.seconds),
                    "--trace", str(args.trace)], deadline)
    setups.append(result["setup_s"])

    if args.trace:
        values, listed = result["layers"], spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(result["round_ms"]) / 1000.0,
                  "unit_ms_p50": statistics.median(result["unit_ms"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    RECORDS.mkdir(parents=True, exist_ok=True)
    with open(RECORDS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "time": time.time(), "setup_samples_s": setups,
                             "metrics": metrics, **result}) + "\n")
    for error in result["errors"]:
        print(f"failed operation: {error}")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
