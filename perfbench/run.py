"""Benchmark of mqamlink: four closed-loop workloads timed from outside.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each workload runs in fresh worker processes (worker.py) started from
the root of the checkout, with the program imported from `src/`. With
`--trace 0` the last line of standard output is one JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
of a traced run. `--workload all` runs every workload in turn, prints a
table, and ends with one JSON object keyed by workload. See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import import_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# set-up is timed in this many extra fresh processes before the measuring
# one and as many after it, so that the probes span the whole run, and
# reported as the median of all of them
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    """Run one worker process; returns its result with `setup_s` added."""
    importtime = ["-X", "importtime"] if mode == "trace" else []
    cmd = [sys.executable, *importtime, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("t_ready") - started
    if mode == "trace" and "cli.import_ms" not in result["metrics"]:
        result["metrics"].update(import_ms(proc.stderr))
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        result = _worker(workload, seed, seconds, "trace")
        metrics, units = result["metrics"], PER_LAYER_UNITS
    else:
        setups = [_worker(workload, seed, seconds, "setup")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker(workload, seed, seconds, "measure")
        setups.append(result["setup_s"])
        setups += [_worker(workload, seed, seconds, "setup")["setup_s"]
                   for _ in range(SETUP_PROBES)]
        metrics = dict(result["metrics"], setup_s=statistics.median(setups))
        units = END_TO_END_UNITS
    if set(metrics) != set(units):
        raise BenchmarkError(f"{workload}: metrics {sorted(metrics)} != {sorted(units)}")
    for op, found in result["problems"].items():
        print(f"{workload} operation {op} failed: {'; '.join(found)}", file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(BENCH["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mqamlink" / "cli.py").is_file():
        print(f"error: no mqamlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = result = run_workload(workload, args.seed, args.seconds,
                                                      bool(args.trace))
            print(f"{workload}: attempted={result['attempted']} failed={result['failed']} "
                  f"correct={result['correct']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
        print(json.dumps(results))
        return 0
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
