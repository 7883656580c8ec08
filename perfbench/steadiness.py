"""Steadiness report: how far each end-to-end metric moves between runs.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs the benchmark once per seed on each workload (with the run length
from BENCHMARK.json), writes every result line to
perfbench-out/steadiness.jsonl (replacing what an earlier invocation
left there), and reports on those runs. For each workload and metric the
report gives the median and quartiles over the runs and the spread
(q3 - q1) / median next to the metric's bound, and for each workload the
distinct shares of failed operations, which must be a single value. It
exits 1 if any spread exceeds its bound, the failed share differs
between runs, or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / "perfbench-out" / "steadiness.jsonl"


def run(workloads: list[str], runs: int, first_seed: int, seconds: int) -> list[dict]:
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text("")
    entries = []
    for workload in workloads:
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            entry = {"workload": workload, "seed": seed,
                     **json.loads(proc.stdout.strip().splitlines()[-1])}
            with open(RESULTS, "a") as handle:
                handle.write(json.dumps(entry) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={m['value']:.4g}" for name, m in entry["metrics"].items()),
                file=sys.stderr)
            entries.append(entry)
    return entries


def report(entries: list[dict], bounds: dict[str, float]) -> bool:
    by_workload: dict[str, list[dict]] = {}
    for entry in entries:
        by_workload.setdefault(entry["workload"], []).append(entry)
    steady = True
    for workload, entries in by_workload.items():
        distinct = sorted({e["failed"] / e["attempted"] for e in entries})
        print(f"{workload}: {len(entries)} runs, correct={all(e['correct'] for e in entries)}, "
              f"failed shares {distinct}")
        if len(distinct) > 1 or not all(e["correct"] for e in entries):
            steady = False
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [e["metrics"][name]["value"] for e in entries]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            if spread > bound:
                steady = False
            print(f"  {name:18s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bound:6.0%} {verdict}")
    return steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    entries = run([w["name"] for w in bench["workloads"]], args.runs, args.first_seed,
                  bench["run_seconds"])
    return 0 if report(entries, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
