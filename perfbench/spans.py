"""Spans around the calls into each mqamlink layer, recorded from outside.

`Tracer.install` replaces public functions at the module attribute their
callers look up (for example `mqamlink.modulation.integrate`, which
`avg_ber` calls, or `mqamlink.sweep.optimal_route`) with a wrapper that
records one span per call; `uninstall` puts the originals back. Spans
are kept in memory as (name, op, parent, start, end) and written out
when the run ends. A layer's self time is its span's duration minus the
time its child spans cover.

Run as a script, this module is the traced child of the `cli_fresh`
workload: `python -X importtime spans.py SPANS_OUT -- <mqamlink args>`
runs `mqamlink.cli.main` with the wrappers installed and writes the
spans to SPANS_OUT as JSON.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path
from time import perf_counter

# (module the caller looks the name up in, attribute, span name)
TRACE_POINTS = (
    ("mqamlink.modulation", "integrate", "numerics.integrate"),
    ("mqamlink.modulation", "solve_monotone", "numerics.solve_monotone"),
    ("mqamlink.modulation", "avg_ber", "modulation.avg_ber"),
    ("mqamlink.energy", "required_gamma_b", "modulation.required_gamma_b"),
    ("mqamlink.energy", "outage_probability", "channel.outage_probability"),
    ("mqamlink.network", "link_metrics", "energy.link_metrics"),
    ("mqamlink.sweep", "link_metrics", "energy.link_metrics"),
    ("mqamlink.cli", "link_metrics", "energy.link_metrics"),
    ("mqamlink.sweep", "optimal_route", "network.optimal_route"),
    ("mqamlink.cli", "run_singlehop", "sweep.run"),
    ("mqamlink.cli", "run_multihop", "sweep.run"),
    ("mqamlink.cli", "monte_carlo_outage", "channel.monte_carlo_outage"),
    ("mqamlink.cli", "parse_config", "config.parse_config"),
    ("mqamlink.cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, float, float]] = []
        self.op = 0
        # run totals read off call arguments and results (rows, trials)
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, self.op, parent, start, end)
            if name == "sweep.run":
                counts["sweep.rows"] = counts.get("sweep.rows", 0) + len(result)
                errors = sum(row.error is not None for row in result)
                counts["sweep.error_rows"] = counts.get("sweep.error_rows", 0) + errors
            elif name == "channel.monte_carlo_outage":
                counts["mc.trials"] = counts.get("mc.trials", 0) + args[2]
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def extend(self, spans: list, op: int) -> None:
        """Append spans recorded by another process as operation `op`."""
        offset = len(self.spans)
        for name, _, parent, start, end in spans:
            self.spans.append((name, op, parent + offset if parent >= 0 else -1, start, end))


def layer_metrics(spans: list, counts: dict[str, float], ops: int) -> dict[str, float]:
    """Per-operation calls, self time and ratios of each traced layer."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for name, _, parent, start, end in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = {}
    for (name, _, _, start, end), covered in zip(spans, child_time):
        self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
    # an inversion is cold when avg_ber ran somewhere beneath it
    cold = set()
    for name, _, parent, _, _ in spans:
        if name != "modulation.avg_ber":
            continue
        while parent >= 0 and spans[parent][0] != "modulation.required_gamma_b":
            parent = spans[parent][2]
        if parent >= 0:
            cold.add(parent)

    def per_op(value: float) -> float:
        return value / ops

    def self_ms(name: str) -> float:
        return per_op(self_time.get(name, 0.0) * 1e3)

    rgb_calls = calls.get("modulation.required_gamma_b", 0)
    mc_seconds = total.get("channel.monte_carlo_outage", 0.0)
    return {
        "numerics.integrate.calls_per_op": per_op(calls.get("numerics.integrate", 0)),
        "numerics.integrate.self_ms_per_op": self_ms("numerics.integrate"),
        "numerics.solve_monotone.calls_per_op": per_op(calls.get("numerics.solve_monotone", 0)),
        "modulation.avg_ber.calls_per_op": per_op(calls.get("modulation.avg_ber", 0)),
        "modulation.avg_ber.self_ms_per_op": self_ms("modulation.avg_ber"),
        "modulation.avg_ber.calls_per_inversion": (
            calls.get("modulation.avg_ber", 0) / len(cold) if cold else 0.0
        ),
        "modulation.required_gamma_b.calls_per_op": per_op(rgb_calls),
        "modulation.required_gamma_b.hit_ratio": (
            (rgb_calls - len(cold)) / rgb_calls if rgb_calls else 0.0
        ),
        "energy.link_metrics.calls_per_op": per_op(calls.get("energy.link_metrics", 0)),
        "energy.link_metrics.self_ms_per_op": self_ms("energy.link_metrics"),
        "channel.outage_probability.calls_per_op": per_op(
            calls.get("channel.outage_probability", 0)
        ),
        "channel.monte_carlo_outage.self_ms_per_op": self_ms("channel.monte_carlo_outage"),
        "channel.mc_trials_per_s": counts.get("mc.trials", 0) / mc_seconds if mc_seconds else 0.0,
        "network.optimal_route.calls_per_op": per_op(calls.get("network.optimal_route", 0)),
        "network.optimal_route.self_ms_per_op": self_ms("network.optimal_route"),
        "sweep.run.self_ms_per_op": self_ms("sweep.run"),
        "sweep.rows_per_op": per_op(counts.get("sweep.rows", 0)),
        "sweep.error_rows_per_op": per_op(counts.get("sweep.error_rows", 0)),
        "config.parse_config.ms_per_op": per_op(total.get("config.parse_config", 0.0) * 1e3),
        "cli.main.self_ms_per_op": self_ms("cli.main"),
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def import_ms(stderr: str) -> dict[str, float]:
    """Cumulative import times of mqamlink and numpy from `-X importtime`."""
    found = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match and match.group(4) in ("mqamlink", "numpy"):
            found.setdefault(match.group(4), int(match.group(2)) / 1e3)
    if set(found) != {"mqamlink", "numpy"}:
        raise ValueError("importtime output lacks the mqamlink or numpy line")
    return {"cli.import_ms": found["mqamlink"], "cli.import_ms.numpy": found["numpy"]}


def _traced_child(argv: list[str]) -> int:
    """Run mqamlink's CLI with every trace point wrapped; dump the spans."""
    spans_out, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: spans.py SPANS_OUT -- <mqamlink arguments>")
    import mqamlink.cli

    tracer = Tracer()
    tracer.install()
    code = mqamlink.cli.main(cli_args)
    tracer.uninstall()
    Path(spans_out).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(_traced_child(sys.argv[1:]))
