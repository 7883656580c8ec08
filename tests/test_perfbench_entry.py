"""The program surface that the benchmark harness in `perfbench/` calls.

`perfbench/spans.py` wraps mqamlink functions at the module attributes
their callers look up, and `perfbench/worker.py` checks each operation
against the program's own `link_metrics`. A refactor that renames one of
those attributes, or that makes a caller bind a function at import, would
break `--trace 1` or the benchmark's checks; these tests catch that.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mqamlink import cli
from mqamlink.config import parse_config
from mqamlink.energy import link_metrics
from mqamlink.modulation import BerTarget, ModulationScheme

ROOT = Path(__file__).resolve().parent.parent
SPANS_PY = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only
    return module


def test_every_trace_point_resolves(spans):
    for module_name, attr, _ in spans.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr))


def test_trace_only_names_are_known(spans):
    # the names a module imports only for a trace point to wrap, and never
    # loads itself: they are kept for the benchmark alone, and a name that
    # joins them is one a change left behind
    unused = set()
    for module_name, attr, _ in spans.TRACE_POINTS:
        tree = ast.parse(Path(importlib.import_module(module_name).__file__).read_text())
        if not any(isinstance(node, ast.Name) and node.id == attr
                   and isinstance(node.ctx, ast.Load) for node in ast.walk(tree)):
            unused.add(f"{module_name.rsplit('.', 1)[1]}.{attr}")
    assert unused == {"modulation.integrate", "modulation.solve_monotone", "cli.link_metrics"}


@pytest.mark.parametrize("args, span_names, rows", [
    (["singlehop"], {"sweep.run", "energy.link_metrics", "modulation.required_gamma_b"}, 25),
    # the route search calls no link_metrics: one threshold, then each hop
    (["multihop", "--objective", "delay"],
     {"sweep.run", "network.optimal_route", "modulation.required_gamma_b",
      "channel.outage_probability"}, 25),
    # `validate` reads its links from the singlehop study
    (["validate", "--trials", "10000"],
     {"sweep.run", "channel.monte_carlo_outage", "energy.link_metrics"}, 2),
])
def test_traced_subcommands(spans, tmp_path, args, span_names, rows):
    # the CLI looks each traced function up at call time, so the wrappers see
    # every call, as under `perfbench/run.py --trace 1`
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("b_grid = 4,6\nd_grid_m = 40\n" if args[0] == "validate" else "")
    # `validate` writes no CSV, so it takes no --out
    out = [] if args[0] == "validate" else ["--out", str(tmp_path / "out.csv")]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main([*args, "--config", str(cfg), *out])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "config.parse_config"} | span_names <= names
    assert tracer.counts.get("sweep.rows", 0) == rows
    if args[0] == "validate":
        assert tracer.counts["mc.trials"] == 2 * 10_000


def test_traced_child_reports_import_times(spans, tmp_path):
    # the traced child of the `cli_fresh` workload, run as `perfbench/run.py
    # --trace 1` runs it: `spans.import_ms` reads the mqamlink and numpy lines
    # of its `-X importtime` output, and raises when either is missing, so an
    # import made lazy fails here first
    spans_out = tmp_path / "spans.json"
    child = subprocess.run(
        [sys.executable, "-X", "importtime", str(SPANS_PY), str(spans_out), "--",
         "multihop", "--out", str(tmp_path / "out.csv")],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-300:]
    assert set(spans.import_ms(child.stderr)) == {"cli.import_ms", "cli.import_ms.numpy"}
    assert json.loads(spans_out.read_text())["counts"]["sweep.rows"] == 25


def test_program_link_call():
    # the call `perfbench/worker.py::_program_link` makes for its checks
    config = parse_config("policy = variable\nttr_s = 4e-6\nt_r_s = 1e-5\n")
    m = link_metrics(50.0, config.power_policy(), ModulationScheme(6), BerTarget(1e-4),
                     config.circuit(), config.radio(), config.propagation(),
                     t_r_s=config.resolved_t_r_s())
    # a variable-power hop sits on its threshold: 1/2 exactly
    assert m.p_link == 0.5
    # the per-attempt overhead is t_r_s, not ttr_s: 20000 bits at 6 bits per symbol over 1e4 Hz
    assert m.delay == pytest.approx((20000 / (6 * 1e4) + 1e-5) / 0.5, rel=1e-12)
