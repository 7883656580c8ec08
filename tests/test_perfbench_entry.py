"""The program surface that the benchmark harness in `perfbench/` calls.

`perfbench/spans.py` wraps mqamlink functions at the module attributes
their callers look up, and `perfbench/worker.py` checks each operation
against the program's own `link_metrics`. A refactor that renames one of
those attributes, or that makes a caller bind a function at import, would
break `--trace 1` or the benchmark's checks; these tests catch that.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from mqamlink import cli
from mqamlink.config import parse_config
from mqamlink.energy import link_metrics
from mqamlink.modulation import BerTarget, ModulationScheme

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only
    return module


def test_every_trace_point_resolves(spans):
    for module_name, attr, _ in spans.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("args, span_names, rows", [
    (["singlehop"], {"sweep.run", "energy.link_metrics", "modulation.required_gamma_b"}, 25),
    (["multihop", "--objective", "delay"],
     {"sweep.run", "network.optimal_route", "energy.link_metrics"}, 25),
    (["validate", "--trials", "10000"],
     {"channel.monte_carlo_outage", "energy.link_metrics"}, 0),
])
def test_traced_subcommands(spans, tmp_path, args, span_names, rows):
    # the CLI looks each traced function up at call time, so the wrappers see
    # every call, as under `perfbench/run.py --trace 1`
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("b_grid = 4,6\nd_grid_m = 40\n" if args[0] == "validate" else "")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main([*args, "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "config.parse_config"} | span_names <= names
    assert tracer.counts.get("sweep.rows", 0) == rows
    if args[0] == "validate":
        assert tracer.counts["mc.trials"] == 2 * 10_000


def test_program_link_call():
    # the call `perfbench/worker.py::_program_link` makes for its checks
    config = parse_config("policy = variable\nttr_s = 4e-6\nt_r_s = 1e-5\n")
    m = link_metrics(50.0, config.power_policy(), ModulationScheme(6), BerTarget(1e-4),
                     config.circuit(), config.radio(), config.propagation(),
                     t_r_s=config.resolved_t_r_s())
    assert m.p_link == pytest.approx(0.5, abs=1e-12)
    # the per-attempt overhead is t_r_s, not ttr_s: 20000 bits at 6 bits per symbol over 1e4 Hz
    assert m.delay == pytest.approx((20000 / (6 * 1e4) + 1e-5) / 0.5, rel=1e-12)
