"""Tests of the benchmark's own oracles and output checks.

    python3 -m pytest perfbench/selftest.py

Kept out of the repository's default test collection (the file name does
not match test_*.py), so benchmark code never affects the tier-1 suite.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _ber_by_quadrature(gamma_b: float, b: int) -> mpmath.mpf:
    """The MGF-form integral definition, integrated at 40 digits."""
    with mpmath.workdps(40):
        m = 2**b
        a = 1 - 1 / mpmath.sqrt(m)
        c = mpmath.mpf(3) * gamma_b * b / (2 * (m - 1))

        def integral(hi):
            return mpmath.quad(lambda phi: mpmath.sin(phi) ** 2 / (mpmath.sin(phi) ** 2 + c),
                               [0, hi])

        return (4 * a / (mpmath.pi * b)) * integral(mpmath.pi / 2) - (
            4 * a * a / (mpmath.pi * b)
        ) * integral(mpmath.pi / 4)


@pytest.mark.parametrize("b", checks.B_GRID)
def test_closed_form_ber_matches_mpmath(b):
    for exponent in range(-6, 9):
        for mantissa in (1.0, 3.7):
            gamma_b = mantissa * 10.0**exponent
            want = _ber_by_quadrature(gamma_b, b)
            got = checks.avg_ber(gamma_b, b)
            assert abs(got - want) / want < 1e-13, (gamma_b, b, got, want)


def test_closed_form_ber_at_zero_snr_is_the_ceiling():
    for b in checks.B_GRID:
        a = 1.0 - 2.0 ** (-b / 2)
        assert checks.avg_ber(0.0, b) == pytest.approx((2 * a - a * a) / b, rel=1e-15)


def _brute_force(gap_cost: dict[int, float], relay_count: int) -> float:
    best = math.inf
    for bits in itertools.product("01", repeat=relay_count):
        best = min(best, sum(gap_cost[g] for g in checks.mask_gaps("".join(bits))))
    return best


@pytest.mark.parametrize("relay_count", range(13))
def test_shortest_path_matches_brute_force(relay_count):
    rng = random.Random(relay_count)
    for _ in range(3):
        costs = {g: rng.uniform(0.1, 2.0) * g ** rng.uniform(0.5, 3.0)
                 for g in range(1, relay_count + 2)}
        want = _brute_force(costs, relay_count)
        assert checks.shortest_path(costs, relay_count) == pytest.approx(want, rel=1e-12)


def test_shortest_path_with_structural_ties():
    # every route made of gaps 1 and 2 costs the same per unit length
    costs = {g: float(g) if g <= 2 else 10.0 * g for g in range(1, 9)}
    assert checks.shortest_path(costs, 7) == _brute_force(costs, 7) == 8.0


def test_mask_gaps():
    assert checks.mask_gaps("") == [1]
    assert checks.mask_gaps("000") == [4]
    assert checks.mask_gaps("101") == [1, 2, 1]


# ------------------------------------------------------------ output checks


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real output of each workload's operation kinds."""
    made = {}
    for name, cls in worker.WORKLOADS.items():
        wl = cls(7, tmp_path_factory.mktemp(name))
        wl.setup()
        for kind in dict.fromkeys(wl.round):
            inp = wl.make(kind, 3)
            wl.write_config(**inp["config"])
            made[(name, kind)] = (wl, inp, wl.run(inp, None)[1])
    return made


def _problems(wl, inp, out) -> list[str]:
    tails: list = []
    found = wl.check(0, inp, out, tails)
    return found + checks.tail_problems(tails).get(0, [])


def test_every_output_passes_except_the_deep_target(outputs):
    for (name, kind), (wl, inp, out) in outputs.items():
        found = _problems(wl, inp, out)
        if kind in wl.known_failing:
            assert found and wl.known_fault(kind, found), (name, kind, found[:3])
        else:
            assert found == [], (name, kind, found[:3])


def test_deep_targets_fail_on_every_round_checked(tmp_path):
    wl = worker.InversionScan(0, tmp_path)
    wl.setup()
    for round_index in range(12):
        inp = wl.make("deep", round_index)
        wl.write_config(**inp["config"])
        out = wl.run(inp, None)[1]
        found = _problems(wl, inp, out)
        assert found and wl.known_fault("deep", found), inp["target"]


def test_only_ber_misses_are_the_known_fault(outputs):
    wl, inp, out = outputs[("inversion_scan", "deep")]
    found = _problems(wl, inp, dict(out, csv=_scaled(out["csv"], 3, "energy_j_per_bit", 1.001)))
    assert not wl.known_fault("deep", found)
    assert not wl.known_fault("deep", ["exit code 1: Traceback"])
    assert not wl.known_fault("fixed", [f"b=2 d_m=5: {checks.BER_MISS}: 1.1e-06 vs 1e-06"])


def test_a_corrupted_deep_target_row_makes_the_run_incorrect(monkeypatch, capsys):
    """Row 3 follows three BER misses, so its energy problem lies beyond
    the three problems kept per operation: it must still count."""
    run = worker.InversionScan.run

    def corrupting_run(self, inp, tracer):
        elapsed, out = run(self, inp, tracer)
        if inp["kind"] == "deep":
            out["csv"] = _scaled(out["csv"], 3, "energy_j_per_bit", 1 + 1e-6)
        return elapsed, out

    monkeypatch.setattr(worker.InversionScan, "run", corrupting_run)
    assert worker.main(["--workload", "inversion_scan", "--seed", "5", "--seconds", "0",
                        "--mode", "measure"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] * 5 == result["attempted"]
    assert result["correct"] is False


def _edit_csv(text: str, row: int, **cells: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    for key, value in cells.items():
        rows[row + 1][header.index(key)] = value
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _cell(text: str, row: int, key: str) -> str:
    return list(csv.DictReader(io.StringIO(text)))[row][key]


def _scaled(text: str, row: int, key: str, factor: float) -> str:
    return _edit_csv(text, row, **{key: f"{float(_cell(text, row, key)) * factor:.12g}"})


def _shifted(text: str, row: int, key: str, delta: float) -> str:
    return _edit_csv(text, row, **{key: f"{float(_cell(text, row, key)) + delta:.12g}"})


def _singlehop_corruptions(text: str):
    flagged = next(i for i in range(25) if _cell(text, i, "is_argmin") == "1")
    other = flagged + 5 if flagged + 5 < 25 else flagged - 5
    yield "energy", _scaled(text, 3, "energy_j_per_bit", 1 + 1e-6)
    yield "delay", _scaled(text, 4, "delay_s", 1 - 1e-6)
    yield "dbmj", _edit_csv(text, 5, energy_dbmj="1")
    yield "pmin", _shifted(text, 6, "pmin_dbm", 0.01)
    yield "p_link", _scaled(text, 7, "p_link", 1 + 1e-4)
    yield "argmin", _edit_csv(text, flagged, is_argmin="0")
    yield "argmin moved", _edit_csv(_edit_csv(text, flagged, is_argmin="0"), other, is_argmin="1")
    yield "policy", _edit_csv(text, 0, policy="other")


@pytest.mark.parametrize("kind", ["fixed", "variable"])
def test_singlehop_check_rejects_each_corrupted_row(outputs, kind):
    wl, inp, out = outputs[("inversion_scan", kind)]
    for label, corrupted in _singlehop_corruptions(out["csv"]):
        assert _problems(wl, inp, dict(out, csv=corrupted)), label


def _multihop_corruptions(text: str):
    best = _cell(text, 2, "route_mask")
    worse = "1" * len(best) if best != "1" * len(best) else "0" * len(best)
    flagged = next(i for i in range(5) if _cell(text, i, "is_argmin") == "1")
    yield "route", _edit_csv(text, 2, route_mask=worse)
    yield "mask length", _edit_csv(text, 2, route_mask=best + "0")
    yield "hops", _edit_csv(text, 1, hops=str(int(_cell(text, 1, "hops")) + 1))
    yield "dbmj", _shifted(text, 3, "energy_dbmj", 1e-6)
    yield "delay", _scaled(text, 4, "delay_s", 1 + 1e-6)
    yield "argmin", _edit_csv(text, flagged, is_argmin="0")
    yield "argmin moved", _edit_csv(_edit_csv(text, flagged, is_argmin="0"),
                                    (flagged + 1) % 5, is_argmin="1")
    yield "grid", _edit_csv(text, 0, b="3")


@pytest.mark.parametrize("workload,kind", [
    ("route_sweep", ("fixed", "energy")), ("route_sweep", ("variable", "delay")),
    ("cli_fresh", ("fixed", "energy")),
])
def test_multihop_check_rejects_each_corrupted_row(outputs, workload, kind):
    wl, inp, out = outputs[(workload, kind)]
    for label, corrupted in _multihop_corruptions(out["csv"]):
        assert _problems(wl, inp, dict(out, csv=corrupted)), label


def _validate_corruptions(report: str):
    lines = report.strip().splitlines()

    def replaced(index: int, key: str, value: str) -> str:
        edited = list(lines)
        edited[index] = " ".join(
            f"{key}={value}" if part.startswith(key + "=") else part
            for part in lines[index].split(" ")
        )
        return "\n".join(edited) + "\n"

    p = float(lines[24].split("analytic=")[1].split()[0])
    yield "empirical", replaced(24, "empirical", f"{min(1.0, p + 0.05):.6e}")
    yield "analytic", replaced(24, "analytic", f"{p * 1.001:.6e}")
    mean_count = float(lines[24].split("mean_count=")[1].split()[0])
    yield "mean count", replaced(24, "mean_count", f"{mean_count * 1.5:.6f}")
    yield "expected count", replaced(24, "expected_count", "1.000000")
    yield "summary", "\n".join(lines[:-1] + [lines[-1].replace("PASS", "FAIL")]) + "\n"
    yield "missing link", "\n".join(lines[1:]) + "\n"


def test_validate_check_rejects_each_corrupted_line(outputs):
    wl, inp, out = outputs[("mc_validate", "validate")]
    for label, corrupted in _validate_corruptions(out["stdout"]):
        assert _problems(wl, inp, dict(out, stdout=corrupted)), label
    assert _problems(wl, inp, dict(out, code=3)), "exit code"


# ------------------------------------------------------------ tracing


def test_layer_metrics_self_time_and_hit_ratio():
    recorded = [
        ("modulation.required_gamma_b", 0, -1, 0.0, 10.0),
        ("modulation.avg_ber", 0, 0, 1.0, 4.0),
        ("numerics.integrate", 0, 1, 2.0, 3.0),
        ("modulation.required_gamma_b", 0, -1, 11.0, 12.0),
    ]
    metrics = spans.layer_metrics(recorded, {}, ops=2)
    assert metrics["modulation.required_gamma_b.hit_ratio"] == 0.5
    assert metrics["modulation.avg_ber.calls_per_inversion"] == 1.0
    assert metrics["modulation.avg_ber.self_ms_per_op"] == pytest.approx(2.0 * 1e3 / 2)
    assert metrics["numerics.integrate.self_ms_per_op"] == pytest.approx(1.0 * 1e3 / 2)


def test_import_ms_reads_importtime_lines():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |      90000 |     numpy\n"
        "import time:        50 |     150000 | mqamlink\n"
    )
    assert spans.import_ms(text) == {"cli.import_ms": 150.0, "cli.import_ms.numpy": 90.0}

