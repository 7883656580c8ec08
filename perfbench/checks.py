"""Output checks computed apart from mqamlink.

Nothing here imports mqamlink. The BER curve is a cancellation-free
closed form, the route optimum is the benchmark's own O(N^2) shortest
path, and energy, delay, outage and Monte Carlo expectations are
recomputed from the model equations and the parameters the benchmark
itself wrote into each run's config. Each checker returns a list of
problems (empty when the output is right) plus, where the check needs
the normal tail, `TailCheck` records that `tail_problems` settles later
with `scipy.stats.norm.sf` (scipy is imported only there, after timing).
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

# The reference parameter set, written explicitly into every generated
# config so that the checks never depend on the program's defaults.
PARAMS = {
    "d0_m": 1.0,
    "beta": 3.12,
    "sigma_psi_db": 3.8,
    "k_db": 20.0 * math.log10((2.998e8 / 2.5e9) / (4.0 * math.pi * 1.0)),
    "pct_mw": 98.2,
    "pcr_mw": 112.5,
    "ptr_mw": 100.0,
    "ttr_s": 5e-6,
    "eta": 0.35,
    "n0_w_per_hz": 4e-21,
    "bandwidth_hz": 1e4,
    "packet_bits": 20000,
}
B_GRID = (2, 4, 6, 8, 10)
D_GRID_M = (5.0, 25.0, 50.0, 75.0, 100.0)

# The program inverts the BER curve to an absolute residual of 1e-10,
# which is 1e-4 relative at the smallest regular target (1e-6).
BER_REL_TOL = 1e-3
# Every problem that the BER-at-threshold check reports holds this text,
# so that a workload can tell that fault from any other.
BER_MISS = "BER at threshold misses target"
# Route costs come from the same per-gap doubles on both sides; only the
# order of the additions differs.
ROUTE_REL_TOL = 1e-12
# CSV cells carry 12 significant digits.
CELL_REL_TOL = 1e-9
# `validate` prints the analytic outage with 7 significant digits.
PRINTED_OUTAGE_REL_TOL = 1e-6
# Monte Carlo bound: 6 sigma plus 10 events of slack for small counts.
# The program's own 4-sigma bound fails a correct run about once in 300
# operations; this one about once in 1e7.
MC_SIGMAS = 6.0
MC_SLACK_EVENTS = 10.0


def config_text(**keys: object) -> str:
    """A run config holding the reference parameters plus `keys`."""
    def text(value: object) -> str:
        if isinstance(value, tuple):
            return ",".join(text(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    return "".join(f"{key} = {text(value)}\n" for key, value in dict(PARAMS, **keys).items())


# ---------------------------------------------------------------- model


def avg_ber(gamma_b: float, b: int) -> float:
    """Rayleigh-averaged BER of square MQAM, in closed form.

    The MGF integrals over [0, pi/2] and [0, pi/4] have closed forms in
    mu = sqrt(c/(1+c)). Writing eps = 1 - mu = 1/((1+c)(1+mu)) and
    atan(1/mu) = pi/4 + atan(eps/(2-eps)) removes every cancellation, so
    the result is accurate to a few ulps for any gamma_b >= 0.
    """
    m = 2**b
    a = 1.0 - 1.0 / math.sqrt(m)
    c = 3.0 * gamma_b * b / (2.0 * (m - 1))
    mu = math.sqrt(c / (1.0 + c))
    eps = 1.0 / ((1.0 + c) * (1.0 + mu))
    quarter = eps - (4.0 * mu / math.pi) * math.atan(eps / (2.0 - eps))
    return (2.0 * a * eps - a * a * quarter) / b


def gamma_from_pmin_dbm(pmin_dbm: float, b: int) -> float:
    pmin_w = 1e-3 * 10.0 ** (pmin_dbm / 10.0)
    return pmin_w / (PARAMS["n0_w_per_hz"] * PARAMS["bandwidth_hz"] * b)


def on_time_s(b: int) -> float:
    return PARAMS["packet_bits"] / (b * PARAMS["bandwidth_hz"])


def single_tx_energy(pt_w: float, b: int) -> float:
    """Energy per bit (J) of one attempt: amplifier, circuits, transient."""
    root_m = math.sqrt(2**b)
    xi = 3.0 * (root_m - 1.0) / (root_m + 1.0)
    alpha = xi / PARAMS["eta"] - 1.0
    circuits_w = (PARAMS["pct_mw"] + PARAMS["pcr_mw"]) * 1e-3
    packet = ((1.0 + alpha) * pt_w + circuits_w) * on_time_s(b)
    packet += PARAMS["ptr_mw"] * 1e-3 * PARAMS["ttr_s"]
    return packet / PARAMS["packet_bits"]


def attempt_delay(b: int) -> float:
    """Air time plus the per-attempt overhead, which defaults to ttr_s."""
    return on_time_s(b) + PARAMS["ttr_s"]


def shadowing_z(pt_dbm: float, pmin_dbm: float, d_m: float) -> float:
    """Margin of mean received power over the threshold, in shadowing sigmas."""
    mean = pt_dbm + PARAMS["k_db"] - 10.0 * PARAMS["beta"] * math.log10(d_m / PARAMS["d0_m"])
    return (mean - pmin_dbm) / PARAMS["sigma_psi_db"]


def shortest_path(gap_cost: dict[int, float], relay_count: int) -> float:
    """Cheapest source-to-destination cost over nodes 0..N+1, O(N^2)."""
    best = [0.0] + [math.inf] * (relay_count + 1)
    for j in range(1, relay_count + 2):
        best[j] = min(best[i] + gap_cost[j - i] for i in range(j))
    return best[-1]


def mask_gaps(mask: str) -> list[int]:
    """Hop index gaps of a route_mask string (leftmost relay first)."""
    nodes = [0] + [i + 1 for i, ch in enumerate(mask) if ch == "1"] + [len(mask) + 1]
    return [nodes[k + 1] - nodes[k] for k in range(len(nodes) - 1)]


def _rel_err(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------- tail checks


@dataclass(frozen=True)
class TailCheck:
    """A check that needs the normal survival function at margin z.

    kind "outage": `value` is a reported outage probability; it must match
    sf(z) within `rel_tol` relative (or `abs_tol` absolute).
    kind "mc": `value` is the first-attempt empirical outage and `extra`
    the mean transmission count of `trials` simulated packets; both must
    fall within the Monte Carlo bound around sf(z).
    """

    op: int
    kind: str
    z: float
    value: float
    rel_tol: float = 0.0
    abs_tol: float = 0.0
    extra: float = 0.0
    trials: int = 0


def tail_problems(checks: list[TailCheck]) -> dict[int, list[str]]:
    """Evaluate deferred checks; returns problems keyed by operation index."""
    problems: dict[int, list[str]] = {}
    if not checks:
        return problems
    from scipy.stats import norm

    sf = norm.sf([c.z for c in checks])
    for check, p in zip(checks, sf):
        p = float(p)
        found = None
        if check.kind == "outage":
            err = abs(check.value - p)
            if err > check.abs_tol and err > check.rel_tol * p:
                found = f"outage {check.value!r} vs norm.sf {p!r} at z={check.z!r}"
        else:
            t = check.trials
            emp_bound = (MC_SIGMAS * math.sqrt(t * p * (1.0 - p)) + MC_SLACK_EVENTS) / t
            if abs(check.value - p) > emp_bound:
                found = f"empirical outage {check.value!r} vs {p!r} beyond {emp_bound!r}"
            expected = 1.0 / (1.0 - p)
            count_bound = (MC_SIGMAS * math.sqrt(t * p) + MC_SLACK_EVENTS) / (1.0 - p) / t
            if abs(check.extra - expected) > count_bound:
                found = f"mean count {check.extra!r} vs {expected!r} beyond {count_bound!r}"
        if found:
            problems.setdefault(check.op, []).append(found)
    return problems


# ---------------------------------------------------------------- CSV outputs


def _read_rows(csv_text: str, columns: tuple[str, ...]) -> list[dict[str, str]]:
    reader = csv.DictReader(io.StringIO(csv_text))
    if tuple(reader.fieldnames or ()) != columns:
        raise ValueError(f"CSV header {reader.fieldnames} != {columns}")
    return list(reader)


SINGLEHOP_COLUMNS = (
    "policy", "b", "d_m", "pt_dbm", "pmin_dbm", "p_link",
    "energy_j_per_bit", "energy_dbmj", "delay_s", "is_argmin",
)
MULTIHOP_COLUMNS = (
    "policy", "ber_target", "b", "pt_mw", "route_mask", "hops",
    "energy_dbmj", "delay_s", "is_argmin",
)


def check_singlehop(
    op: int, csv_text: str, policy: str, ber_target: float, tails: list[TailCheck]
) -> list[str]:
    """Rows of one `singlehop` run on B_GRID x D_GRID_M."""
    problems: list[str] = []
    try:
        rows = _read_rows(csv_text, SINGLEHOP_COLUMNS)
    except ValueError as exc:
        return [str(exc)]
    grid = [(r["b"], r["d_m"]) for r in rows]
    want = [(str(b), f"{d:.12g}") for b in B_GRID for d in D_GRID_M]
    if grid != want:
        return [f"grid {grid} != {want}"]
    by_distance: dict[str, list[tuple[float, bool]]] = {}
    for r in rows:
        where = f"b={r['b']} d={r['d_m']}"
        b, d = int(r["b"]), float(r["d_m"])
        if r["policy"] != policy:
            problems.append(f"{where}: policy {r['policy']!r}")
        try:
            pt_dbm, pmin_dbm = float(r["pt_dbm"]), float(r["pmin_dbm"])
            p, energy = float(r["p_link"]), float(r["energy_j_per_bit"])
            dbmj, delay = float(r["energy_dbmj"]), float(r["delay_s"])
        except ValueError:
            problems.append(f"{where}: non-numeric cell")
            continue
        ber = avg_ber(gamma_from_pmin_dbm(pmin_dbm, b), b)
        if _rel_err(ber, ber_target) > BER_REL_TOL:
            problems.append(f"{where}: {BER_MISS}: {ber!r} vs {ber_target!r}")
        if policy == "variable" and abs(p - 0.5) > 1e-12:
            problems.append(f"{where}: variable-policy p_link {p!r} != 1/2")
        # 1/(1-p) amplifies the 12-digit rounding of p by 1/(1-p).
        tol = CELL_REL_TOL + 1e-12 / (1.0 - p)
        e_want = single_tx_energy(1e-3 * 10.0 ** (pt_dbm / 10.0), b) / (1.0 - p)
        if _rel_err(energy, e_want) > tol:
            problems.append(f"{where}: energy {energy!r} vs recomputed {e_want!r}")
        if _rel_err(delay, attempt_delay(b) / (1.0 - p)) > tol:
            problems.append(f"{where}: delay {delay!r}")
        if abs(dbmj - 10.0 * math.log10(energy / 1e-3)) > 1e-9:
            problems.append(f"{where}: energy_dbmj {dbmj!r} disagrees with J/bit")
        tails.append(TailCheck(op, "outage", shadowing_z(pt_dbm, pmin_dbm, d), p, rel_tol=1e-7,
                               abs_tol=1e-12))
        by_distance.setdefault(r["d_m"], []).append((energy, r["is_argmin"] == "1"))
    problems += _argmin_problems(by_distance)
    return problems


def _argmin_problems(groups: dict[str, list[tuple[float, bool]]]) -> list[str]:
    problems = []
    for key, entries in groups.items():
        flagged = [value for value, flag in entries if flag]
        if len(flagged) != 1:
            problems.append(f"group {key}: {len(flagged)} argmin flags")
        elif flagged[0] > min(v for v, _ in entries) * (1.0 + CELL_REL_TOL):
            problems.append(f"group {key}: flagged {flagged[0]!r} is not the minimum")
    return problems


def check_multihop(
    op: int,
    csv_text: str,
    policy: str,
    objective: str,
    ber_grid: tuple[float, ...],
    relay_count: int,
    spacing_m: float,
    gap_metrics,
    tails: list[TailCheck],
) -> list[str]:
    """Rows of one `multihop` run; `gap_metrics(ber, b)` gives the program's
    own per-hop figures (its `LinkMetrics`) as {gap: metrics} for gaps 1..N+1."""
    problems: list[str] = []
    try:
        rows = _read_rows(csv_text, MULTIHOP_COLUMNS)
    except ValueError as exc:
        return [str(exc)]
    want = [(f"{t:.12g}", str(b)) for t in sorted(ber_grid) for b in B_GRID]
    if [(r["ber_target"], r["b"]) for r in rows] != want:
        return [f"grid {[(r['ber_target'], r['b']) for r in rows]} != {want}"]
    groups: dict[str, list[tuple[float, bool]]] = {}
    for r in rows:
        ber, b = float(r["ber_target"]), int(r["b"])
        where = f"ber={r['ber_target']} b={b}"
        gaps = gap_metrics(ber, b)
        for gap, m in gaps.items():
            if _rel_err(avg_ber(m.gamma_b_bar, b), ber) > BER_REL_TOL:
                problems.append(f"{where} gap {gap}: {BER_MISS}")
            e_want = single_tx_energy(1e-3 * 10.0 ** (m.pt_dbm / 10.0), b) / (1.0 - m.p_link)
            if _rel_err(m.energy_per_bit, e_want) > 1e-11:
                problems.append(f"{where} gap {gap}: energy {m.energy_per_bit!r} vs {e_want!r}")
            if policy == "variable" and abs(m.p_link - 0.5) > 1e-12:
                problems.append(f"{where} gap {gap}: variable-policy p_link {m.p_link!r}")
            z = shadowing_z(m.pt_dbm, m.pmin_dbm, gap * spacing_m)
            tails.append(TailCheck(op, "outage", z, m.p_link, rel_tol=1e-9, abs_tol=1e-15))
        mask = r["route_mask"]
        if len(mask) != relay_count or set(mask) - {"0", "1"}:
            problems.append(f"{where}: route_mask {mask!r}")
            continue
        route = mask_gaps(mask)
        energy = sum(gaps[g].energy_per_bit for g in route)
        delay = sum(gaps[g].delay for g in route)
        cost = energy if objective == "energy" else delay
        best = shortest_path(
            {g: (m.energy_per_bit if objective == "energy" else m.delay) for g, m in gaps.items()},
            relay_count,
        )
        if _rel_err(cost, best) > ROUTE_REL_TOL:
            problems.append(f"{where}: route {mask} costs {cost!r}, shortest path {best!r}")
        if r["hops"] != str(len(route)):
            problems.append(f"{where}: hops {r['hops']} for route {mask}")
        try:
            dbmj, delay_cell = float(r["energy_dbmj"]), float(r["delay_s"])
        except ValueError:
            problems.append(f"{where}: non-numeric cell")
            continue
        if abs(dbmj - 10.0 * math.log10(energy / 1e-3)) > 1e-9:
            problems.append(f"{where}: energy_dbmj {dbmj!r} vs route energy {energy!r}")
        if _rel_err(delay_cell, delay) > CELL_REL_TOL:
            problems.append(f"{where}: delay_s {delay_cell!r} vs route delay {delay!r}")
        if r["policy"] != policy:
            problems.append(f"{where}: policy {r['policy']!r}")
        groups.setdefault(r["ber_target"], []).append((cost, r["is_argmin"] == "1"))
    problems += _argmin_problems(groups)
    return problems


_LINK_LINE = re.compile(
    r"link b=(\d+) d_m=(\S+): analytic=(\S+) empirical=(\S+) "
    r"mean_count=(\S+) expected_count=(\S+) (PASS|FAIL)$"
)


def check_validate(
    op: int, exit_code: int, report: str, trials: int, seed: int, link_z, tails: list[TailCheck]
) -> list[str]:
    """The report of one `validate` run on B_GRID x D_GRID_M; `link_z(b, d)`
    gives the shadowing margin of that link from the program's threshold."""
    lines = report.strip().splitlines()
    want = [(str(b), f"{d:.12g}") for b in B_GRID for d in D_GRID_M]
    matches = [_LINK_LINE.match(line) for line in lines[:-1]]
    if len(matches) != len(want) or not all(matches):
        return [f"report has {len(lines)} lines, not {len(want)} link lines and a summary"]
    if [(m.group(1), m.group(2)) for m in matches] != want:
        return ["link grid out of order"]
    passed = sum(m.group(7) == "PASS" for m in matches)
    problems = []
    summary = f"validate: {passed}/{len(want)} links PASS (trials={trials}, seed={seed})"
    if lines[-1] != summary:
        problems.append(f"summary {lines[-1]!r} != {summary!r}")
    if exit_code != (0 if passed == len(want) else 3):
        problems.append(f"exit code {exit_code} with {passed}/{len(want)} PASS")
    for m in matches:
        z = link_z(int(m.group(1)), float(m.group(2)))
        analytic, empirical = float(m.group(3)), float(m.group(4))
        mean_count, expected_count = float(m.group(5)), float(m.group(6))
        tails.append(TailCheck(op, "outage", z, analytic, rel_tol=PRINTED_OUTAGE_REL_TOL,
                               abs_tol=1e-300))
        tails.append(TailCheck(op, "mc", z, empirical, extra=mean_count, trials=trials))
        # the printed analytic value carries 7 digits; 1/(1-p) amplifies them
        tol = 1e-6 + 1e-6 * analytic / (1.0 - analytic) ** 2
        if abs(expected_count - 1.0 / (1.0 - analytic)) > tol:
            problems.append(f"link {m.group(1)}/{m.group(2)}: expected_count {expected_count!r}")
    return problems
