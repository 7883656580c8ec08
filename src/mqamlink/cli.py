"""Command-line front end.

Subcommands `singlehop`, `multihop`, and `joint` run the corresponding
sweep and write one CSV per run plus an argmin summary on stdout;
`validate` cross-checks the analytic outage model against seeded Monte
Carlo and fails loudly on disagreement. Exit codes: 0 success, 1 config
error, 2 every grid point infeasible (for `validate`: every link
skipped as infeasible, unreachable or in near-certain outage),
3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .channel import (
    ShadowedLink,
    UnreachableLinkError,
    monte_carlo_cap_reachable,
    monte_carlo_outage,
)
from .config import ConfigError, RunConfig, parse_config
from .energy import link_metrics
from .modulation import BerTarget, InfeasibleTargetError, ModulationScheme
from .sweep import SweepRow, run_joint, run_multihop, run_singlehop

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3

_SINGLEHOP_COLUMNS = (
    "policy", "b", "d_m", "pt_dbm", "pmin_dbm", "p_link",
    "energy_j_per_bit", "energy_dbmj", "delay_s", "is_argmin",
)
_MULTIHOP_COLUMNS = (
    "policy", "ber_target", "b", "pt_mw", "route_mask", "hops",
    "energy_dbmj", "delay_s", "is_argmin",
)
_JOINT_COLUMNS = (
    "ber_target", "b", "pt_mw", "route_mask", "energy_dbmj", "delay_s",
    "is_global_min",
)
# CSV columns named differently from the SweepRow field they show
_COLUMN_FIELDS = {"is_global_min": "is_argmin"}


def _fmt(value: object) -> str:
    """Fixed 12-significant-digit formatting so CSVs are bit-stable."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _row_cells(row: SweepRow, columns: Sequence[str]) -> list[str]:
    return [_fmt(getattr(row, _COLUMN_FIELDS.get(name, name))) for name in columns]


def _write_csv(path: str, columns: Sequence[str], rows: list[SweepRow]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(_row_cells(row, columns))


def _report_errors(rows: list[SweepRow]) -> int:
    errors = [r for r in rows if r.error is not None]
    for row in errors:
        print(f"infeasible grid point b={row.b} ber={_fmt(row.ber_target)}: {row.error}",
              file=sys.stderr)
    if len(errors) == len(rows):
        print("error: every grid point was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_singlehop(config: RunConfig, out_path: str) -> int:
    rows = run_singlehop(
        config.plan("singlehop"), config.circuit(), config.radio(),
        config.propagation(), t_r_s=config.resolved_t_r_s(),
    )
    status = _report_errors(rows)
    if status != EXIT_OK:
        return status
    _write_csv(out_path, _SINGLEHOP_COLUMNS, rows)
    for row in sorted(
        (r for r in rows if r.is_argmin), key=lambda r: r.d_m
    ):
        print(
            f"singlehop argmin: d_m={_fmt(row.d_m)} b={row.b} "
            f"energy_dbmj={_fmt(row.energy_dbmj)} delay_s={_fmt(row.delay_s)}"
        )
    return EXIT_OK


def _cmd_multihop(config: RunConfig, out_path: str, objective: str) -> int:
    rows = run_multihop(
        config.plan("multihop"), config.network(), config.circuit(),
        config.radio(), config.propagation(), objective=objective,
        t_r_s=config.resolved_t_r_s(),
    )
    status = _report_errors(rows)
    if status != EXIT_OK:
        return status
    _write_csv(out_path, _MULTIHOP_COLUMNS, rows)
    for row in rows:
        if row.is_argmin:
            print(
                f"multihop argmin ({objective}): ber={_fmt(row.ber_target)} b={row.b} "
                f"route={row.route_mask} energy_dbmj={_fmt(row.energy_dbmj)} "
                f"delay_s={_fmt(row.delay_s)}"
            )
    return EXIT_OK


def _cmd_joint(config: RunConfig, out_path: str) -> int:
    rows, best = run_joint(
        config.plan("joint"), config.network(), config.circuit(),
        config.radio(), config.propagation(), t_r_s=config.resolved_t_r_s(),
    )
    status = _report_errors(rows)
    if status != EXIT_OK:
        return status
    _write_csv(out_path, _JOINT_COLUMNS, rows)
    assert best is not None
    print(
        f"joint global minimum: b={best.b} pt_mw={_fmt(best.pt_mw)} "
        f"route={best.route_mask} energy_dbmj={_fmt(best.energy_dbmj)} "
        f"delay_s={_fmt(best.delay_s)}"
    )
    return EXIT_OK


def _cmd_validate(config: RunConfig, trials: int, seed: int) -> int:
    """Monte Carlo check of the analytic outage probability and the
    geometric retransmission count on every (b, d) grid link."""
    if trials < 10_000:
        print(f"error: validate needs trials >= 10000, got {trials}", file=sys.stderr)
        return EXIT_CONFIG
    prop = config.propagation()
    circuit = config.circuit()
    radio = config.radio()
    policy = config.power_policy()
    links = list(itertools.product(config.b_grid, config.d_grid_m))
    link_seeds = np.random.SeedSequence(seed).generate_state(len(links))
    failures = 0
    skipped = 0
    for (b, d), link_seed in zip(links, link_seeds):
        try:
            metrics = link_metrics(
                d, policy, ModulationScheme(b), BerTarget(config.ber_target),
                circuit, radio, prop,
            )
        except (InfeasibleTargetError, UnreachableLinkError) as exc:
            reason = "unreachable" if isinstance(exc, UnreachableLinkError) else "infeasible"
            skip = f"{reason}: {exc}"
        else:
            p = metrics.p_link
            skip = None
            if monte_carlo_cap_reachable(p, trials):
                skip = (f"near-certain outage: 1 - p_link = {1.0 - p:.2e}, "
                        "the simulation could exceed its round cap")
        if skip is not None:
            print(f"link b={b} d_m={_fmt(d)}: SKIP ({skip})")
            skipped += 1
            continue
        empirical, mean_count = monte_carlo_outage(
            ShadowedLink(d, metrics.pt_dbm, metrics.pmin_dbm), prop, trials, int(link_seed),
        )
        p_bound = 4.0 * math.sqrt(p * (1.0 - p) / trials)
        expected_count = 1.0 / (1.0 - p)
        count_bound = 4.0 * math.sqrt(p / trials) / (1.0 - p)
        ok = abs(empirical - p) <= p_bound and abs(mean_count - expected_count) <= count_bound
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(
            f"link b={b} d_m={_fmt(d)}: analytic={p:.6e} empirical={empirical:.6e} "
            f"mean_count={mean_count:.6f} expected_count={expected_count:.6f} {status}"
        )
    total = len(links)
    skip_note = f", {skipped} SKIP" if skipped else ""
    print(
        f"validate: {total - failures - skipped}/{total} links PASS{skip_note} "
        f"(trials={trials}, seed={seed})"
    )
    if failures:
        return EXIT_VALIDATION
    if skipped == total:
        print("error: every link was skipped", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        config = RunConfig()
        config.validate()
        return config
    text = Path(path).read_text()
    return parse_config(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqamlink",
        description="Link-energy sweeps and routing optimization for square-MQAM radios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("singlehop", "energy per bit over the (b, distance) grid"),
        ("multihop", "optimal-route energy/delay over the (BER, b) grid"),
        ("joint", "optimal-route energy over the (b, transmit power) grid"),
        ("validate", "Monte Carlo check of the outage model"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a key = value config file")
        cmd.add_argument("--out", help="CSV output path (overrides output_path)")
        cmd.add_argument("--seed", type=int, help="RNG seed (overrides seed)")
        cmd.add_argument(
            "--policy", choices=("fixed", "variable"), help="transmit power policy"
        )
        if name == "multihop":
            cmd.add_argument(
                "--objective", choices=("energy", "delay"), default="energy",
                help="route-selection objective",
            )
        if name == "validate":
            cmd.add_argument(
                "--trials", type=int, help="Monte Carlo packets per link"
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        if args.policy is not None:
            config = replace(config, policy=args.policy)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        config.validate()
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_path = args.out if args.out is not None else config.output_path
    try:
        if args.command == "singlehop":
            return _cmd_singlehop(config, out_path)
        if args.command == "multihop":
            return _cmd_multihop(config, out_path, args.objective)
        if args.command == "joint":
            return _cmd_joint(config, out_path)
        if args.command == "validate":
            trials = args.trials if args.trials is not None else config.trials
            return _cmd_validate(config, trials, config.seed)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command!r}")


def entrypoint() -> None:
    sys.exit(main())
