"""Command-line front end.

Each subcommand is one `_SUBCOMMANDS` entry: its help, its handler and
its own flags. `singlehop`, `multihop` and `joint` run the corresponding
sweep and write one CSV per run plus an argmin summary on stdout; `joint`
sweeps fixed powers, so the variable policy is a config error there.
`validate` cross-checks the analytic outage model against seeded Monte
Carlo and fails loudly on disagreement. Its per-link simulations run on
a thread pool sized to the usable CPUs, and its report is the same for
any pool size. Exit codes: 0 success, 1 config error, 2 every grid
point infeasible (for `validate`: every link skipped as infeasible,
unreachable or in near-certain outage), 3 validation failure (a
simulation reaching its round cap included). Each subcommand takes only
the flags it reads, and argparse exits 2 with a usage line on any other.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import os
import sys
import threading
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .channel import (
    ShadowedLink,
    UnreachableLinkError,
    monte_carlo_cap_reachable,
    monte_carlo_outage,
)
from .config import POLICIES, ConfigError, RunConfig, parse_config
from .energy import link_metrics
from .modulation import BerTarget, InfeasibleTargetError, ModulationScheme
from .numerics import binomial_tail, gaussian_q
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
# `validate` fails a link whose first-round outage count or retransmission
# count lies in either tail of its exact distribution beyond this
# probability: the false-alarm rate, 2 Q(4) per count, that a 4-sigma
# normal bound intends
_TAIL_FALSE_ALARM = gaussian_q(4.0)


def _fmt(value: object) -> str:
    """Fixed 12-significant-digit formatting so CSVs are bit-stable."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _finish(rows: list[SweepRow], coordinates: Sequence[str], columns: Sequence[str],
            out_path: str, summary: Iterable[str]) -> int:
    """The tail of every sweep: name each error row by b, its BER target
    and its other `coordinates` on stderr; unless every row is one, write
    the CSV and print the `summary` lines."""
    errors = [r for r in rows if r.error is not None]
    for row in errors:
        point = "".join(f" {name}={_fmt(getattr(row, name))}" for name in coordinates)
        print(f"infeasible grid point b={row.b} ber={_fmt(row.ber_target)}{point}: {row.error}",
              file=sys.stderr)
    if len(errors) == len(rows):
        print("error: every grid point was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    with open(out_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(getattr(row, _COLUMN_FIELDS.get(name, name))) for name in columns]
                         for row in rows)
    for line in summary:
        print(line)
    return EXIT_OK


def _cmd_singlehop(config: RunConfig, args: argparse.Namespace) -> int:
    rows = run_singlehop(config)
    return _finish(rows, ("d_m",), _SINGLEHOP_COLUMNS, config.output_path, (
        f"singlehop argmin: d_m={_fmt(row.d_m)} b={row.b} "
        f"energy_dbmj={_fmt(row.energy_dbmj)} delay_s={_fmt(row.delay_s)}"
        for row in sorted((r for r in rows if r.is_argmin), key=lambda r: r.d_m)
    ))


def _cmd_multihop(config: RunConfig, args: argparse.Namespace) -> int:
    rows = run_multihop(config, objective=args.objective)
    return _finish(rows, (), _MULTIHOP_COLUMNS, config.output_path, (
        f"multihop argmin ({args.objective}): ber={_fmt(row.ber_target)} b={row.b} "
        f"route={row.route_mask} energy_dbmj={_fmt(row.energy_dbmj)} "
        f"delay_s={_fmt(row.delay_s)}"
        for row in rows if row.is_argmin
    ))


def _cmd_joint(config: RunConfig, args: argparse.Namespace) -> int:
    rows, _ = run_joint(config)
    return _finish(rows, ("pt_mw",), _JOINT_COLUMNS, config.output_path, (
        f"joint global minimum: b={row.b} pt_mw={_fmt(row.pt_mw)} "
        f"route={row.route_mask} energy_dbmj={_fmt(row.energy_dbmj)} "
        f"delay_s={_fmt(row.delay_s)}"
        for row in rows if row.is_argmin
    ))


def _counts_agree(p: float, trials: int, first_failures: int, retransmissions: int) -> bool:
    """Whether neither count lies in a tail of its exact distribution
    beyond _TAIL_FALSE_ALARM.

    The retransmissions E of `trials` packets are negative binomial: E >= k
    exactly when the first trials + k - 1 attempts hold at least k
    outages, and E <= k when the first trials + k attempts hold at most k.
    A tail P[X >= k] with k <= n p, or P[X <= k] with k >= n p, holds the
    binomial's median, so it is at least 1/2 and is not summed.
    """
    return all(
        binomial_tail(k, n, p, upper) >= _TAIL_FALSE_ALARM
        for k, n, upper in (
            (first_failures, trials, True),
            (first_failures, trials, False),
            (retransmissions, trials + retransmissions - 1, True),
            (retransmissions, trials + retransmissions, False),
        )
        if (k > n * p if upper else k < n * p)
    )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    """Monte Carlo check of the analytic outage probability and the
    geometric retransmission count on every (b, d) grid link.

    The analytic side and the SKIP decisions run first, over the links
    in ascending (b, d) order. The simulations then run on a thread pool,
    one link per task, the heaviest first; each link has its own seed, so
    the report, printed in that order once every simulation is done, does
    not depend on the number of threads.
    """
    from concurrent.futures import ThreadPoolExecutor, wait

    trials, seed = config.trials, config.seed
    if trials < 10_000:
        print(f"error: validate needs trials >= 10000, got {trials}", file=sys.stderr)
        return EXIT_CONFIG
    if seed < 0:
        print(f"error: validate needs seed >= 0, got {seed}", file=sys.stderr)
        return EXIT_CONFIG
    prop = config.propagation()
    circuit = config.circuit()
    radio = config.radio()
    policy = config.power_policy()
    # sorted, so that the per-link seeds and the report follow the links,
    # not the order the config lists them in
    links = list(itertools.product(sorted(config.b_grid), sorted(config.d_grid_m)))
    link_seeds = np.random.SeedSequence(seed).generate_state(len(links))
    skips: dict[int, str] = {}  # grid index -> SKIP reason
    simulate: dict[int, tuple[float, ShadowedLink]] = {}  # grid index -> (p_link, link)
    for i, (b, d) in enumerate(links):
        try:
            metrics = link_metrics(
                d, policy, ModulationScheme(b), BerTarget(config.ber_target),
                circuit, radio, prop,
            )
        except (InfeasibleTargetError, UnreachableLinkError) as exc:
            reason = "unreachable" if isinstance(exc, UnreachableLinkError) else "infeasible"
            skips[i] = f"{reason}: {exc}"
            continue
        p = metrics.p_link
        if monte_carlo_cap_reachable(p, trials):
            skips[i] = (f"near-certain outage: 1 - p_link = {1.0 - p:.2e}, "
                        "the simulation could exceed its round cap")
        else:
            simulate[i] = (p, ShadowedLink(d, metrics.pt_dbm, metrics.pmin_dbm))
    # a link draws about trials / (1 - p) values: submit the largest p first
    heaviest_first = sorted(simulate, key=lambda i: simulate[i][0], reverse=True)
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=max(1, min(_usable_cpus(), len(simulate)))) as pool:
        futures = {
            i: pool.submit(monte_carlo_outage, simulate[i][1], prop, trials, int(link_seeds[i]),
                           stop=stop)
            for i in heaviest_first
        }
        try:
            wait(futures.values())
        except BaseException:
            # interrupted: the running links stop within one chunk of draws,
            # and none of the queued ones starts
            stop.set()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    failures = 0
    skipped = 0
    for i, (b, d) in enumerate(links):
        if i in skips:
            print(f"link b={b} d_m={_fmt(d)}: SKIP ({skips[i]})")
            skipped += 1
            continue
        p = simulate[i][0]
        try:
            empirical, mean_count = futures[i].result()
        except RuntimeError as exc:
            # the model ruled the cap out, so the simulation disagrees with it
            print(f"link b={b} d_m={_fmt(d)}: analytic={p:.6e} FAIL ({exc})")
            failures += 1
            continue
        expected_count = 1.0 / (1.0 - p)
        # both are ratios of integer counts to trials, exact to well below 0.5
        first_failures = round(empirical * trials)
        retransmissions = round(mean_count * trials) - trials
        ok = _counts_agree(p, trials, first_failures, retransmissions)
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


# every sweep writes a CSV; `validate` writes none
_OUT = {"--out": dict(help="CSV output path (overrides output_path)")}
# name: (help, handler, flags beyond --config and --policy)
_SUBCOMMANDS = {
    "singlehop": ("energy per bit over the (b, distance) grid", _cmd_singlehop, _OUT),
    "multihop": ("optimal-route energy/delay over the (BER, b) grid", _cmd_multihop, {
        **_OUT,
        "--objective": dict(choices=("energy", "delay"), default="energy",
                            help="route-selection objective"),
    }),
    "joint": ("optimal-route energy over the (b, transmit power) grid", _cmd_joint, _OUT),
    "validate": ("Monte Carlo check of the outage model", _cmd_validate, {
        "--trials": dict(type=int, help="Monte Carlo packets per link"),
        "--seed": dict(type=int, help="RNG seed (overrides seed)"),
    }),
}
# flags that override a config key
_FLAG_KEYS = {"out": "output_path", "seed": "seed", "policy": "policy", "trials": "trials"}


# Built once per process: parsing leaves no state in the parser, and the
# handlers it names still look the traced functions up at call time.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqamlink",
        description="Link-energy sweeps and routing optimization for square-MQAM radios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--config", help="path to a key = value config file")
        cmd.add_argument("--policy", choices=POLICIES, help="transmit power policy")
        for flag, options in flags.items():
            cmd.add_argument(flag, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(Path(args.config).read_text() if args.config is not None else "")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # validity does not depend on these keys; `validate` checks seed and trials
    flags = vars(args)
    config = replace(config, **{key: flags[flag] for flag, key in _FLAG_KEYS.items()
                                if flags.get(flag) is not None})
    try:
        return args.handler(config, args)
    except ConfigError as exc:  # a key the subcommand cannot honour
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())
