"""Command-line front end.

Each subcommand is one `_SUBCOMMANDS` entry: its help, its handler and
its own flags. `singlehop`, `multihop` and `joint` run the corresponding
sweep and write one CSV per run plus an argmin summary on stdout; `joint`
sweeps fixed powers, so the variable policy is a config error there.
Each cell type has one printf conversion, in `_CELL_FORMS`: the CSV
rows read it, and so does `_fmt` for the numbers that the summaries and
error notes print. A sweep's whole CSV text is built before its file is
opened, then written at once.
`validate` cross-checks the analytic outage model against seeded Monte
Carlo and fails loudly on disagreement. Its per-link simulations run on
a thread pool sized to the usable CPUs, and its report is the same for
any pool size. Exit codes: 0 success, 1 config error, 2 every grid
point infeasible (for `validate`: every link skipped as infeasible or
in near-certain outage), 3 validation failure (a simulation reaching
its round cap included), 130 interrupted (Ctrl-C: `interrupted` on
stderr, no traceback). Each subcommand takes only the flags it reads,
and argparse exits 2 with a usage line on any other.
`--policy`, `--trials`, `--seed` and `--out` override the config keys
`policy`, `trials`, `seed` and `output_path`: `main` hands them to
`parse_config`, which validates them with the file, so a bad flag is a
config error and a flag wins over a bad value in the file.
"""

from __future__ import annotations

import argparse
import functools
import operator
import os
import sys
import threading
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .channel import ShadowedLink, monte_carlo_cap_reachable, monte_carlo_outage
from .config import POLICIES, ConfigError, RunConfig, parse_config
# not called here: the benchmark's trace points look up `mqamlink.cli.link_metrics`
from .energy import link_metrics  # noqa: F401
from .numerics import binomial_tail, gaussian_q
from .sweep import SweepRow, run_joint, run_multihop, run_singlehop

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_INTERRUPTED = 130  # the shell's code for a run ended by SIGINT

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


# the printf conversion of each cell type, so CSVs are bit-stable: 12
# significant digits for a float, 0/1 for a bool, an empty cell for None.
# No cell needs CSV quoting: they are numbers, a policy name or a 0/1 mask.
_CELL_FORMS = {float: "%.12g", bool: "%d", int: "%d", str: "%s", type(None): "%.0s"}


def _fmt(value: object) -> str:
    """One cell's text, in its type's `_CELL_FORMS` conversion."""
    return _CELL_FORMS[type(value)] % value


@functools.cache
def _row_template(types: tuple[type, ...]) -> str:
    """The printf template of a CSV row whose cells have these types."""
    return ",".join([_CELL_FORMS[t] for t in types]) + "\n"


def _finish(rows: list[SweepRow], coordinates: Sequence[str], columns: Sequence[str],
            out_path: str, summary: Iterable[str]) -> int:
    """The tail of every sweep: name each error row by b, its BER target
    and its other `coordinates` on stderr; unless every row is one, write
    the CSV and print the `summary` lines.

    The CSV text is built whole before the file is opened: each row's
    cells are read at once and formatted by one template per tuple of
    cell types, so no per-cell code runs in Python."""
    errors = [r for r in rows if r.error is not None]
    for row in errors:
        point = "".join(f" {name}={_fmt(getattr(row, name))}" for name in coordinates)
        print(f"infeasible grid point b={row.b} ber={_fmt(row.ber_target)}{point}: {row.error}",
              file=sys.stderr)
    if len(errors) == len(rows):
        print("error: every grid point was infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    cells = operator.attrgetter(*[_COLUMN_FIELDS.get(name, name) for name in columns])
    text = "".join([",".join(columns) + "\n", *[
        _row_template(tuple(map(type, values))) % values for values in map(cells, rows)]])
    with open(out_path, "w", newline="") as handle:
        handle.write(text)
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

    The links are `singlehop`'s rows, in ascending (b, d) order: an error
    row is a SKIP, and so is a link in near-certain outage. The
    simulations then run on a thread pool, one link per task, the
    heaviest first; each link has its own seed, so the report, printed in
    that order once every simulation is done, does not depend on the
    number of threads.
    """
    from concurrent.futures import ThreadPoolExecutor, wait

    trials, seed = config.trials, config.seed
    prop = config.propagation()
    # the rows are sorted, so that the per-link seeds and the report follow
    # the links, not the order the config lists them in
    rows = run_singlehop(config)
    link_seeds = np.random.SeedSequence(seed).generate_state(len(rows))
    skips: dict[int, str] = {}  # grid index -> SKIP reason
    simulate: dict[int, ShadowedLink] = {}  # grid index -> link
    for i, row in enumerate(rows):
        if row.error is not None:
            skips[i] = f"infeasible: {row.error}"
        elif monte_carlo_cap_reachable(row.p_link, trials):
            skips[i] = (f"near-certain outage: 1 - p_link = {1.0 - row.p_link:.2e}, "
                        "the simulation could exceed its round cap")
        else:
            simulate[i] = ShadowedLink(row.d_m, row.pt_dbm, row.pmin_dbm)
    # a link draws about trials / (1 - p) values: submit the largest p first
    heaviest_first = sorted(simulate, key=lambda i: rows[i].p_link, reverse=True)
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=max(1, min(_usable_cpus(), len(simulate)))) as pool:
        futures = {
            i: pool.submit(monte_carlo_outage, simulate[i], prop, trials, int(link_seeds[i]),
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
    for i, row in enumerate(rows):
        b, d, p = row.b, row.d_m, row.p_link
        if i in skips:
            print(f"link b={b} d_m={_fmt(d)}: SKIP ({skips[i]})")
            skipped += 1
            continue
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
    total = len(rows)
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
_OUT = {"--out": dict(dest="output_path", help="CSV output path (overrides output_path)")}
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
# a flag whose destination is one of these overrides that config key
_KEYS = {f.name for f in fields(RunConfig)}


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
    flags = {key: value for key, value in vars(args).items()
             if key in _KEYS and value is not None}
    try:
        config = parse_config(Path(args.config).read_text(encoding="utf-8")
                              if args.config is not None else "", **flags)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(config, args)
    except ConfigError as exc:  # a key the subcommand cannot honour
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        sys.exit(EXIT_INTERRUPTED)
