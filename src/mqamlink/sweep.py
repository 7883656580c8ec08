"""Parameter-study engine for the standard experiment grids.

Three sweeps read one validated `RunConfig`: single-hop energy over
(constellation, distance) at `ber_target`, multi-hop optimal-route
energy/delay over (`ber_grid`, constellation), and the joint
(constellation, transmit power) surface over `pt_grid_mw`. Each sweep
builds the config's domain objects once and walks its grids in
ascending order, so rows come back in canonical grid order, with argmin
flags, whatever order the config lists them in. Grid points with no
answer (a BER target the constellation cannot meet, or no usable hop or
route) become error rows instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from .channel import UnreachableLinkError
from .config import ConfigError, RunConfig
from .energy import FixedPower, PowerPolicy, energy_to_dbmj, link_metrics
from .modulation import BerTarget, InfeasibleTargetError, ModulationScheme
from .network import optimal_route

__all__ = ["SweepRow", "run_singlehop", "run_multihop", "run_joint"]

_T = TypeVar("_T")


@dataclass
class SweepRow:
    """One grid point; fields not applicable to the sweep kind stay None."""

    policy: str
    b: int
    ber_target: float
    d_m: Optional[float] = None
    pt_mw: Optional[float] = None
    pt_dbm: Optional[float] = None
    pmin_dbm: Optional[float] = None
    p_link: Optional[float] = None
    route_mask: Optional[str] = None
    hops: Optional[int] = None
    energy_j_per_bit: Optional[float] = None
    energy_dbmj: Optional[float] = None
    delay_s: Optional[float] = None
    is_argmin: bool = False
    error: Optional[str] = None


def _flag_argmin(groups, key) -> list[SweepRow]:
    """Mark, within each group of rows, the row minimizing key (errors
    excluded); return the marked rows."""
    marked = []
    for group_rows in groups:
        valid = [r for r in group_rows if r.error is None]
        if not valid:
            continue
        best = min(valid, key=key)
        best.is_argmin = True
        marked.append(best)
    return marked


def _evaluate(row: SweepRow, compute: Callable[[], _T]) -> Optional[_T]:
    """Result of one grid point, or None with row.error set when the model
    has no answer there."""
    try:
        return compute()
    except (InfeasibleTargetError, UnreachableLinkError) as exc:
        row.error = str(exc)
        return None


def _route_filler(
    config: RunConfig, objective: str,
) -> Callable[[SweepRow, PowerPolicy], SweepRow]:
    """A function that fills a row with the optimal route, under a power
    policy, at the row's (b, BER target) on the config's relay line."""
    net, circuit, radio, prop = (
        config.network(), config.circuit(), config.radio(), config.propagation())
    t_r_s = config.resolved_t_r_s()

    def fill(row: SweepRow, policy: PowerPolicy) -> SweepRow:
        result = _evaluate(row, lambda: optimal_route(
            net, policy, ModulationScheme(row.b), BerTarget(row.ber_target),
            circuit, radio, prop, objective=objective, t_r_s=t_r_s,
        ))
        if result is not None:
            row.route_mask = result.route.mask_string(net.relay_count)
            row.hops = len(result.per_hop)
            row.energy_j_per_bit = result.total_energy_per_bit
            row.energy_dbmj = energy_to_dbmj(result.total_energy_per_bit)
            row.delay_s = result.total_delay
        return row

    return fill


def _energy(row: SweepRow) -> float:
    return row.energy_j_per_bit


def run_singlehop(config: RunConfig) -> list[SweepRow]:
    """Evaluate every (b, d) grid point; flag the per-distance energy argmin."""
    policy, circuit, radio, prop = (
        config.power_policy(), config.circuit(), config.radio(), config.propagation())
    t_r_s = config.resolved_t_r_s()
    pb_bar = config.ber_target
    target = BerTarget(pb_bar)
    rows: list[SweepRow] = []
    groups: dict[float, list[SweepRow]] = {}
    for b in sorted(config.b_grid):
        scheme = ModulationScheme(b)
        for d in sorted(config.d_grid_m):
            row = SweepRow(policy=policy.name, b=b, ber_target=pb_bar, d_m=d)
            m = _evaluate(row, lambda: link_metrics(
                d, policy, scheme, target, circuit, radio, prop, t_r_s=t_r_s,
            ))
            if m is not None:
                row.pt_dbm = m.pt_dbm
                row.pmin_dbm = m.pmin_dbm
                row.p_link = m.p_link
                row.energy_j_per_bit = m.energy_per_bit
                row.energy_dbmj = energy_to_dbmj(m.energy_per_bit)
                row.delay_s = m.delay
            rows.append(row)
            groups.setdefault(d, []).append(row)
    _flag_argmin(groups.values(), key=_energy)
    return rows


def run_multihop(config: RunConfig, objective: str = "energy") -> list[SweepRow]:
    """Optimal route per (BER target, b); flag the per-target argmin under
    the chosen objective."""
    policy = config.power_policy()
    pt_mw = policy.pt_watts * 1e3 if isinstance(policy, FixedPower) else None
    fill = _route_filler(config, objective)
    rows: list[SweepRow] = []
    groups: dict[float, list[SweepRow]] = {}
    for pb_bar in sorted(config.ber_grid):
        for b in sorted(config.b_grid):
            row = fill(SweepRow(policy=policy.name, b=b, ber_target=pb_bar, pt_mw=pt_mw), policy)
            rows.append(row)
            groups.setdefault(pb_bar, []).append(row)
    objective_key = _energy if objective == "energy" else (lambda r: r.delay_s)
    _flag_argmin(groups.values(), key=objective_key)
    return rows


def run_joint(config: RunConfig) -> tuple[list[SweepRow], Optional[SweepRow]]:
    """Optimal-route energy surface over (b, pt); returns rows plus the
    global-minimum row (None when every grid point is infeasible). Ties
    go to the smaller b, then the smaller pt. The powers come from
    pt_grid_mw, so the config's policy must be the fixed one."""
    if config.policy != FixedPower.name:
        raise ConfigError(f"joint sweeps fixed powers over pt_grid_mw; "
                          f"policy {config.policy!r} does not apply")
    fill = _route_filler(config, "energy")
    policies = [FixedPower(p * 1e-3) for p in sorted(config.pt_grid_mw)]
    rows = [
        fill(SweepRow(policy=FixedPower.name, b=b, ber_target=config.ber_target,
                      pt_mw=policy.pt_watts * 1e3), policy)
        for b in sorted(config.b_grid)
        for policy in policies
    ]
    best = _flag_argmin([rows], key=_energy)
    return rows, best[0] if best else None
