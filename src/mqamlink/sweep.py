"""Parameter-study engine for the standard experiment grids.

Three sweeps read one validated `RunConfig`: single-hop energy over
(constellation, distance) at `ber_target`, multi-hop optimal-route
energy/delay over (`ber_grid`, constellation), and the joint
(constellation, transmit power) surface over `pt_grid_mw`. Each sweep
builds the config's domain objects once, lists its grid cells in
ascending grid order (a repeated grid value gives a row of its own) and
hands them, with a filler for one cell, to `_sweep`. That one engine
fills every row, turns a grid point with no answer (a BER target the
constellation cannot meet, or no usable hop or route) into an error row
instead of aborting the sweep, and flags the first row of least energy
or delay in each group. So rows come back in canonical grid order, with
argmin flags, whatever order the config lists them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Optional

from .channel import UnreachableLinkError
from .config import ConfigError, RunConfig
from .energy import FixedPower, PowerPolicy, energy_to_dbmj, link_metrics
from .modulation import BerTarget, InfeasibleTargetError, ModulationScheme
from .network import optimal_route

__all__ = ["SweepRow", "run_singlehop", "run_multihop", "run_joint"]


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
    delay_s: Optional[float] = None
    is_argmin: bool = False
    error: Optional[str] = None

    @property
    def energy_dbmj(self) -> Optional[float]:
        """Energy per bit in dBmJ; None on an error row."""
        return None if self.energy_j_per_bit is None else energy_to_dbmj(self.energy_j_per_bit)


_Filler = Callable[[SweepRow, PowerPolicy], None]


def _sweep(cells: list[tuple[SweepRow, PowerPolicy]], fill: _Filler,
           group: Callable[[SweepRow], Hashable], key: str) -> list[SweepRow]:
    """Fill each cell's row under its policy, in order, and return the rows.

    A point where the model has no answer becomes an error row. Within
    each group(row), the first row with the least `key` field, errors
    excluded, is flagged; a group whose rows are all errors flags none.
    """
    best: dict[Hashable, SweepRow] = {}
    for row, policy in cells:
        try:
            fill(row, policy)
        except (InfeasibleTargetError, UnreachableLinkError) as exc:
            row.error = str(exc)
            continue
        g = group(row)
        if g not in best or getattr(row, key) < getattr(best[g], key):
            best[g] = row
    for row in best.values():
        row.is_argmin = True
    return [row for row, _ in cells]


def _route_filler(config: RunConfig, objective: str) -> _Filler:
    """A function that fills a row with the optimal route, under a power
    policy, at the row's (b, BER target) on the config's relay line."""
    net, circuit, radio, prop = (
        config.network(), config.circuit(), config.radio(), config.propagation())

    def fill(row: SweepRow, policy: PowerPolicy) -> None:
        result = optimal_route(
            net, policy, ModulationScheme(row.b), BerTarget(row.ber_target),
            circuit, radio, prop, objective=objective, t_r_s=config.t_r_s,
        )
        row.route_mask = result.route.mask_string(net.relay_count)
        row.hops = len(result.per_hop)
        row.energy_j_per_bit = result.total_energy_per_bit
        row.delay_s = result.total_delay

    return fill


def run_singlehop(config: RunConfig) -> list[SweepRow]:
    """Evaluate every (b, d) grid point; flag the per-distance energy argmin."""
    policy, circuit, radio, prop = (
        config.power_policy(), config.circuit(), config.radio(), config.propagation())
    target = BerTarget(config.ber_target)

    def fill(row: SweepRow, policy: PowerPolicy) -> None:
        m = link_metrics(row.d_m, policy, ModulationScheme(row.b), target,
                         circuit, radio, prop, t_r_s=config.t_r_s)
        row.pt_dbm, row.pmin_dbm, row.p_link = m.pt_dbm, m.pmin_dbm, m.p_link
        row.energy_j_per_bit, row.delay_s = m.energy_per_bit, m.delay

    cells = [(SweepRow(policy=policy.name, b=b, ber_target=config.ber_target, d_m=d), policy)
             for b in sorted(config.b_grid) for d in sorted(config.d_grid_m)]
    return _sweep(cells, fill, lambda row: row.d_m, "energy_j_per_bit")


def run_multihop(config: RunConfig, objective: str = "energy") -> list[SweepRow]:
    """Optimal route per (BER target, b); flag the per-target argmin under
    the chosen objective."""
    policy = config.power_policy()
    pt_mw = config.pt_mw if isinstance(policy, FixedPower) else None
    cells = [(SweepRow(policy=policy.name, b=b, ber_target=pb_bar, pt_mw=pt_mw), policy)
             for pb_bar in sorted(config.ber_grid) for b in sorted(config.b_grid)]
    return _sweep(cells, _route_filler(config, objective), lambda row: row.ber_target,
                  "energy_j_per_bit" if objective == "energy" else "delay_s")


def run_joint(config: RunConfig) -> tuple[list[SweepRow], Optional[SweepRow]]:
    """Optimal-route energy surface over (b, pt); returns rows plus the
    global-minimum row (None when every grid point is infeasible). Ties
    go to the smaller b, then the smaller pt. The powers come from
    pt_grid_mw, so the config's policy must be the fixed one."""
    if config.policy != FixedPower.name:
        raise ConfigError(f"joint sweeps fixed powers over pt_grid_mw; "
                          f"policy {config.policy!r} does not apply")
    cells = [(SweepRow(policy=FixedPower.name, b=b, ber_target=config.ber_target, pt_mw=p),
              FixedPower(p * 1e-3))
             for b in sorted(config.b_grid) for p in sorted(config.pt_grid_mw)]
    rows = _sweep(cells, _route_filler(config, "energy"), lambda row: None, "energy_j_per_bit")
    return rows, next((row for row in rows if row.is_argmin), None)
