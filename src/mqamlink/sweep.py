"""Parameter-study engine for the standard experiment grids.

Three sweep kinds: single-hop energy over (constellation, distance),
multi-hop optimal-route energy/delay over (BER target, constellation),
and the joint (constellation, transmit power) surface. Rows come back in
canonical grid order with argmin flags, so CSV output is deterministic.
Grid points with no answer (a BER target the constellation cannot meet,
or no usable hop or route) become error rows instead of aborting the
sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from .channel import PropagationParams, UnreachableLinkError
from .energy import (
    CircuitProfile,
    FixedPower,
    PowerPolicy,
    energy_to_dbmj,
    link_metrics,
)
from .modulation import BerTarget, InfeasibleTargetError, ModulationScheme, RadioConfig
from .network import LinearNetwork, optimal_route
from .numerics import require_positive

__all__ = ["SweepPlan", "SweepRow", "run_singlehop", "run_multihop", "run_joint"]

_T = TypeVar("_T")

_KINDS = ("singlehop", "multihop", "joint")


@dataclass(frozen=True)
class SweepPlan:
    """Grid definition for one sweep run."""

    kind: str
    b_grid: tuple[int, ...] = (2, 4, 6, 8, 10)
    d_grid_m: tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 100.0)
    pt_grid_w: tuple[float, ...] = tuple(0.005 * k for k in range(1, 21))
    ber_grid: tuple[float, ...] = (1e-4, 3e-4, 5e-4, 8e-4, 1e-3)
    policy: PowerPolicy = FixedPower(0.1)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        # canonical row order: ascending grids regardless of input order
        for name in ("b_grid", "d_grid_m", "pt_grid_w", "ber_grid"):
            object.__setattr__(self, name, tuple(sorted(getattr(self, name))))
        if not (self.b_grid and self.d_grid_m and self.pt_grid_w and self.ber_grid):
            raise ValueError("every grid must be nonempty")
        for b in self.b_grid:
            ModulationScheme(b)
        for pb_bar in self.ber_grid:
            BerTarget(pb_bar)
        for pt_w in self.pt_grid_w:
            FixedPower(pt_w)
        for d in self.d_grid_m:
            require_positive(d_grid_m=d)
        if self.kind in ("singlehop", "joint") and len(self.ber_grid) != 1:
            raise ValueError(f"{self.kind} sweeps use exactly one BER target")


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


def _policy_name(policy: PowerPolicy) -> str:
    return "fixed" if isinstance(policy, FixedPower) else "variable"


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


def _route_row(
    row: SweepRow,
    net: LinearNetwork,
    policy: PowerPolicy,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    objective: str,
    t_r_s: float | None,
) -> SweepRow:
    """Fill row with the optimal route at its (b, BER target)."""
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


def _energy(row: SweepRow) -> float:
    return row.energy_j_per_bit


def run_singlehop(
    plan: SweepPlan,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    t_r_s: float | None = None,
) -> list[SweepRow]:
    """Evaluate every (b, d) grid point; flag the per-distance energy argmin."""
    if plan.kind != "singlehop":
        raise ValueError(f"plan kind must be 'singlehop', got {plan.kind!r}")
    pb_bar = plan.ber_grid[0]
    rows: list[SweepRow] = []
    groups: dict[float, list[SweepRow]] = {}
    for b in plan.b_grid:
        for d in plan.d_grid_m:
            row = SweepRow(policy=_policy_name(plan.policy), b=b, ber_target=pb_bar, d_m=d)
            m = _evaluate(row, lambda: link_metrics(
                d, plan.policy, ModulationScheme(b), BerTarget(pb_bar),
                circuit, radio, prop, t_r_s=t_r_s,
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


def run_multihop(
    plan: SweepPlan,
    net: LinearNetwork,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    objective: str = "energy",
    t_r_s: float | None = None,
) -> list[SweepRow]:
    """Optimal route per (BER target, b); flag the per-target argmin under
    the chosen objective."""
    if plan.kind != "multihop":
        raise ValueError(f"plan kind must be 'multihop', got {plan.kind!r}")
    pt_mw = plan.policy.pt_watts * 1e3 if isinstance(plan.policy, FixedPower) else None
    rows: list[SweepRow] = []
    groups: dict[float, list[SweepRow]] = {}
    for pb_bar in plan.ber_grid:
        for b in plan.b_grid:
            row = _route_row(
                SweepRow(policy=_policy_name(plan.policy), b=b, ber_target=pb_bar, pt_mw=pt_mw),
                net, plan.policy, circuit, radio, prop, objective, t_r_s,
            )
            rows.append(row)
            groups.setdefault(pb_bar, []).append(row)
    objective_key = _energy if objective == "energy" else (lambda r: r.delay_s)
    _flag_argmin(groups.values(), key=objective_key)
    return rows


def run_joint(
    plan: SweepPlan,
    net: LinearNetwork,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    t_r_s: float | None = None,
) -> tuple[list[SweepRow], Optional[SweepRow]]:
    """Optimal-route energy surface over (b, pt); returns rows plus the
    global-minimum row (None when every grid point is infeasible). Ties
    go to the smaller b, then the smaller pt. The powers come from the
    plan's pt_grid_w, so its policy must be a FixedPower."""
    if plan.kind != "joint":
        raise ValueError(f"plan kind must be 'joint', got {plan.kind!r}")
    if not isinstance(plan.policy, FixedPower):
        raise ValueError(f"joint sweeps fixed powers over pt_grid_w, not {plan.policy}")
    pb_bar = plan.ber_grid[0]
    rows = [
        _route_row(
            SweepRow(policy="fixed", b=b, ber_target=pb_bar, pt_mw=pt_w * 1e3),
            net, FixedPower(pt_w), circuit, radio, prop, "energy", t_r_s,
        )
        for b in plan.b_grid
        for pt_w in plan.pt_grid_w
    ]
    best = _flag_argmin([rows], key=_energy)
    return rows, best[0] if best else None
