"""Device-level energy accounting for one hop.

A single transmission spends power in the amplifier, the transmit and
receive circuits, and a short transient at startup; sleep power is
treated as zero. Failed attempts are repeated until success, so the
expected cost scales by 1/(1 - p_link), and the same geometric factor
applies to the per-link delay.

One function, `hop_costs`, evaluates a hop. It resolves what does not
depend on the hop's length once (the BER inversion, the receive
threshold, the attempt time) and returns the function of the length,
with the floors every hop's energy and delay is bounded by. A
fixed-power hop takes its outage probability from `channel`; a
variable-power hop puts the mean received power on the receive
threshold, so its outage probability is 1/2 by construction, and it
computes its path loss once, for the transmit power. A route search
calls `hop_costs` once and the returned function at most once per gap;
`link_metrics` calls both for one hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple, Union

from .channel import (
    PropagationParams,
    ShadowedLink,
    UnreachableLinkError,
    dbm_to_watts,
    outage_probability,
    path_loss_db,
    required_pt_dbm,
    watts_to_dbm,
)
from .modulation import (
    BerTarget,
    ModulationScheme,
    RadioConfig,
    min_received_power_watts,
    required_gamma_b,
)
from .numerics import require_positive

__all__ = [
    "CircuitProfile",
    "FixedPower",
    "VariablePower",
    "PowerPolicy",
    "LinkMetrics",
    "amplifier_overhead",
    "attempt_overhead",
    "on_time",
    "single_tx_energy_per_bit",
    "hop_costs",
    "link_metrics",
    "energy_to_dbmj",
]


def _check_eta(eta: float) -> None:
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    # the peak-to-average factor is below 3 for every M, so a finite 3/eta
    # keeps every constellation's amplifier overhead finite
    if not math.isfinite(3.0 / eta):
        raise ValueError(f"eta {eta} is so small that the amplifier overhead overflows")


@dataclass(frozen=True)
class CircuitProfile:
    """Transceiver circuit parameters (defaults: the reference 2.5 GHz radio)."""

    pct_w: float = 0.0982  # transmitter circuit power (W)
    pcr_w: float = 0.1125  # receiver circuit power (W)
    ptr_w: float = 0.100  # transient-mode power (W)
    ttr_s: float = 5e-6  # transient duration (s)
    eta: float = 0.35  # amplifier drain efficiency

    def __post_init__(self) -> None:
        require_positive(pct_w=self.pct_w, pcr_w=self.pcr_w, ptr_w=self.ptr_w,
                         ttr_s=self.ttr_s)
        _check_eta(self.eta)


@dataclass(frozen=True)
class FixedPower:
    """Transmit at a fixed power regardless of distance."""

    name: ClassVar[str] = "fixed"
    pt_watts: float

    def __post_init__(self) -> None:
        require_positive(pt_watts=self.pt_watts)


@dataclass(frozen=True)
class VariablePower:
    """Adapt transmit power so the mean received power sits at the threshold."""

    name: ClassVar[str] = "variable"


PowerPolicy = Union[FixedPower, VariablePower]


class LinkMetrics(NamedTuple):
    """Computed figures for one hop, the record the hop function returns."""

    p_link: float
    energy_per_bit: float  # expected J/bit including retransmissions
    delay: float  # expected s per packet including retransmissions
    pt_dbm: float
    pmin_dbm: float
    gamma_b_bar: float


def amplifier_overhead(scheme: ModulationScheme, eta: float) -> float:
    """Extra amplifier drain per watt radiated: peak-to-average over efficiency, minus 1."""
    _check_eta(eta)
    root_m = math.sqrt(scheme.m)
    xi = 3.0 * (root_m - 1.0) / (root_m + 1.0)
    return xi / eta - 1.0


def on_time(radio: RadioConfig, scheme: ModulationScheme) -> float:
    """Active transmission time for one packet: packet_bits / (b * bandwidth)."""
    return radio.packet_bits / (scheme.b * radio.bandwidth_hz)


def attempt_overhead(circuit: CircuitProfile, t_r_s: float | None = None) -> float:
    """Per-attempt delay overhead (s) beyond the on-air time: t_r_s, or the
    transient duration when it is None. Raises ValueError for a t_r_s that
    is negative, NaN or infinite."""
    if t_r_s is None:
        return circuit.ttr_s
    if not 0.0 <= t_r_s < math.inf:
        raise ValueError(f"t_r_s must be nonnegative and finite, got {t_r_s}")
    return t_r_s


def _attempt_energy_per_bit(
    pt_watts: float, gain: float, t_on: float, circuit: CircuitProfile, radio: RadioConfig
) -> float:
    """Energy per bit (J) of one attempt at pt_watts, given the amplifier
    drain per watt radiated (gain = 1 + amplifier overhead) and the on-air
    time t_on."""
    packet_energy = (gain * pt_watts + circuit.pct_w + circuit.pcr_w) * t_on
    packet_energy += circuit.ptr_w * circuit.ttr_s
    return packet_energy / radio.packet_bits


def single_tx_energy_per_bit(
    pt_watts: float,
    scheme: ModulationScheme,
    circuit: CircuitProfile,
    radio: RadioConfig,
) -> float:
    """Energy per bit (J) of one transmission attempt, sleep power excluded.
    Raises ValueError for a pt_watts that is negative, NaN or infinite."""
    if not 0.0 <= pt_watts < math.inf:
        raise ValueError(f"pt_watts must be nonnegative and finite, got {pt_watts}")
    return _attempt_energy_per_bit(pt_watts, 1.0 + amplifier_overhead(scheme, circuit.eta),
                                   on_time(radio, scheme), circuit, radio)


def _hop_unusable(distance_m: float, reason: str) -> UnreachableLinkError:
    return UnreachableLinkError(f"{distance_m} m hop is unusable: {reason}")


_HopCost = Callable[[float], LinkMetrics]


def hop_costs(
    policy: PowerPolicy,
    scheme: ModulationScheme,
    target: BerTarget,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    t_r_s: float | None = None,
) -> tuple[_HopCost, float, float]:
    """A hop's figures as a function of its length, with the floors every
    hop's energy and delay is bounded by: `(cost, energy_floor,
    delay_floor)`. `cost(distance_m)` returns the hop's LinkMetrics.

    The parts that do not depend on the length are computed here, once:
    the required mean bit SNR and the receive threshold, the time of one
    attempt `attempt_s` (on-air time plus the overhead t_r_s, which
    defaults to the transient duration), the amplifier overhead, and
    under a fixed policy the transmit power and the single-attempt energy
    `e_single`. Failed attempts repeat until success, so energy and delay
    are the single-attempt energy and `attempt_s` divided by the float
    1 - p_link, which lies in (0, 1].

    A fixed-power hop takes p_link from `channel.outage_probability`, and
    its floors are `e_single` and `attempt_s`. A variable-power hop puts
    the mean received power exactly on the threshold, so p_link is 1/2
    and its energy and delay are exact doublings; its transmit power
    follows the length but radiates at least 0 W, so its floors are twice
    the energy of an attempt at 0 W and twice `attempt_s`. Rounding is
    monotone, so every hop's figures are at least these floors in
    floating point too.

    Raises InfeasibleTargetError here for a target the constellation
    cannot meet, and ValueError for a t_r_s that `attempt_overhead`
    rejects. `cost` applies the distance rule of `channel` first: it
    raises ValueError for a length that is not positive and finite, and
    UnreachableLinkError for one shorter than d0. It then raises
    UnreachableLinkError for a hop whose receive threshold has no finite
    dBm value, a fixed-power one whose outage probability rounds to 1,
    and one whose transmit power, energy or delay falls outside the
    double range.
    """
    gamma = required_gamma_b(target, scheme)
    pmin_w = min_received_power_watts(gamma, scheme, radio)
    pmin_dbm = watts_to_dbm(pmin_w) if pmin_w > 0.0 else -math.inf
    t_on = on_time(radio, scheme)
    attempt_s = t_on + attempt_overhead(circuit, t_r_s)
    gain = 1.0 + amplifier_overhead(scheme, circuit.eta)
    fixed_dbm = e_fixed = None
    if isinstance(policy, FixedPower):
        # a FixedPower is positive and finite, so its dBm value is finite
        fixed_dbm = watts_to_dbm(policy.pt_watts)
        e_fixed = _attempt_energy_per_bit(policy.pt_watts, gain, t_on, circuit, radio)
        energy_floor, delay_floor = e_fixed, attempt_s
    else:
        # p_link = 1/2 doubles an attempt, which radiates at least 0 W
        energy_floor = 2.0 * _attempt_energy_per_bit(0.0, gain, t_on, circuit, radio)
        delay_floor = 2.0 * attempt_s

    if not math.isfinite(pmin_dbm):
        def unusable(distance_m: float) -> LinkMetrics:
            path_loss_db(distance_m, prop)  # for its distance rule, which comes first
            raise _hop_unusable(
                distance_m, f"its receive threshold {pmin_w} W has no finite dBm value"
            )

        return unusable, energy_floor, delay_floor

    def cost(distance_m: float) -> LinkMetrics:
        if e_fixed is not None:
            pt_dbm, e_single = fixed_dbm, e_fixed
            p_link = outage_probability(ShadowedLink(distance_m, pt_dbm, pmin_dbm), prop)
            if p_link >= 1.0:
                raise _hop_unusable(
                    distance_m, f"its outage probability rounds to 1 "
                    f"(P_t {pt_dbm:.6g} dBm, threshold {pmin_dbm:.6g} dBm)"
                )
        else:
            pt_dbm = required_pt_dbm(pmin_dbm, distance_m, prop)
            pt_w = dbm_to_watts(pt_dbm)
            if not (pt_dbm < math.inf and pt_w < math.inf):
                raise _hop_unusable(
                    distance_m, f"its transmit power {pt_dbm:.6g} dBm is beyond the double range"
                )
            p_link, e_single = 0.5, _attempt_energy_per_bit(pt_w, gain, t_on, circuit, radio)
        energy = e_single / (1.0 - p_link)
        delay = attempt_s / (1.0 - p_link)
        if not (0.0 < energy < math.inf and delay < math.inf):
            raise _hop_unusable(
                distance_m, f"its expected energy {energy} J/bit "
                f"or delay {delay} s is outside the double range"
            )
        return LinkMetrics(p_link, energy, delay, pt_dbm, pmin_dbm, gamma)

    return cost, energy_floor, delay_floor


def link_metrics(
    distance_m: float,
    policy: PowerPolicy,
    scheme: ModulationScheme,
    target: BerTarget,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    t_r_s: float | None = None,
) -> LinkMetrics:
    """Full per-hop pipeline from BER constraint to expected energy and
    delay: `hop_costs` evaluated at one length. Raises as `hop_costs` and
    its `cost` do.
    """
    return hop_costs(policy, scheme, target, circuit, radio, prop, t_r_s)[0](distance_m)


def energy_to_dbmj(energy_j: float) -> float:
    """Energy in decibels referenced to 1 mJ: 10*log10(E / 1 mJ); inf for
    an infinite energy. Raises ValueError for one that is not positive,
    NaN included."""
    if not energy_j > 0:
        raise ValueError(f"energy must be positive, got {energy_j}")
    return 10.0 * math.log10(energy_j / 1e-3)
