"""Device-level energy accounting for one hop.

A single transmission spends power in the amplifier, the transmit and
receive circuits, and a short transient at startup; sleep power is
treated as zero. Failed attempts are repeated until success, so the
expected cost scales by 1/(1 - p_link), and the same geometric factor
applies to the per-link delay.

A hop's cost splits in two: `threshold` depends only on the
constellation and the BER target, and the function that `hop_costs`
returns takes the hop's length. A route search computes the first once
and calls the second once per gap; `link_metrics` is the two in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Union

from .channel import (
    PropagationParams,
    ShadowedLink,
    UnreachableLinkError,
    dbm_to_watts,
    outage_probability,
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
    "on_time",
    "single_tx_energy_per_bit",
    "expected_link_energy",
    "expected_link_delay",
    "threshold",
    "hop_unusable",
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


@dataclass(frozen=True)
class LinkMetrics:
    """Computed figures for one hop."""

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


def single_tx_energy_per_bit(
    pt_watts: float,
    scheme: ModulationScheme,
    circuit: CircuitProfile,
    radio: RadioConfig,
) -> float:
    """Energy per bit (J) of one transmission attempt, sleep power excluded."""
    if pt_watts < 0:
        raise ValueError(f"pt_watts must be nonnegative, got {pt_watts}")
    alpha = amplifier_overhead(scheme, circuit.eta)
    t_on = on_time(radio, scheme)
    packet_energy = ((1.0 + alpha) * pt_watts + circuit.pct_w + circuit.pcr_w) * t_on
    packet_energy += circuit.ptr_w * circuit.ttr_s
    return packet_energy / radio.packet_bits


def _per_delivery(per_attempt: float, p_link: float) -> float:
    """Expectation over hop-by-hop retransmissions of a per-attempt cost."""
    if not 0.0 <= p_link < 1.0:
        raise ValueError(f"p_link must lie in [0, 1), got {p_link}")
    return per_attempt / (1.0 - p_link)


def _attempt_time(
    radio: RadioConfig, scheme: ModulationScheme, circuit: CircuitProfile, t_r_s: float | None
) -> float:
    """On-air time of one attempt plus its overhead t_r_s, which defaults
    to the transient duration."""
    return on_time(radio, scheme) + (circuit.ttr_s if t_r_s is None else t_r_s)


def expected_link_energy(e_single: float, p_link: float) -> float:
    """Expected energy over hop-by-hop retransmissions: e_single / (1 - p_link)."""
    return _per_delivery(e_single, p_link)


def expected_link_delay(
    radio: RadioConfig,
    scheme: ModulationScheme,
    circuit: CircuitProfile,
    p_link: float,
    t_r_s: float | None = None,
) -> float:
    """Expected per-packet delay (s) over retransmissions.

    Each attempt costs the on-air time plus a per-attempt overhead t_r_s,
    which defaults to the transient duration.
    """
    return _per_delivery(_attempt_time(radio, scheme, circuit, t_r_s), p_link)


def threshold(
    scheme: ModulationScheme, target: BerTarget, radio: RadioConfig
) -> tuple[float, float]:
    """Required mean bit SNR and receive threshold: (gamma_b_bar, pmin_dbm).

    Independent of the hop, so a route search resolves it once. Raises
    InfeasibleTargetError for a target the constellation cannot meet, and
    UnreachableLinkError when the threshold has no finite dBm value; that
    error's message is the reason every hop is unusable, for
    `hop_unusable` to attach to a hop.
    """
    gamma = required_gamma_b(target, scheme)
    pmin_w = min_received_power_watts(gamma, scheme, radio)
    pmin_dbm = watts_to_dbm(pmin_w) if pmin_w > 0.0 else -math.inf
    if not math.isfinite(pmin_dbm):
        raise UnreachableLinkError(f"its receive threshold {pmin_w} W has no finite dBm value")
    return gamma, pmin_dbm


def hop_unusable(distance_m: float, reason: object) -> UnreachableLinkError:
    """The error for a hop of this length that cannot carry traffic."""
    return UnreachableLinkError(f"{distance_m} m hop is unusable: {reason}")


def hop_costs(
    policy: PowerPolicy,
    scheme: ModulationScheme,
    pmin_dbm: float,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    t_r_s: float | None = None,
) -> Callable[[float], tuple[float, float, float, float]]:
    """A hop's figures at the receive threshold pmin_dbm, as a function of
    its length: `cost(distance_m) -> (p_link, energy_per_bit, delay,
    pt_dbm)`, the leading fields of LinkMetrics.

    The parts that do not depend on the length are computed here, once:
    the attempt time, and under a fixed policy the transmit power and the
    single-attempt energy. A variable-power hop lands exactly on the
    threshold, so its outage probability is 1/2. `cost` raises
    UnreachableLinkError for a hop shorter than d0, one whose outage
    probability rounds to 1, and one whose transmit power, energy or
    delay falls outside the double range.
    """
    attempt_s = _attempt_time(radio, scheme, circuit, t_r_s)
    fixed = None
    if isinstance(policy, FixedPower):
        # a FixedPower is positive and finite, so its dBm value is finite
        fixed = (watts_to_dbm(policy.pt_watts),
                 single_tx_energy_per_bit(policy.pt_watts, scheme, circuit, radio))

    def cost(distance_m: float) -> tuple[float, float, float, float]:
        if fixed is not None:
            pt_dbm, e_single = fixed
        else:
            pt_dbm = required_pt_dbm(pmin_dbm, distance_m, prop)
            pt_w = dbm_to_watts(pt_dbm)
            if not (pt_dbm < math.inf and pt_w < math.inf):
                raise hop_unusable(
                    distance_m, f"its transmit power {pt_dbm:.6g} dBm is beyond the double range"
                )
            e_single = single_tx_energy_per_bit(pt_w, scheme, circuit, radio)
        p_link = outage_probability(ShadowedLink(distance_m, pt_dbm, pmin_dbm), prop)
        if p_link >= 1.0:
            raise hop_unusable(
                distance_m, f"its outage probability rounds to 1 "
                f"(P_t {pt_dbm:.6g} dBm, threshold {pmin_dbm:.6g} dBm)"
            )
        energy = expected_link_energy(e_single, p_link)
        delay = _per_delivery(attempt_s, p_link)
        if not (0.0 < energy < math.inf and delay < math.inf):
            raise hop_unusable(
                distance_m, f"its expected energy {energy} J/bit "
                f"or delay {delay} s is outside the double range"
            )
        return p_link, energy, delay, pt_dbm

    return cost


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
    """Full per-hop pipeline from BER constraint to expected energy and delay.

    Resolves the required mean bit SNR, converts it to a receive-power
    threshold, applies the power policy (a variable-power link lands
    exactly on the threshold, so its outage probability is 1/2), and
    folds the outage probability into the retransmission expectations:
    `threshold`, then `hop_costs`. Raises UnreachableLinkError for a hop
    shorter than d0, one whose outage probability rounds to 1, and one
    whose receive threshold, transmit power, energy or delay falls
    outside the double range.
    """
    try:
        gamma, pmin_dbm = threshold(scheme, target, radio)
    except UnreachableLinkError as exc:
        raise hop_unusable(distance_m, exc) from exc
    cost = hop_costs(policy, scheme, pmin_dbm, circuit, radio, prop, t_r_s)
    return LinkMetrics(*cost(distance_m), pmin_dbm, gamma)


def energy_to_dbmj(energy_j: float) -> float:
    """Energy in decibels referenced to 1 mJ: 10*log10(E / 1 mJ)."""
    if energy_j <= 0:
        raise ValueError(f"energy must be positive, got {energy_j}")
    return 10.0 * math.log10(energy_j / 1e-3)
