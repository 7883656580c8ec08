"""Device-level energy accounting for one hop.

A single transmission spends power in the amplifier, the transmit and
receive circuits, and a short transient at startup; sleep power is
treated as zero. Failed attempts are repeated until success, so the
expected cost scales by 1/(1 - p_link), and the same geometric factor
applies to the per-link delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

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

    pt_watts: float

    def __post_init__(self) -> None:
        require_positive(pt_watts=self.pt_watts)


@dataclass(frozen=True)
class VariablePower:
    """Adapt transmit power so the mean received power sits at the threshold."""


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


def expected_link_energy(e_single: float, p_link: float) -> float:
    """Expected energy over hop-by-hop retransmissions: e_single / (1 - p_link)."""
    if not 0.0 <= p_link < 1.0:
        raise ValueError(f"p_link must lie in [0, 1), got {p_link}")
    return e_single / (1.0 - p_link)


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
    if not 0.0 <= p_link < 1.0:
        raise ValueError(f"p_link must lie in [0, 1), got {p_link}")
    overhead = circuit.ttr_s if t_r_s is None else t_r_s
    return (on_time(radio, scheme) + overhead) / (1.0 - p_link)


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
    folds the outage probability into the retransmission expectations.
    Raises UnreachableLinkError for a hop shorter than d0, one whose
    outage probability rounds to 1, and one whose receive threshold,
    transmit power, energy or delay falls outside the double range.
    """
    gamma = required_gamma_b(target, scheme)
    pmin_w = min_received_power_watts(gamma, scheme, radio)
    pmin_dbm = watts_to_dbm(pmin_w) if pmin_w > 0.0 else -math.inf
    if not math.isfinite(pmin_dbm):
        raise UnreachableLinkError(
            f"{distance_m} m hop is unusable: its receive threshold {pmin_w} W "
            "has no finite dBm value"
        )
    if isinstance(policy, FixedPower):
        pt_w = policy.pt_watts
        pt_dbm = watts_to_dbm(pt_w)
    else:
        pt_dbm = required_pt_dbm(pmin_dbm, distance_m, prop)
        pt_w = dbm_to_watts(pt_dbm)
    if not (pt_dbm < math.inf and pt_w < math.inf):
        raise UnreachableLinkError(
            f"{distance_m} m hop is unusable: its transmit power {pt_dbm:.6g} dBm "
            "is beyond the double range"
        )
    p_link = outage_probability(ShadowedLink(distance_m, pt_dbm, pmin_dbm), prop)
    if p_link >= 1.0:
        raise UnreachableLinkError(
            f"{distance_m} m hop is unusable: its outage probability rounds to 1 "
            f"(P_t {pt_dbm:.6g} dBm, threshold {pmin_dbm:.6g} dBm)"
        )
    e_single = single_tx_energy_per_bit(pt_w, scheme, circuit, radio)
    energy = expected_link_energy(e_single, p_link)
    delay = expected_link_delay(radio, scheme, circuit, p_link, t_r_s)
    if not (0.0 < energy < math.inf and delay < math.inf):
        raise UnreachableLinkError(
            f"{distance_m} m hop is unusable: its expected energy {energy} J/bit "
            f"or delay {delay} s is outside the double range"
        )
    return LinkMetrics(
        p_link=p_link,
        energy_per_bit=energy,
        delay=delay,
        pt_dbm=pt_dbm,
        pmin_dbm=pmin_dbm,
        gamma_b_bar=gamma,
    )


def energy_to_dbmj(energy_j: float) -> float:
    """Energy in decibels referenced to 1 mJ: 10*log10(E / 1 mJ)."""
    if energy_j <= 0:
        raise ValueError(f"energy must be positive, got {energy_j}")
    return 10.0 * math.log10(energy_j / 1e-3)
