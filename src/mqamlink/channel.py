"""Large-scale propagation model and link outage probability.

Combined path loss plus log-normal shadowing: the dB-domain received
power is the transmit power plus a distance-dependent mean gain plus a
zero-mean Gaussian shadowing term. A link is in outage when the received
power falls below a threshold, which triggers a retransmission.

All powers in this module are in dBm (0 dBm = 1 mW); conversions from
watts happen at the module boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import gaussian_q

__all__ = [
    "SPEED_OF_LIGHT",
    "DEFAULT_CARRIER_HZ",
    "PropagationParams",
    "ShadowedLink",
    "dbm_to_watts",
    "watts_to_dbm",
    "k_db_from_carrier",
    "mean_received_power_dbm",
    "outage_probability",
    "required_pt_dbm",
    "monte_carlo_outage",
    "UnreachableLinkError",
]

SPEED_OF_LIGHT = 2.998e8  # m/s
DEFAULT_CARRIER_HZ = 2.5e9

# Safety cap on retransmission rounds in the Monte Carlo loop; only
# reachable when the outage probability is pathologically close to 1.
_MAX_MC_ROUNDS = 100_000


class UnreachableLinkError(ValueError):
    """Hop that cannot carry traffic: shorter than the far-field reference
    distance, or so deep in outage that its outage probability rounds to 1."""


def dbm_to_watts(p_dbm: float) -> float:
    return 1e-3 * 10.0 ** (p_dbm / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    if p_watts <= 0:
        raise ValueError(f"power must be positive to express in dBm, got {p_watts} W")
    return 10.0 * math.log10(p_watts / 1e-3)


def k_db_from_carrier(frequency_hz: float, d0_m: float) -> float:
    """Reference channel gain in dB at the far-field distance d0.

    Equals 20*log10(wavelength / (4*pi*d0)) for the given carrier.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    if d0_m <= 0:
        raise ValueError(f"d0 must be positive, got {d0_m}")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return 20.0 * math.log10(wavelength / (4.0 * math.pi * d0_m))


@dataclass(frozen=True)
class PropagationParams:
    """Path-loss and shadowing parameters.

    Defaults are the suburban measurement set used throughout the
    numerical studies: exponent 3.12, 3.8 dB shadowing spread, 1 m
    reference distance, 2.5 GHz carrier.
    """

    d0_m: float = 1.0  # far-field reference distance (m)
    beta: float = 3.12  # path-loss exponent
    sigma_psi_db: float = 3.8  # shadowing std dev (dB)
    k_db: float = k_db_from_carrier(DEFAULT_CARRIER_HZ, 1.0)  # gain at d0 (dB)

    def __post_init__(self) -> None:
        if self.d0_m <= 0:
            raise ValueError(f"d0_m must be positive, got {self.d0_m}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.sigma_psi_db <= 0:
            raise ValueError(f"sigma_psi_db must be positive, got {self.sigma_psi_db}")


@dataclass(frozen=True)
class ShadowedLink:
    """One hop: distance, transmit power, and receive threshold (dBm)."""

    distance_m: float
    pt_dbm: float
    pmin_dbm: float

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError(f"distance_m must be positive, got {self.distance_m}")


def mean_received_power_dbm(
    pt_dbm: float, distance_m: float, params: PropagationParams
) -> float:
    """Mean (shadowing at zero) received power in dBm at the given distance."""
    if distance_m < params.d0_m:
        raise UnreachableLinkError(
            f"distance {distance_m} m is inside the far-field reference {params.d0_m} m"
        )
    return pt_dbm + params.k_db - 10.0 * params.beta * math.log10(distance_m / params.d0_m)


def outage_probability(link: ShadowedLink, params: PropagationParams) -> float:
    """Probability that the shadowed received power falls below the threshold.

    The shadowing term is Gaussian in dB, so the outage probability is
    1 - Q((pmin - mean_received) / sigma), evaluated in the reflected
    form Q((mean_received - pmin) / sigma) so that deep-margin links do
    not round to exactly zero. The opposite tail saturates: once the
    threshold sits more than about 8 sigma above the mean, the result
    rounds to exactly 1.0 in double precision.
    """
    mean_dbm = mean_received_power_dbm(link.pt_dbm, link.distance_m, params)
    return gaussian_q((mean_dbm - link.pmin_dbm) / params.sigma_psi_db)


def required_pt_dbm(
    pmin_dbm: float, distance_m: float, params: PropagationParams
) -> float:
    """Transmit power that puts the mean received power exactly at pmin.

    Algebraic inverse of mean_received_power_dbm; feeding the result back
    through it reproduces pmin up to floating-point rounding.
    """
    if distance_m < params.d0_m:
        raise UnreachableLinkError(
            f"distance {distance_m} m is inside the far-field reference {params.d0_m} m"
        )
    return pmin_dbm - params.k_db + 10.0 * params.beta * math.log10(distance_m / params.d0_m)


def monte_carlo_outage(
    link: ShadowedLink,
    params: PropagationParams,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Simulate shadowing draws to validate the analytic outage model.

    Each packet redraws an independent shadowing value per attempt until
    the attempt succeeds. Returns (empirical outage probability of the
    first attempt, mean number of transmissions per packet). Deterministic
    for a fixed seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    mean_dbm = mean_received_power_dbm(link.pt_dbm, link.distance_m, params)
    counts = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    empirical = 0.0
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > _MAX_MC_ROUNDS:
            raise RuntimeError(
                f"retransmission simulation exceeded {_MAX_MC_ROUNDS} rounds; "
                "outage probability is too close to 1"
            )
        psi_db = rng.normal(0.0, params.sigma_psi_db, size=active.size)
        failed = (mean_dbm - psi_db) <= link.pmin_dbm
        counts[active] += 1
        if rounds == 1:
            empirical = float(np.mean(failed))
        active = active[failed]
    return empirical, float(np.mean(counts))
