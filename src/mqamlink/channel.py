"""Large-scale propagation model and link outage probability.

Combined path loss plus log-normal shadowing: the dB-domain received
power is the transmit power plus a distance-dependent mean gain plus a
zero-mean Gaussian shadowing term. A link is in outage when the received
power falls below a threshold, which triggers a retransmission.

All powers in this module are in dBm (0 dBm = 1 mW); conversions from
watts happen at the module boundary. A distance that is not positive
and finite raises ValueError, and one inside the far-field reference d0
raises UnreachableLinkError, whichever power policy set the hop.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .numerics import gaussian_q, require_positive

__all__ = [
    "SPEED_OF_LIGHT",
    "DEFAULT_CARRIER_HZ",
    "PropagationParams",
    "ShadowedLink",
    "dbm_to_watts",
    "watts_to_dbm",
    "k_db_from_carrier",
    "path_loss_db",
    "mean_received_power_dbm",
    "outage_probability",
    "required_pt_dbm",
    "monte_carlo_outage",
    "monte_carlo_cap_reachable",
    "MonteCarloStopped",
    "UnreachableLinkError",
]

SPEED_OF_LIGHT = 2.998e8  # m/s
DEFAULT_CARRIER_HZ = 2.5e9

# Safety cap on retransmission rounds in the Monte Carlo loop; only
# reachable when the outage probability is pathologically close to 1.
_MAX_MC_ROUNDS = 100_000
# Callers start a simulation only when its chance of hitting that cap is
# at most this (see monte_carlo_cap_reachable).
_MC_CAP_RISK = 1e-9
# Packets drawn per chunk of a Monte Carlo round: one 128 KiB buffer.
_MC_CHUNK = 1 << 14


class MonteCarloStopped(Exception):
    """A simulation ended early because its stop event was set."""


class UnreachableLinkError(ValueError):
    """Hop or route that cannot carry traffic. A hop cannot when it is
    shorter than the far-field reference distance, when its receive
    threshold has no finite dBm value, when it is so deep in outage that
    its outage probability rounds to 1, or when its transmit power,
    energy or delay lies beyond the double range. A route cannot when its
    total energy or delay does, and a search raises it when no usable
    route is left."""


def dbm_to_watts(p_dbm: float) -> float:
    """Power in watts; inf for a power beyond the double range. Raises
    ValueError for NaN."""
    if math.isnan(p_dbm):
        raise ValueError(f"power must be a number to express in watts, got {p_dbm} dBm")
    try:
        return 1e-3 * 10.0 ** (p_dbm / 10.0)
    except OverflowError:
        return math.inf


def watts_to_dbm(p_watts: float) -> float:
    """Power in dBm; inf for an infinite power, which `energy.hop_costs`
    reports as a receive threshold with no finite dBm value. Raises
    ValueError for a power that is not positive, NaN included."""
    if not p_watts > 0:
        raise ValueError(f"power must be positive to express in dBm, got {p_watts} W")
    return 10.0 * math.log10(p_watts / 1e-3)


def k_db_from_carrier(frequency_hz: float, d0_m: float) -> float:
    """Reference channel gain in dB at the far-field distance d0.

    Equals 20*log10(wavelength / (4*pi*d0)) for the given carrier. Raises
    ValueError when that ratio overflows or underflows, so the gain would
    not be finite.
    """
    require_positive(frequency_hz=frequency_hz, d0_m=d0_m)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    ratio = wavelength / (4.0 * math.pi * d0_m)
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"frequency {frequency_hz} Hz with d0 {d0_m} m gives a reference gain "
            "outside the double range"
        )
    return 20.0 * math.log10(ratio)


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
        # the path loss falls by 10*beta dB per decade of distance
        require_positive(d0_m=self.d0_m, sigma_psi_db=self.sigma_psi_db,
                         beta_db_per_decade=10.0 * self.beta)
        if not math.isfinite(self.k_db):
            raise ValueError(f"k_db must be finite, got {self.k_db}")


@dataclass(frozen=True)
class ShadowedLink:
    """One hop: distance, transmit power, and receive threshold (dBm)."""

    distance_m: float
    pt_dbm: float
    pmin_dbm: float

    def __post_init__(self) -> None:
        # checked inline, not through require_positive: every hop evaluation builds one
        if not 0 < self.distance_m < math.inf:
            raise ValueError(f"distance_m must be positive and finite, got {self.distance_m}")
        if not (math.isfinite(self.pt_dbm) and math.isfinite(self.pmin_dbm)):
            raise ValueError(f"pt_dbm, pmin_dbm must be finite, got {self.pt_dbm, self.pmin_dbm}")


def path_loss_db(distance_m: float, params: PropagationParams) -> float:
    """Path loss in dB beyond the reference gain: 10 beta log10(d / d0).

    Raises ValueError for a distance that is not positive and finite, and
    UnreachableLinkError for one inside the far-field reference d0.
    """
    if not 0.0 < distance_m < math.inf:
        raise ValueError(f"distance_m must be positive and finite, got {distance_m}")
    if distance_m < params.d0_m:
        raise UnreachableLinkError(
            f"distance {distance_m} m is inside the far-field reference {params.d0_m} m"
        )
    return 10.0 * params.beta * math.log10(distance_m / params.d0_m)


def mean_received_power_dbm(
    pt_dbm: float, distance_m: float, params: PropagationParams
) -> float:
    """Mean (shadowing at zero) received power in dBm at the given distance."""
    return pt_dbm + params.k_db - path_loss_db(distance_m, params)


def outage_probability(link: ShadowedLink, params: PropagationParams) -> float:
    """Probability that the shadowed received power falls below the threshold.

    The shadowing term is Gaussian in dB, so the outage probability is
    1 - Q((pmin - mean_received) / sigma), evaluated in the reflected
    form Q((mean_received - pmin) / sigma) so that deep-margin links do
    not round to exactly zero. The opposite tail saturates: once the
    threshold sits more than about 8 sigma above the mean, the result
    rounds to exactly 1.0 in double precision. A margin that overflows
    in sigma units (an infinite path loss, or a sigma far below the
    margin) gives the exact limits 0 and 1.
    """
    mean_dbm = mean_received_power_dbm(link.pt_dbm, link.distance_m, params)
    z = (mean_dbm - link.pmin_dbm) / params.sigma_psi_db
    if math.isinf(z):
        return 0.0 if z > 0 else 1.0
    return gaussian_q(z)


def required_pt_dbm(
    pmin_dbm: float, distance_m: float, params: PropagationParams
) -> float:
    """Transmit power that puts the mean received power exactly at pmin.

    Algebraic inverse of mean_received_power_dbm; feeding the result back
    through it reproduces pmin up to floating-point rounding.
    """
    return pmin_dbm - params.k_db + path_loss_db(distance_m, params)


def monte_carlo_cap_reachable(p_outage: float, trials: int) -> bool:
    """Whether `monte_carlo_outage` may exceed its round cap on a link.

    The chance that one of the `trials` packets is still in outage after
    every capped round is at most trials * p_outage^cap. Deciding from
    the analytic outage probability, before any draw, lets a caller skip
    a near-certain-outage link instead of failing after a long simulation.
    """
    return trials * p_outage**_MAX_MC_ROUNDS > _MC_CAP_RISK


def monte_carlo_outage(
    link: ShadowedLink,
    params: PropagationParams,
    trials: int,
    seed: int,
    *,
    stop: threading.Event | None = None,
) -> tuple[float, float]:
    """Simulate shadowing draws to validate the analytic outage model.

    Each packet redraws an independent shadowing value per attempt until
    the attempt succeeds. Returns (empirical outage probability of the
    first attempt, mean number of transmissions per packet).

    Only the number of packets still in outage is tracked: a packet's
    transmission count is the number of rounds it stays active, so the
    mean count is the sum over rounds of the active size, divided by
    `trials`, and the first-round outage rate is the first round's
    failures divided by `trials`. Both sums are integers, exact in
    float64. Each round draws one standard normal z per active packet and
    scales it in place to sigma*z; `normal(0, sigma)` computes 0 + sigma*z
    from the same draws, so each seed keeps its draw stream, and a fixed
    seed always gives the same result.

    A round draws its packets in chunks of at most 2^14 through one
    fixed buffer, so memory stays flat in `trials` and the working set
    stays in cache. `standard_normal` fills its output sequentially, so
    the chunked draws are the same stream as one draw per round, bit for
    bit. The heavy steps release the interpreter lock, so simulations of
    different links can run on concurrent threads.

    When `stop` is given, it is checked before each chunk; once it is set,
    the simulation raises MonteCarloStopped, so a caller can end it within
    one chunk of draws.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    mean_dbm = mean_received_power_dbm(link.pt_dbm, link.distance_m, params)
    draws = np.empty(min(trials, _MC_CHUNK))
    failed = np.empty(draws.size, dtype=bool)
    active = trials
    first_failures = 0
    transmissions = 0
    rounds = 0
    while active:
        rounds += 1
        if rounds > _MAX_MC_ROUNDS:
            raise RuntimeError(
                f"retransmission simulation exceeded {_MAX_MC_ROUNDS} rounds; "
                "outage probability is too close to 1"
            )
        transmissions += active
        still_failed = 0
        for start in range(0, active, _MC_CHUNK):
            if stop is not None and stop.is_set():
                raise MonteCarloStopped(f"simulation stopped in round {rounds}")
            size = min(_MC_CHUNK, active - start)
            received_dbm = rng.standard_normal(out=draws[:size])
            received_dbm *= params.sigma_psi_db
            np.subtract(mean_dbm, received_dbm, out=received_dbm)
            still_failed += int(np.count_nonzero(
                np.less_equal(received_dbm, link.pmin_dbm, out=failed[:size])
            ))
        active = still_failed
        if rounds == 1:
            first_failures = active
    return first_failures / trials, transmissions / trials
