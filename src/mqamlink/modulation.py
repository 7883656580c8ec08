"""Square-MQAM error-rate analytics over Rayleigh fading.

The average bit error rate as a function of the mean bit SNR comes from
the moment-generating-function form: averaging the two-term AWGN symbol
error expression over an exponential SNR density collapses each
Q-function integral into a finite integral of (1 + c/sin^2(phi))^-1,
and both integrals have closed forms in mu = sqrt(c/(1+c)) (Craig 1991;
Simon & Alouini, MGF chapter). `avg_ber` evaluates them without
cancellation. Inverting that curve under a BER constraint, by bisection,
gives the required mean bit SNR and, from it, the minimum average
received power.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

# `integrate` is not called here. The name stays importable from this
# module because the benchmark's trace points (perfbench/spans.py) look up
# `mqamlink.modulation.integrate` and `mqamlink.modulation.solve_monotone`.
from .numerics import integrate, require_positive, solve_monotone  # noqa: F401

__all__ = [
    "ALLOWED_BITS_PER_SYMBOL",
    "ModulationScheme",
    "BerTarget",
    "RadioConfig",
    "InfeasibleTargetError",
    "avg_ber",
    "required_gamma_b",
    "min_received_power_watts",
]

# Square constellations only: even exponent, 2 .. 10 bits per symbol.
ALLOWED_BITS_PER_SYMBOL = (2, 4, 6, 8, 10)

# Bisection bracket cap; any feasible BER target is reached far earlier
# because the Rayleigh-averaged BER decays like 1/snr.
_BRACKET_CAP = 2.0**60

DEFAULT_BER_TOL = 1e-10


class InfeasibleTargetError(ValueError):
    """BER target cannot be met by the given constellation at any SNR."""


@dataclass(frozen=True)
class ModulationScheme:
    """Square MQAM constellation with b bits per symbol (M = 2^b points)."""

    b: int

    def __post_init__(self) -> None:
        if self.b not in ALLOWED_BITS_PER_SYMBOL:
            raise ValueError(
                f"b must be one of {ALLOWED_BITS_PER_SYMBOL} (square MQAM), got {self.b}"
            )

    @property
    def m(self) -> int:
        return 2**self.b


@dataclass(frozen=True)
class BerTarget:
    """Average-BER constraint; must lie below the zero-SNR ceiling 0.375."""

    pb_bar: float

    def __post_init__(self) -> None:
        if not 0.0 < self.pb_bar < 0.375:
            raise ValueError(f"pb_bar must lie in (0, 0.375), got {self.pb_bar}")


@dataclass(frozen=True)
class RadioConfig:
    """Receiver noise and framing parameters."""

    n0_w_per_hz: float = 4e-21  # one-sided noise spectral density (W/Hz)
    bandwidth_hz: float = 1e4
    packet_bits: int = 20000  # payload bits per packet

    def __post_init__(self) -> None:
        require_positive(n0_w_per_hz=self.n0_w_per_hz, bandwidth_hz=self.bandwidth_hz)
        # the energy and delay formulas divide by it as a float
        if not 0 < self.packet_bits <= sys.float_info.max:
            raise ValueError(f"packet_bits must be positive and fit a float: {self.packet_bits}")


def _mgf_fraction(gamma_b_bar: float, scheme: ModulationScheme) -> float:
    """Coefficient c in the integrand sin^2/(sin^2 + c)."""
    m = scheme.m
    return 3.0 * gamma_b_bar * scheme.b / (2.0 * (m - 1))


def avg_ber(gamma_b_bar: float, scheme: ModulationScheme) -> float:
    """Average BER of square MQAM over Rayleigh fading at mean bit SNR gamma_b_bar.

    The MGF integrals of sin^2/(sin^2 + c) over [0, pi/2] and [0, pi/4]
    equal (pi/2)*eps and (pi/4)*eps - mu*atan(eps/(2 - eps)), with
    mu = sqrt(c/(1+c)) and eps = 1 - mu = 1/((1+c)(1+mu)); the second
    uses atan(1/mu) = pi/4 + atan(eps/(2 - eps)). No step subtracts
    nearly equal numbers, so the result is accurate to a few ulps for
    every finite gamma_b_bar >= 0, and exact at 0: (2a - a^2)/b with
    a = 1 - 1/sqrt(M). Strictly decreasing, tending to 0 as the SNR grows.
    """
    if not 0.0 <= gamma_b_bar < math.inf:
        raise ValueError(f"gamma_b_bar must be finite and nonnegative, got {gamma_b_bar}")
    b = scheme.b
    a = 1.0 - 1.0 / math.sqrt(scheme.m)
    c = _mgf_fraction(gamma_b_bar, scheme)
    mu = math.sqrt(c / (1.0 + c))
    eps = 1.0 / ((1.0 + c) * (1.0 + mu))
    quarter = eps - (4.0 * mu / math.pi) * math.atan(eps / (2.0 - eps))
    return (2.0 * a * eps - a * a * quarter) / b


# Bounded so that a caller drawing fresh targets does not grow it without
# end; a run's grids need at most 25 entries.
@lru_cache(maxsize=256)
def _required_gamma_b(pb_bar: float, b: int, tol: float) -> float:
    scheme = ModulationScheme(b)
    ceiling = avg_ber(0.0, scheme)
    if pb_bar >= ceiling:
        if abs(pb_bar - ceiling) <= tol:
            return 0.0
        raise InfeasibleTargetError(
            f"BER target {pb_bar} is at or above the zero-SNR ceiling "
            f"{ceiling} for b = {b}"
        )
    hi = 1.0
    while avg_ber(hi, scheme) >= pb_bar:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise InfeasibleTargetError(
                f"could not bracket BER target {pb_bar} for b = {b} below SNR {_BRACKET_CAP}"
            )
    return solve_monotone(lambda g: avg_ber(g, scheme), pb_bar, 0.0, hi, tol)


def required_gamma_b(
    target: BerTarget,
    scheme: ModulationScheme,
    tol: float = DEFAULT_BER_TOL,
) -> float:
    """Mean bit SNR at which avg_ber meets the target, by monotone bisection.

    The bracket auto-expands upward from 1 by doubling. The 256 most
    recent results are memoized per (target, constellation, tolerance),
    since they are independent of distance and transmit power.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    return _required_gamma_b(target.pb_bar, scheme.b, tol)


def min_received_power_watts(
    gamma_b_bar: float, scheme: ModulationScheme, radio: RadioConfig
) -> float:
    """Minimum average received power (W) sustaining the given mean bit SNR."""
    if gamma_b_bar < 0:
        raise ValueError(f"gamma_b_bar must be nonnegative, got {gamma_b_bar}")
    return gamma_b_bar * radio.n0_w_per_hz * radio.bandwidth_hz * scheme.b

