"""Square-MQAM error-rate analytics over Rayleigh fading.

The average bit error rate as a function of the mean bit SNR comes from
the moment-generating-function form: averaging the two-term AWGN symbol
error expression over an exponential SNR density collapses each
Q-function integral into a finite integral of (1 + c/sin^2(phi))^-1,
and both integrals have closed forms in mu = sqrt(c/(1+c)) (Craig 1991;
Simon & Alouini, MGF chapter). `avg_ber` evaluates them without
cancellation. Inverting that curve under a BER constraint gives the
required mean bit SNR and, from it, the minimum average received power.
The inversion is a safeguarded Newton solve in eps = 1 - mu on the same
eps-form body that `avg_ber` evaluates or, for targets above half the
zero-SNR ceiling, in mu on the cancellation-free gap to that ceiling.
Its SNR is confirmed to meet the target within 1e-12 relative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

# `integrate` and `solve_monotone` are not called here. The names stay
# importable from this module because the benchmark's trace points
# (perfbench/spans.py) look up `mqamlink.modulation.integrate` and
# `mqamlink.modulation.solve_monotone`.
from .numerics import integrate, require_positive, solve_monotone  # noqa: F401

__all__ = [
    "ALLOWED_BITS_PER_SYMBOL",
    "ModulationScheme",
    "BerTarget",
    "RadioConfig",
    "InfeasibleTargetError",
    "INVERSION_REL_BOUND",
    "avg_ber",
    "required_gamma_b",
    "min_received_power_watts",
]

# Square constellations only: even exponent, 2 .. 10 bits per symbol.
ALLOWED_BITS_PER_SYMBOL = (2, 4, 6, 8, 10)

# Relative BER error that every inversion is confirmed to meet.
INVERSION_REL_BOUND = 1e-12
# The Newton solve stops once its residual is this close to its target,
# relative: a few ulps, about the evaluation's own rounding.
_NEWTON_REL_STOP = 2.0**-50
_NEWTON_MAX_STEPS = 60
# Below this target the required SNR nears the double range, where the
# products inside `avg_ber` overflow (about 5.5/target at b = 10).
_MIN_TARGET = 1e-300


class InfeasibleTargetError(ValueError):
    """BER target cannot be met by the given constellation at any SNR the
    model resolves."""


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


def _ber_at_eps(eps: float, mu: float, a: float, b: int) -> tuple[float, float]:
    """Average BER at eps = 1 - mu, and its slope d(BER)/d(eps).

    The BER is (2a*eps - a^2*(eps - (4mu/pi)*atan(eps/(2 - eps))))/b,
    increasing from 0 at eps = 0 to the zero-SNR ceiling at eps = 1. The
    derivative of atan(eps/(2 - eps)) is 2/((2 - eps)^2 + eps^2). Callers
    pass mu as well as eps so that each can supply the more accurate of
    the two.
    """
    angle = math.atan(eps / (2.0 - eps))
    quarter = eps - (4.0 * mu / math.pi) * angle
    quarter_slope = 1.0 + (4.0 / math.pi) * (angle - 2.0 * mu / ((2.0 - eps) ** 2 + eps * eps))
    return (2.0 * a * eps - a * a * quarter) / b, (2.0 * a - a * a * quarter_slope) / b


def _ceiling_gap(mu: float, a: float, b: int) -> tuple[float, float]:
    """Zero-SNR ceiling minus the average BER at mu, and its slope in mu.

    The same curve as `_ber_at_eps`, seen from the ceiling: with
    atan((1 - mu)/(1 + mu)) = pi/4 - atan(mu), the gap is
    mu*(2a(1 - a) + (4a^2/pi)*atan(mu))/b, a sum of nonnegative terms, so
    it keeps its relative accuracy where the BER nears the ceiling.
    """
    angle = math.atan(mu)
    gap = mu * (2.0 * a * (1.0 - a) + (4.0 * a * a / math.pi) * angle) / b
    slope = (2.0 * a * (1.0 - a) + (4.0 * a * a / math.pi) * (angle + mu / (1.0 + mu * mu))) / b
    return gap, slope


def avg_ber(gamma_b_bar: float, scheme: ModulationScheme) -> float:
    """Average BER of square MQAM over Rayleigh fading at mean bit SNR gamma_b_bar.

    With c = 3*gamma_b_bar*b/(2(M - 1)), the MGF integrals of
    sin^2/(sin^2 + c) over [0, pi/2] and [0, pi/4] equal (pi/2)*eps and (pi/4)*eps - mu*atan(eps/(2 - eps)), with
    mu = sqrt(c/(1+c)) and eps = 1 - mu = 1/((1+c)(1+mu)); the second
    uses atan(1/mu) = pi/4 + atan(eps/(2 - eps)). No step subtracts
    nearly equal numbers, so the result is accurate to a few ulps for
    every finite gamma_b_bar >= 0, and exact at 0: (2a - a^2)/b with
    a = 1 - 1/sqrt(M). Where c or (1+c)(1+mu) overflows, near the top of
    the double range, mu and eps come from r = 1/c instead:
    mu = 1/sqrt(1+r) and eps = r/((1+r)(1+mu)). Non-increasing to
    within 1 ulp (between neighbouring doubles the value rises by an ulp
    now and then), tending to 0 as the SNR grows; subnormal at the
    largest SNRs.
    """
    if not 0.0 <= gamma_b_bar < math.inf:
        raise ValueError(f"gamma_b_bar must be finite and nonnegative, got {gamma_b_bar}")
    a = 1.0 - 1.0 / math.sqrt(scheme.m)
    c = 3.0 * gamma_b_bar * scheme.b / (2.0 * (scheme.m - 1))
    mu = math.sqrt(c / (1.0 + c))
    eps = 1.0 / ((1.0 + c) * (1.0 + mu))
    if not eps > 0.0:  # 0 when the product overflows, nan when c does
        r = (2.0 * (scheme.m - 1) / (3.0 * scheme.b)) / gamma_b_bar
        mu = 1.0 / math.sqrt(1.0 + r)
        eps = r / ((1.0 + r) * (1.0 + mu))
    return _ber_at_eps(eps, mu, a, scheme.b)[0]


def _newton(curve: Callable[[float], tuple[float, float]], target: float, x: float) -> float:
    """Root of curve(x) = target on [0, 1], for an increasing curve that
    returns its value and slope, by Newton steps from x.

    A step that leaves the bracket [lo, hi] known to hold the root is
    replaced by bisection. Stops on a relative residual of
    _NEWTON_REL_STOP, or when a step no longer changes x. Monotone to
    within its rounding is enough: the solve relies only on this
    bisection bracket, which keeps every step in [0, 1], and the caller
    accepts the result only after confirming it through `avg_ber` to
    INVERSION_REL_BOUND.
    """
    lo, hi = 0.0, 1.0
    for _ in range(_NEWTON_MAX_STEPS):
        value, slope = curve(x)
        residual = value - target
        if abs(residual) <= _NEWTON_REL_STOP * target:
            return x
        if residual > 0.0:
            hi = x
        else:
            lo = x
        step = x - residual / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step == x:
            return x
        x = step
    raise ArithmeticError(f"Newton solve for {target} did not settle in {_NEWTON_MAX_STEPS} steps")


# Bounded so that a caller drawing fresh targets does not grow it without
# end; a run's grids need at most 25 entries.
@lru_cache(maxsize=256)
def _required_gamma_b(pb_bar: float, b: int) -> float:
    m = 2**b
    a = 1.0 - 1.0 / math.sqrt(m)
    ceiling = (2.0 * a - a * a) / b  # avg_ber at zero SNR, bit for bit
    if pb_bar >= ceiling:
        if pb_bar == ceiling:
            return 0.0
        raise InfeasibleTargetError(
            f"BER target {pb_bar} is at or above the zero-SNR ceiling "
            f"{ceiling} for b = {b}"
        )
    if pb_bar < _MIN_TARGET:
        raise InfeasibleTargetError(
            f"BER target {pb_bar} is below {_MIN_TARGET:g}, the smallest target "
            "the inversion resolves"
        )
    if 2.0 * pb_bar < ceiling:
        # nearly linear in eps, with slope (2a - a^2(1 - 2/pi))/b at 0
        eps = _newton(lambda e: _ber_at_eps(e, 1.0 - e, a, b), pb_bar,
                      pb_bar * b / (2.0 * a - a * a * (1.0 - 2.0 / math.pi)))
        mu = 1.0 - eps
    else:
        # the gap to the exact ceiling (1 - 2^-b)/b, rounded once, from
        # pb_bar's exact ratio n/d; convex in mu with slope 2a(1 - a)/b at 0
        n, d = pb_bar.as_integer_ratio()
        gap = ((m - 1) * d - n * b * m) / (b * m * d)
        mu = _newton(lambda u: _ceiling_gap(u, a, b), gap,
                     min(1.0, gap * b / (2.0 * a * (1.0 - a))))
        eps = 1.0 - mu
    # c = mu^2/(1 - mu^2), with 1 - mu^2 = eps(1 + mu): no cancellation
    gamma = 2.0 * (m - 1) * mu * mu / (3.0 * b * eps * (1.0 + mu))
    achieved = avg_ber(gamma, ModulationScheme(b))
    if not abs(achieved - pb_bar) <= INVERSION_REL_BOUND * pb_bar:
        raise ArithmeticError(
            f"inverse SNR {gamma} for b = {b} gives BER {achieved}, "
            f"not within {INVERSION_REL_BOUND:g} relative of the target {pb_bar}"
        )
    return gamma


def required_gamma_b(target: BerTarget, scheme: ModulationScheme) -> float:
    """Mean bit SNR at which avg_ber meets the target, to INVERSION_REL_BOUND.

    A safeguarded Newton solve stops on a relative residual of a few
    ulps, or when a step no longer moves its variable: in eps = 1 - mu on
    the BER for targets below half the zero-SNR ceiling, and in mu on the
    gap to the ceiling above that, so the SNR keeps its relative accuracy
    up to the ceiling. The result is confirmed once through `avg_ber`;
    a miss beyond INVERSION_REL_BOUND raises ArithmeticError. A target
    exactly at the zero-SNR ceiling needs SNR 0; one above it, or below
    1e-300, raises InfeasibleTargetError. The 256 most recent results are
    memoized per (target, constellation), since they are independent of
    distance and power.
    """
    return _required_gamma_b(target.pb_bar, scheme.b)


def min_received_power_watts(
    gamma_b_bar: float, scheme: ModulationScheme, radio: RadioConfig
) -> float:
    """Minimum average received power (W) sustaining the given mean bit SNR.
    Raises ValueError for a gamma_b_bar that is NaN, infinite or negative."""
    if not 0.0 <= gamma_b_bar < math.inf:
        raise ValueError(f"gamma_b_bar must be finite and nonnegative, got {gamma_b_bar}")
    return gamma_b_bar * radio.n0_w_per_hz * radio.bandwidth_hz * scheme.b

