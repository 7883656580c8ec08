"""Numerical kernels shared by the whole toolkit.

Four self-contained primitives: the Gaussian Q-function, binomial tail
probabilities, fixed-order Gauss-Legendre quadrature on a finite
interval, and bisection for monotone functions. The runtime uses the
Q-function, the binomial tails and bisection; the quadrature evaluates
the BER integrals in the tests, as the oracle for the closed form in
`modulation`. `require_positive` is the parameter check the domain
objects share. All are pure functions with no shared mutable state, so
they are safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "BracketError",
    "require_positive",
    "gaussian_q",
    "binomial_tail",
    "integrate",
    "solve_monotone",
]

_SQRT2 = math.sqrt(2.0)


class BracketError(ValueError):
    """Raised when the target value is not bracketed by f(lo) and f(hi)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Fixed-order Gauss-Legendre rule with `node_count` abscissae.

    The integrands this toolkit cares about are smooth and bounded on
    closed intervals, so a fixed-order rule converges rapidly; 64 nodes
    give better than 1e-12 relative error on all of them.
    """

    node_count: int = 64

    def __post_init__(self) -> None:
        if self.node_count < 16:
            raise ValueError(f"node_count must be >= 16, got {self.node_count}")


DEFAULT_QUADRATURE = QuadratureSpec()


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not positive and
    finite; the single comparison also rejects NaN."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


@lru_cache(maxsize=None)
def _gauss_legendre(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(node_count)


def gaussian_q(z: float) -> float:
    """Upper-tail probability P[X > z] of a standard normal X.

    Evaluated through the complementary error function, which is
    accurate to well below 1e-12 absolute over the whole real line.
    """
    if not math.isfinite(z):
        raise ValueError(f"gaussian_q requires a finite argument, got {z}")
    return 0.5 * math.erfc(z / _SQRT2)


def binomial_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P[X >= k] when `upper`, else P[X <= k], for X ~ Binomial(n, p).

    Sums the probability mass outward from k when that tail lies beyond
    the mode, where each term is smaller than the last, and otherwise
    returns 1 minus the opposite tail, which does. The mass at k comes
    from lgamma, and each further term from the ratio of consecutive
    masses. A summed tail carries a relative error of about
    n * log(n) * 1e-16 (below 1e-7 up to n = 1e8), and a complemented
    tail the same error in absolute terms.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial_tail needs 0 <= p <= 1, got {p}")
    if upper and k <= 0 or not upper and k >= n:
        return 1.0
    if upper and k > n or not upper and k < 0:
        return 0.0
    if p == 0.0 or p == 1.0:  # X is 0 or n for certain
        return float(upper == (p == 1.0))
    mode = math.floor((n + 1) * p)
    if upper and k <= mode:
        return 1.0 - binomial_tail(k - 1, n, p, upper=False)
    if not upper and k >= mode:
        return 1.0 - binomial_tail(k + 1, n, p, upper=True)
    odds = p / (1.0 - p)
    term = math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))
    total = 0.0
    j = k
    while term > total * 1e-17:
        total += term
        if upper:
            term *= (n - j) / (j + 1) * odds
            j += 1
        else:
            term *= j / (n - j + 1) / odds
            j -= 1
    return total


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Definite integral of f over [lo, hi] by fixed Gauss-Legendre quadrature.

    Endpoints are never sampled, so integrands only need to be finite on
    the open interval.
    """
    if not lo < hi:
        raise ValueError(f"integration interval requires lo < hi, got [{lo}, {hi}]")
    nodes, weights = _gauss_legendre(spec.node_count)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    acc = 0.0
    for x, w in zip(nodes, weights):
        acc += w * f(mid + half * x)
    return half * acc


def solve_monotone(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float,
    max_iter: int = 200,
) -> float:
    """Solve f(x) = target by bisection for f strictly monotone on [lo, hi].

    The tolerance applies to the residual |f(x) - target|, not to x.
    Bisection is used instead of Newton for unconditional convergence on
    monotone curves. Deterministic for fixed inputs.

    Raises BracketError when the target lies outside [f(lo), f(hi)],
    reporting both endpoint values.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not lo < hi:
        raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    f_lo = f(lo)
    f_hi = f(hi)
    if not min(f_lo, f_hi) <= target <= max(f_lo, f_hi):
        raise BracketError(
            f"target {target} not bracketed: f({lo}) = {f_lo}, f({hi}) = {f_hi}"
        )
    if abs(f_lo - target) <= tol:
        return lo
    if abs(f_hi - target) <= tol:
        return hi
    increasing = f_hi > f_lo
    a, b = lo, hi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        if abs(f_mid - target) <= tol:
            return mid
        if (f_mid < target) == increasing:
            a = mid
        else:
            b = mid
    raise ArithmeticError(
        f"bisection did not reach |f(x) - target| <= {tol} in {max_iter} iterations"
    )
