"""BER oracles for `modulation.avg_ber`, which is a closed form.

`quadrature_avg_ber` is the MGF-form definition evaluated by fixed-order
Gauss-Legendre quadrature (`numerics.integrate`), the way the runtime
computed the curve before the closed form replaced it. `instantaneous_ser`
is the AWGN symbol error rate that a direct Rayleigh average integrates.
Neither shares any arithmetic with the closed form.
"""

from __future__ import annotations

import math

from mqamlink.modulation import ModulationScheme
from mqamlink.numerics import DEFAULT_QUADRATURE, QuadratureSpec, gaussian_q, integrate


def quadrature_avg_ber(
    gamma_b_bar: float,
    scheme: ModulationScheme,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Average BER as the difference of two finite integrals of
    sin^2(phi)/(sin^2(phi) + c) over [0, pi/2] and [0, pi/4]."""
    if gamma_b_bar < 0:
        raise ValueError(f"gamma_b_bar must be nonnegative, got {gamma_b_bar}")
    b = scheme.b
    a = 1.0 - 1.0 / math.sqrt(scheme.m)
    c = 3.0 * gamma_b_bar * b / (2.0 * (scheme.m - 1))

    def integrand(phi: float) -> float:
        s2 = math.sin(phi) ** 2
        return s2 / (s2 + c)

    term_half = (4.0 * a / (math.pi * b)) * integrate(integrand, 0.0, math.pi / 2, spec)
    term_quarter = (4.0 * a * a / (math.pi * b)) * integrate(integrand, 0.0, math.pi / 4, spec)
    return term_half - term_quarter


def instantaneous_ser(gamma_s: float, scheme: ModulationScheme) -> float:
    """AWGN symbol error probability of square MQAM at symbol SNR gamma_s.

    Two-term expression 4*a*Q(z) - 4*a^2*Q(z)^2 with a = 1 - 1/sqrt(M)
    and z = sqrt(3*gamma_s/(M - 1)). Always in [0, 1).
    """
    if gamma_s < 0:
        raise ValueError(f"gamma_s must be nonnegative, got {gamma_s}")
    m = scheme.m
    a = 1.0 - 1.0 / math.sqrt(m)
    q = gaussian_q(math.sqrt(3.0 * gamma_s / (m - 1)))
    return 4.0 * a * q - 4.0 * a * a * q * q
