import math

import numpy as np
import pytest
from scipy.stats import binom, nbinom

from mqamlink.numerics import (
    BracketError,
    QuadratureSpec,
    binomial_tail,
    gaussian_q,
    integrate,
    solve_monotone,
)


def closed_form_half(c):
    """Closed form of the [0, pi/2] integral of sin^2/(sin^2 + c)."""
    return (math.pi / 2) * (1.0 - math.sqrt(c / (1.0 + c)))


def closed_form_quarter(c):
    """Closed form of the [0, pi/4] integral of sin^2/(sin^2 + c)."""
    return math.pi / 4 - math.sqrt(c / (1.0 + c)) * math.atan(math.sqrt((1.0 + c) / c))


class TestGaussianQ:
    def test_zero_is_half(self):
        assert gaussian_q(0.0) == 0.5

    def test_reflection_identity(self):
        for z in (-8.0, -2.5, -0.3, 0.0, 0.7, 3.2, 9.0):
            assert abs(gaussian_q(z) + gaussian_q(-z) - 1.0) <= 1e-12

    def test_five_percent_point(self):
        # frozen from a 40-digit complementary-error-function evaluation
        assert gaussian_q(1.6449) == pytest.approx(0.04999521746834630, abs=1e-15)

    def test_monotone_decreasing(self):
        # strict ordering is representable while 1 - Q(z) has not
        # underflowed, i.e. for z above roughly -8
        rng = np.random.default_rng(7)
        for _ in range(200):
            z1, z2 = sorted(rng.uniform(-8, 8, size=2))
            if z1 == z2:
                continue
            assert gaussian_q(z1) > gaussian_q(z2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            gaussian_q(bad)


def _binomial_cases():
    """(k, n, p) from the far lower tail to the far upper tail, for small and
    large n and for p from subnormal to near 1."""
    for n in (1, 7, 1_000, 100_000, 2_000_000):
        for p in (1e-320, 1e-9, 3e-4, 0.02, 0.5, 0.948, 1.0 - 1e-6):
            mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
            ks = {min(n, max(0, round(mean + z * sd))) for z in (-9, -4, -1, 0, 1, 4, 9)}
            for k in sorted(ks | {0, 1, n}):
                yield k, n, p


class TestBinomialTail:
    # below 1e-7 relative error up to n = 1e8; 2e-8 covers n = 2e6
    REL = 2e-8

    def test_matches_scipy_binomial(self):
        for k, n, p in _binomial_cases():
            upper, lower = binom.sf(k - 1, n, p), binom.cdf(k, n, p)
            assert binomial_tail(k, n, p, upper=True) == pytest.approx(
                upper, rel=self.REL, abs=1e-300)
            assert binomial_tail(k, n, p, upper=False) == pytest.approx(
                lower, rel=self.REL, abs=1e-300)

    def test_negative_binomial_identity(self):
        # failures before the n-th success, success probability 1 - p:
        # P[E >= k] = P[Binomial(n + k - 1, p) >= k]
        for n, p in ((10_000, 5.8e-7), (10_000, 0.2), (100_000, 0.948)):
            mean = n * p / (1.0 - p)
            for k in sorted({0, 1, 2, round(mean), round(1.3 * mean), round(0.8 * mean)}):
                at_least = nbinom.sf(k - 1, n, 1.0 - p)
                at_most = nbinom.cdf(k, n, 1.0 - p)
                assert binomial_tail(k, n + k - 1, p, upper=True) == pytest.approx(
                    at_least, rel=self.REL, abs=1e-300)
                assert binomial_tail(k, n + k, p, upper=False) == pytest.approx(
                    at_most, rel=self.REL, abs=1e-300)

    def test_edges(self):
        assert binomial_tail(0, 10, 0.3, upper=True) == 1.0
        assert binomial_tail(11, 10, 0.3, upper=True) == 0.0
        assert binomial_tail(10, 10, 0.3, upper=False) == 1.0
        assert binomial_tail(-1, 10, 0.3, upper=False) == 0.0
        assert binomial_tail(1, 10, 0.0, upper=True) == 0.0
        assert binomial_tail(0, 10, 0.0, upper=False) == 1.0
        assert binomial_tail(10, 10, 1.0, upper=True) == 1.0
        assert binomial_tail(9, 10, 1.0, upper=False) == 0.0
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                binomial_tail(1, 10, p, upper=True)


class TestIntegrate:
    def test_constant(self):
        value = integrate(lambda x: 1.0, 0.0, math.pi / 2)
        assert value == pytest.approx(math.pi / 2, rel=1e-14)

    def test_sine(self):
        assert integrate(math.sin, 0.0, math.pi / 2) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("c", [1e-3, 1e-1, 1.0, 10.0, 1e3])
    def test_mgf_identity_half_interval(self, c):
        f = lambda phi: math.sin(phi) ** 2 / (math.sin(phi) ** 2 + c)
        value = integrate(f, 0.0, math.pi / 2)
        assert value == pytest.approx(closed_form_half(c), rel=1e-9)

    @pytest.mark.parametrize("c", [1e-3, 1e-1, 1.0, 10.0, 1e3])
    def test_mgf_identity_quarter_interval(self, c):
        f = lambda phi: math.sin(phi) ** 2 / (math.sin(phi) ** 2 + c)
        value = integrate(f, 0.0, math.pi / 4)
        assert value == pytest.approx(closed_form_quarter(c), rel=1e-9)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 2.0, 1.0)

    def test_node_count_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=8)

    def test_higher_order_spec_accepted(self):
        value = integrate(math.cos, 0.0, 1.0, QuadratureSpec(node_count=96))
        assert value == pytest.approx(math.sin(1.0), rel=1e-14)


class TestSolveMonotone:
    def test_identity(self):
        x = solve_monotone(lambda v: v, 3.7, 0.0, 10.0, tol=1e-12)
        assert abs(x - 3.7) <= 1e-11

    def test_square_root_two(self):
        x = solve_monotone(lambda v: v * v, 2.0, 0.0, 2.0, tol=1e-12)
        assert x == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_bracket_error_reports_endpoints(self):
        f = lambda v: -v  # decreasing; target above f(lo)
        with pytest.raises(BracketError) as err:
            solve_monotone(f, 1.0, 0.0, 5.0, tol=1e-9)
        message = str(err.value)
        assert "0.0" in message and "-5.0" in message

    def test_round_trip_random_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            slope = rng.uniform(0.5, 4.0)
            shift = rng.uniform(-2.0, 2.0)
            sign = rng.choice([-1.0, 1.0])
            f = lambda v: sign * (slope * v**3 + v) + shift
            lo, hi = -3.0, 3.0
            target = rng.uniform(*sorted((f(lo), f(hi))))
            x = solve_monotone(f, target, lo, hi, tol=1e-10)
            assert abs(f(x) - target) <= 1e-10

    def test_endpoint_target_returns_endpoint(self):
        f = lambda v: v * v
        assert solve_monotone(f, 0.0, 0.0, 4.0, tol=1e-12) == 0.0

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            solve_monotone(lambda v: v, 0.5, 0.0, 1.0, tol=0.0)
