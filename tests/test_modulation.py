import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mqamlink.modulation as modulation
from ber_oracle import instantaneous_ser
from mqamlink.energy import link_metrics
from mqamlink.modulation import (
    ALLOWED_BITS_PER_SYMBOL,
    BerTarget,
    InfeasibleTargetError,
    ModulationScheme,
    RadioConfig,
    avg_ber,
    min_received_power_watts,
    required_gamma_b,
)


def closed_form_avg_ber(gamma_b_bar, b):
    """Independent oracle: the two MGF integrals in closed form."""
    m = 2**b
    a = 1.0 - 1.0 / math.sqrt(m)
    if gamma_b_bar == 0.0:
        i_half, i_quarter = math.pi / 2, math.pi / 4
    else:
        c = 3.0 * gamma_b_bar * b / (2.0 * (m - 1))
        root = math.sqrt(c / (1.0 + c))
        i_half = (math.pi / 2) * (1.0 - root)
        i_quarter = math.pi / 4 - root * math.atan(math.sqrt((1.0 + c) / c))
    return (4 * a / (math.pi * b)) * i_half - (4 * a * a / (math.pi * b)) * i_quarter


def mpmath_avg_ber(gamma_b_bar, b, integral=False):
    """Independent oracle at 50 digits: the textbook closed form, whose
    cancellations cost far fewer digits than that, or (`integral`) the
    MGF-form definition integrated by mpmath."""
    with mpmath.workdps(50):
        m = 2**b
        a = 1 - 1 / mpmath.sqrt(m)
        c = mpmath.mpf(3) * gamma_b_bar * b / (2 * (m - 1))
        if integral:
            f = lambda phi: mpmath.sin(phi) ** 2 / (mpmath.sin(phi) ** 2 + c)
            i_half = mpmath.quad(f, [0, mpmath.pi / 2])
            i_quarter = mpmath.quad(f, [0, mpmath.pi / 4])
        else:
            root = mpmath.sqrt(c / (1 + c))
            i_half = (mpmath.pi / 2) * (1 - root)
            i_quarter = mpmath.pi / 4 - root * mpmath.acot(root)
        return (4 * a / (mpmath.pi * b)) * i_half - (4 * a * a / (mpmath.pi * b)) * i_quarter


def mpmath_inverse(pb, b):
    """Independent oracle: the mean bit SNR at which the 50-digit textbook
    closed form equals pb, from a bracketing root search in mu on [0, 1]."""
    with mpmath.workdps(50):
        m = 2**b
        a = 1 - 1 / mpmath.sqrt(m)

        def ber(mu):
            i_quarter = mpmath.pi / 4 - (mu * mpmath.acot(mu) if mu else 0)
            return (4 * a / (mpmath.pi * b)) * (mpmath.pi / 2) * (1 - mu) \
                - (4 * a * a / (mpmath.pi * b)) * i_quarter

        mu = mpmath.findroot(lambda x: ber(x) - pb, (mpmath.mpf(0), mpmath.mpf(1)),
                             solver="anderson")
        return 2 * (m - 1) * mu**2 / (3 * b * (1 - mu**2))


def rayleigh_averaged_ber(gamma_b_bar, scheme):
    """Independent oracle: adaptive quadrature of the instantaneous symbol
    error rate over the exponential symbol-SNR density, divided by b."""
    gamma_s_bar = scheme.b * gamma_b_bar
    density = lambda g: math.exp(-g / gamma_s_bar) / gamma_s_bar
    integrand = lambda g: instantaneous_ser(g, scheme) / scheme.b * density(g)
    value, abserr = quad(integrand, 0.0, np.inf, limit=200)
    assert abserr < 1e-8
    return value


class TestAvgBer:
    def test_zero_snr_ceiling_qpsk(self):
        assert abs(avg_ber(0.0, ModulationScheme(2)) - 0.375) <= 1e-13

    def test_zero_snr_ceiling_16qam(self):
        assert abs(avg_ber(0.0, ModulationScheme(4)) - 0.234375) <= 1e-13

    def test_matches_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            b = int(rng.choice(ALLOWED_BITS_PER_SYMBOL))
            gamma = float(rng.uniform(0.01, 1e5))
            got = avg_ber(gamma, ModulationScheme(b))
            want = closed_form_avg_ber(gamma, b)
            assert got == pytest.approx(want, rel=1e-9)

    def test_frozen_spot_values(self):
        # frozen from the closed form above
        assert avg_ber(1.0, ModulationScheme(2)) == pytest.approx(
            0.1289575017059166, abs=1e-12
        )
        assert avg_ber(10.0, ModulationScheme(4)) == pytest.approx(
            0.033659068009216676, abs=1e-12
        )
        assert avg_ber(100.0, ModulationScheme(6)) == pytest.approx(
            0.008113512011429444, abs=1e-12
        )

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(19)
        for b in ALLOWED_BITS_PER_SYMBOL:
            scheme = ModulationScheme(b)
            for _ in range(40):
                g1, g2 = sorted(rng.uniform(0.0, 1e4, size=2))
                if g1 == g2:
                    continue
                assert avg_ber(g1, scheme) > avg_ber(g2, scheme)

    def test_vanishes_at_high_snr(self):
        assert avg_ber(1e12, ModulationScheme(2)) < 1e-12

    def test_larger_constellation_has_larger_ber_at_high_snr(self):
        # pointwise ordering in M holds in the operating regime (the
        # curves cross each other below roughly unit SNR)
        for gamma in (10.0, 100.0, 1000.0):
            values = [avg_ber(gamma, ModulationScheme(b)) for b in ALLOWED_BITS_PER_SYMBOL]
            assert values == sorted(values)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            avg_ber(-0.1, ModulationScheme(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_snr_rejected(self, bad):
        with pytest.raises(ValueError):
            avg_ber(bad, ModulationScheme(2))

    @pytest.mark.parametrize("b", ALLOWED_BITS_PER_SYMBOL)
    def test_matches_mpmath_to_1e_14_relative(self, b):
        scheme = ModulationScheme(b)
        worst = 0.0
        for gamma in np.logspace(-6, 8, 113):
            want = mpmath_avg_ber(float(gamma), b)
            worst = max(worst, float(abs(avg_ber(float(gamma), scheme) - want) / want))
        for gamma in (1e-6, 1.0, 1e8):
            want = mpmath_avg_ber(gamma, b, integral=True)
            worst = max(worst, float(abs(avg_ber(gamma, scheme) - want) / want))
        assert worst <= 1e-14

    def test_zero_snr_ceiling_is_exact(self):
        for b in ALLOWED_BITS_PER_SYMBOL:
            a = 1.0 - 1.0 / math.sqrt(2**b)
            assert avg_ber(0.0, ModulationScheme(b)) == (2.0 * a - a * a) / b
        assert avg_ber(0.0, ModulationScheme(8)) == 0.12451171875

    def test_returns_builtin_float(self):
        assert type(avg_ber(10.0, ModulationScheme(4))) is float


class TestRequiredGamma:
    def test_reference_target_qpsk(self):
        # frozen from solving the closed form with Brent's method
        gamma = required_gamma_b(BerTarget(1e-4), ModulationScheme(2))
        assert gamma == pytest.approx(2272.09361344289, abs=0.01)
        assert avg_ber(gamma, ModulationScheme(2)) == pytest.approx(1e-4, abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            b = int(rng.choice(ALLOWED_BITS_PER_SYMBOL))
            scheme = ModulationScheme(b)
            pb = float(10 ** rng.uniform(-5, -1.2))
            if pb >= avg_ber(0.0, scheme):
                continue
            gamma = required_gamma_b(BerTarget(pb), scheme)
            assert avg_ber(gamma, scheme) == pytest.approx(pb, abs=1e-10)

    def test_required_gamma_grows_with_constellation(self):
        gammas = [
            required_gamma_b(BerTarget(1e-4), ModulationScheme(b))
            for b in ALLOWED_BITS_PER_SYMBOL
        ]
        assert gammas == sorted(gammas)
        assert gammas[0] > 0

    def test_target_at_ceiling_needs_no_snr(self):
        # 0.234375 is exactly the zero-SNR BER of 16-QAM
        gamma = required_gamma_b(BerTarget(0.234375), ModulationScheme(4))
        assert gamma == 0.0

    def test_target_above_ceiling_infeasible(self):
        # 1024-QAM cannot be that bad even at zero SNR
        with pytest.raises(InfeasibleTargetError):
            required_gamma_b(BerTarget(0.2), ModulationScheme(10))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(b=st.sampled_from(ALLOWED_BITS_PER_SYMBOL),
           depth=st.floats(0.0, 1.0, exclude_max=True))
    @example(b=10, depth=1.0 - 2.0**-53)
    @example(b=2, depth=0.0)
    def test_inverse_matches_mpmath_inverse(self, b, depth):
        # P_b log-uniform in [1e-12, ceiling): the SNR itself, not only the
        # BER it gives, agrees with the 50-digit inverse up to the ceiling
        scheme = ModulationScheme(b)
        ceiling = avg_ber(0.0, scheme)
        pb = 10.0 ** (-12.0 + depth * (math.log10(ceiling) + 12.0))
        assume(pb < ceiling)
        gamma = modulation._required_gamma_b(pb, b)
        want = mpmath_inverse(pb, b)
        assert float(abs(gamma - want) / want) <= 1e-12
        assert abs(avg_ber(gamma, scheme) / pb - 1.0) <= modulation.INVERSION_REL_BOUND

    @pytest.mark.parametrize("b", ALLOWED_BITS_PER_SYMBOL)
    def test_exact_ceiling_needs_no_snr_and_above_is_infeasible(self, b):
        # b = 2 reaches 0.375, which BerTarget excludes, so the cached
        # solve is called directly
        invert = modulation._required_gamma_b.__wrapped__
        ceiling = avg_ber(0.0, ModulationScheme(b))
        assert invert(ceiling, b) == 0.0
        with pytest.raises(InfeasibleTargetError, match="zero-SNR ceiling"):
            invert(math.nextafter(ceiling, 1.0), b)
        below = math.nextafter(ceiling, 0.0)
        gamma = invert(below, b)
        assert 0.0 < gamma < 1e-20
        assert avg_ber(gamma, ModulationScheme(b)) == pytest.approx(below, rel=1e-15)

    def test_targets_below_the_floor_are_infeasible(self):
        invert = modulation._required_gamma_b.__wrapped__
        for b in ALLOWED_BITS_PER_SYMBOL:
            gamma = invert(1e-300, b)
            assert avg_ber(gamma, ModulationScheme(b)) == pytest.approx(1e-300, rel=1e-12)
            for pb in (math.nextafter(1e-300, 0.0), 5e-324):
                with pytest.raises(InfeasibleTargetError, match="below 1e-300"):
                    invert(pb, b)

    def test_few_evaluations_per_cold_inversion(self, monkeypatch):
        # every evaluation of the curve, confirmation included, goes through
        # one of the two bodies; avg_ber runs once, for the confirmation
        counts = {"curve": 0, "avg_ber": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        for name in ("_ber_at_eps", "_ceiling_gap"):
            monkeypatch.setattr(modulation, name, counted(getattr(modulation, name), "curve"))
        monkeypatch.setattr(modulation, "avg_ber", counted(modulation.avg_ber, "avg_ber"))
        invert = modulation._required_gamma_b.__wrapped__
        rng = np.random.default_rng(43)
        worst = 0
        for _ in range(2000):
            b = int(rng.choice(ALLOWED_BITS_PER_SYMBOL))
            ceiling = avg_ber(0.0, ModulationScheme(b))
            pb = ceiling * 10.0 ** float(rng.uniform(-15.0, 0.0))
            if pb >= ceiling:
                continue
            counts.update(curve=0, avg_ber=0)
            invert(pb, b)
            assert counts["avg_ber"] == 1
            worst = max(worst, counts["curve"])
        assert worst <= 15

    def test_missed_confirmation_raises(self, monkeypatch):
        # a curve that disagrees with the solve by 2e-12 fails the stated bound
        true_ber = modulation.avg_ber
        monkeypatch.setattr(modulation, "avg_ber", lambda g, s: true_ber(g, s) * (1.0 + 2e-12))
        with pytest.raises(ArithmeticError, match="not within 1e-12 relative"):
            modulation._required_gamma_b.__wrapped__(1e-4, 6)

    def test_inversion_cache_is_bounded(self):
        assert modulation._required_gamma_b.cache_info().maxsize == 256

    def test_one_stated_bound(self):
        # the inversion takes no tolerance: its one bound is the stated one
        assert list(inspect.signature(required_gamma_b).parameters) == ["target", "scheme"]
        assert "tol" not in inspect.signature(link_metrics).parameters
        assert modulation.INVERSION_REL_BOUND == 1e-12
        assert not hasattr(modulation, "DEFAULT_BER_TOL")


class TestMinReceivedPower:
    def test_reference_arithmetic(self):
        radio = RadioConfig(n0_w_per_hz=4e-21, bandwidth_hz=1e4, packet_bits=20000)
        assert min_received_power_watts(1.0, ModulationScheme(2), radio) == pytest.approx(
            8e-17, rel=1e-12
        )

    def test_zero_snr_gives_zero_power(self, radio):
        assert min_received_power_watts(0.0, ModulationScheme(4), radio) == 0.0

    def test_linear_in_bits_per_symbol(self, radio):
        p2 = min_received_power_watts(7.0, ModulationScheme(2), radio)
        p4 = min_received_power_watts(7.0, ModulationScheme(4), radio)
        assert p4 == pytest.approx(2 * p2, rel=1e-12)


class TestInstantaneousSer:
    def test_zero_snr_qpsk(self):
        assert instantaneous_ser(0.0, ModulationScheme(2)) == pytest.approx(
            0.75, abs=1e-15
        )

    def test_tail_vanishes(self):
        assert instantaneous_ser(1e4, ModulationScheme(2)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            b = int(rng.choice(ALLOWED_BITS_PER_SYMBOL))
            g = float(rng.uniform(0.0, 1e3))
            value = instantaneous_ser(g, ModulationScheme(b))
            assert 0.0 <= value < 1.0

    def test_rayleigh_average_reproduces_mgf_route(self):
        for b, gamma in ((2, 10.0), (6, 100.0), (10, 50.0)):
            scheme = ModulationScheme(b)
            direct = rayleigh_averaged_ber(gamma, scheme)
            assert abs(direct - avg_ber(gamma, scheme)) <= 1e-6

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            instantaneous_ser(-1.0, ModulationScheme(2))


class TestTypes:
    @pytest.mark.parametrize("b", [1, 3, 5, 12, 0])
    def test_non_square_constellations_rejected(self, b):
        with pytest.raises(ValueError):
            ModulationScheme(b)

    def test_m_property(self):
        assert ModulationScheme(8).m == 256

    @pytest.mark.parametrize("pb", [0.0, -1e-4, 0.375, 0.9])
    def test_bad_ber_targets_rejected(self, pb):
        with pytest.raises(ValueError):
            BerTarget(pb)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n0_w_per_hz": 0.0},
            {"bandwidth_hz": -1.0},
            {"packet_bits": 0},
        ],
    )
    def test_bad_radio_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RadioConfig(**kwargs)
