import math
import threading

import numpy as np
import pytest

from mc_oracle import oracle_monte_carlo_outage
from mqamlink import channel
from mqamlink.channel import (
    SPEED_OF_LIGHT,
    PropagationParams,
    ShadowedLink,
    UnreachableLinkError,
    dbm_to_watts,
    k_db_from_carrier,
    mean_received_power_dbm,
    monte_carlo_cap_reachable,
    monte_carlo_outage,
    outage_probability,
    required_pt_dbm,
    watts_to_dbm,
)
from mqamlink.config import RunConfig
from mqamlink.energy import link_metrics
from mqamlink.modulation import BerTarget, ModulationScheme


class TestConversions:
    def test_zero_dbm_is_one_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip(self):
        for p in (-120.0, -40.0, 0.0, 13.0, 30.0):
            assert watts_to_dbm(dbm_to_watts(p)) == pytest.approx(p, abs=1e-12)

    def test_nonpositive_power_rejected(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestKdb:
    def test_reference_carrier(self):
        # frozen from 20*log10((c/f)/(4*pi)) at 2.5 GHz, c = 2.998e8 m/s
        assert k_db_from_carrier(2.5e9, 1.0) == pytest.approx(
            -40.40636488363746, abs=1e-12
        )

    def test_quarter_wavelength_reference_is_zero(self):
        frequency = 1e9
        d0 = (SPEED_OF_LIGHT / frequency) / (4 * math.pi)
        assert k_db_from_carrier(frequency, d0) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_d0_drops_six_db(self):
        base = k_db_from_carrier(2.5e9, 1.0)
        assert k_db_from_carrier(2.5e9, 2.0) == pytest.approx(
            base - 20 * math.log10(2), abs=1e-12
        )

    @pytest.mark.parametrize("freq,d0", [(0.0, 1.0), (-1e9, 1.0), (1e9, 0.0)])
    def test_nonpositive_inputs_rejected(self, freq, d0):
        with pytest.raises(ValueError):
            k_db_from_carrier(freq, d0)

    @pytest.mark.parametrize("freq,d0", [(1e-300, 1.0), (2.5e9, 1e308)])
    def test_gain_outside_double_range_rejected(self, freq, d0):
        with pytest.raises(ValueError, match="outside the double range"):
            k_db_from_carrier(freq, d0)


class TestMeanPower:
    def test_at_reference_distance(self, prop):
        assert mean_received_power_dbm(17.0, prop.d0_m, prop) == pytest.approx(
            17.0 + prop.k_db, abs=1e-12
        )

    def test_reference_arithmetic(self, prop):
        expected = 20.0 + prop.k_db - 10 * prop.beta * math.log10(50.0)
        assert mean_received_power_dbm(20.0, 50.0, prop) == pytest.approx(
            expected, abs=1e-12
        )

    def test_decade_slope(self, prop):
        p10 = mean_received_power_dbm(20.0, 10.0, prop)
        p100 = mean_received_power_dbm(20.0, 100.0, prop)
        assert p10 - p100 == pytest.approx(10 * prop.beta, abs=1e-10)

    def test_inside_far_field_rejected(self, prop):
        with pytest.raises(UnreachableLinkError):
            mean_received_power_dbm(20.0, 0.5, prop)
        with pytest.raises(UnreachableLinkError):
            required_pt_dbm(-80.0, 0.5, prop)


class TestOutage:
    def test_threshold_at_mean_gives_half(self, prop):
        mean = mean_received_power_dbm(20.0, 50.0, prop)
        p = outage_probability(ShadowedLink(50.0, 20.0, mean), prop)
        assert p == pytest.approx(0.5, abs=1e-15)

    def test_threshold_far_below_mean(self, prop):
        mean = mean_received_power_dbm(20.0, 50.0, prop)
        p = outage_probability(ShadowedLink(50.0, 20.0, mean - 80.0), prop)
        assert 0.0 < p < 1e-60

    def test_open_interval(self, prop):
        # thresholds within +/- 30 dB of the mean keep both tails
        # representable in double precision (beyond ~8 sigma the upper
        # tail rounds to exactly 1.0)
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = rng.uniform(1.0, 200.0)
            pt = rng.uniform(-10.0, 30.0)
            mean = mean_received_power_dbm(pt, d, prop)
            pmin = mean + rng.uniform(-30.0, 30.0)
            p = outage_probability(ShadowedLink(d, pt, pmin), prop)
            assert 0.0 < p < 1.0

    def test_monotone_in_distance_and_power(self, prop):
        rng = np.random.default_rng(5)
        for _ in range(200):
            pt = rng.uniform(0.0, 30.0)
            pmin = rng.uniform(-100.0, -60.0)
            d1, d2 = sorted(rng.uniform(1.0, 150.0, size=2))
            p_near = outage_probability(ShadowedLink(d1, pt, pmin), prop)
            p_far = outage_probability(ShadowedLink(d2, pt, pmin), prop)
            assert p_near <= p_far
            d = rng.uniform(1.0, 150.0)
            t1, t2 = sorted(rng.uniform(-10.0, 30.0, size=2))
            p_weak = outage_probability(ShadowedLink(d, t1, pmin), prop)
            p_strong = outage_probability(ShadowedLink(d, t2, pmin), prop)
            assert p_strong <= p_weak


class TestRequiredPt:
    def test_at_reference_distance(self, prop):
        assert required_pt_dbm(-80.0, prop.d0_m, prop) == pytest.approx(
            -80.0 - prop.k_db, abs=1e-12
        )

    def test_round_trip_identity(self, prop):
        rng = np.random.default_rng(9)
        for _ in range(100):
            pmin = rng.uniform(-110.0, -40.0)
            d = rng.uniform(1.0, 200.0)
            pt = required_pt_dbm(pmin, d, prop)
            back = mean_received_power_dbm(pt, d, prop)
            assert back == pytest.approx(pmin, rel=1e-12, abs=1e-12)

    def test_doubling_distance_raises_power(self, prop):
        rise = required_pt_dbm(-80.0, 100.0, prop) - required_pt_dbm(-80.0, 50.0, prop)
        assert rise == pytest.approx(10 * prop.beta * math.log10(2), abs=1e-10)


class TestMonteCarlo:
    def test_no_outage_regime(self, prop):
        mean = mean_received_power_dbm(20.0, 50.0, prop)
        link = ShadowedLink(50.0, 20.0, mean - 40.0)
        empirical, count = monte_carlo_outage(link, prop, trials=50_000, seed=1)
        assert empirical == 0.0
        assert count == 1.0

    def test_variable_operating_point(self, prop):
        mean = mean_received_power_dbm(20.0, 50.0, prop)
        link = ShadowedLink(50.0, 20.0, mean)
        trials = 200_000
        empirical, count = monte_carlo_outage(link, prop, trials=trials, seed=2)
        assert abs(empirical - 0.5) <= 4 * math.sqrt(0.25 / trials)
        # geometric mean 2, std sqrt(2/trials)
        assert abs(count - 2.0) <= 4 * math.sqrt(2.0 / trials)

    def test_binomial_bound_against_analytic(self, prop):
        link = ShadowedLink(80.0, 20.0, -85.0)
        p = outage_probability(link, prop)
        trials = 200_000
        empirical, count = monte_carlo_outage(link, prop, trials=trials, seed=3)
        assert abs(empirical - p) <= 4 * math.sqrt(p * (1 - p) / trials)
        expected_count = 1.0 / (1.0 - p)
        assert abs(count - expected_count) <= 4 * math.sqrt(p / trials) / (1 - p)

    def test_deterministic_for_fixed_seed(self, prop):
        link = ShadowedLink(60.0, 10.0, -75.0)
        a = monte_carlo_outage(link, prop, trials=20_000, seed=123)
        b = monte_carlo_outage(link, prop, trials=20_000, seed=123)
        assert a == b

    def test_zero_trials_rejected(self, prop):
        with pytest.raises(ValueError):
            monte_carlo_outage(ShadowedLink(10.0, 0.0, -80.0), prop, trials=0, seed=0)

    def test_round_cap_reachable_only_near_certain_outage(self):
        assert not monte_carlo_cap_reachable(0.0, 1_000_000)
        # the deepest outage of the default validate grid (b = 10, 100 m)
        assert not monte_carlo_cap_reachable(0.948, 1_000_000)
        assert not monte_carlo_cap_reachable(0.999, 1_000_000)
        assert monte_carlo_cap_reachable(1.0 - 8.9e-13, 10_000)
        assert monte_carlo_cap_reachable(1.0 - 2.5e-5, 10_000)


def default_validate_links():
    """The 25 (b, d) links of default `validate`, with their analytic outage."""
    config = RunConfig()
    prop = config.propagation()
    links = []
    for b in config.b_grid:
        for d in config.d_grid_m:
            m = link_metrics(d, config.power_policy(), ModulationScheme(b),
                             BerTarget(config.ber_target), config.circuit(),
                             config.radio(), prop)
            links.append((ShadowedLink(d, m.pt_dbm, m.pmin_dbm), m.p_link))
    return prop, links


class TestMonteCarloMatchesOracle:
    """The count-only simulation returns exactly the per-packet oracle's
    tuple: same draws, same comparisons, same integer sums."""

    def test_default_validate_links(self):
        prop, links = default_validate_links()
        assert len(links) == 25
        outages = [p for _, p in links]
        assert min(outages) < 1e-40 and 0.94 < max(outages) < 0.95
        for link, _ in links:
            for seed in (1, 7, 2**31 - 1):
                assert (monte_carlo_outage(link, prop, 10_000, seed)
                        == oracle_monte_carlo_outage(link, prop, 10_000, seed))

    def test_half_outage_link(self, prop):
        link = ShadowedLink(50.0, 20.0, mean_received_power_dbm(20.0, 50.0, prop))
        assert outage_probability(link, prop) == 0.5
        for seed in range(5):
            assert (monte_carlo_outage(link, prop, 20_000, seed)
                    == oracle_monte_carlo_outage(link, prop, 20_000, seed))

    @pytest.mark.parametrize("trials", [2 * channel._MC_CHUNK, 3 * channel._MC_CHUNK + 17,
                                        100_000])
    def test_rounds_longer_than_one_chunk(self, trials):
        prop, links = default_validate_links()
        mean = mean_received_power_dbm(20.0, 50.0, prop)
        deep = ShadowedLink(50.0, 20.0, mean + 1.6449 * prop.sigma_psi_db)
        assert outage_probability(deep, prop) == pytest.approx(0.95, abs=1e-4)
        for link in [deep] + [link for link, _ in links]:
            assert (monte_carlo_outage(link, prop, trials, 11)
                    == oracle_monte_carlo_outage(link, prop, trials, 11))

    def test_single_trial(self):
        prop, links = default_validate_links()
        for link, _ in links:
            for seed in range(20):
                assert (monte_carlo_outage(link, prop, 1, seed)
                        == oracle_monte_carlo_outage(link, prop, 1, seed))

    def test_round_cap_raises(self, prop, monkeypatch):
        mean = mean_received_power_dbm(20.0, 50.0, prop)
        deep = ShadowedLink(50.0, 20.0, mean + 1.2816 * prop.sigma_psi_db)
        assert outage_probability(deep, prop) == pytest.approx(0.9, abs=1e-4)
        monkeypatch.setattr(channel, "_MAX_MC_ROUNDS", 5)
        for simulate in (monte_carlo_outage, oracle_monte_carlo_outage):
            with pytest.raises(RuntimeError, match="exceeded 5 rounds"):
                simulate(deep, prop, 1_000, 0)
        # a link that always succeeds needs exactly one round
        monkeypatch.setattr(channel, "_MAX_MC_ROUNDS", 1)
        clear = ShadowedLink(50.0, 20.0, mean - 40.0)
        assert monte_carlo_outage(clear, prop, 1_000, 0) == (0.0, 1.0)


class TestStopEvent:
    """`monte_carlo_outage(..., stop=event)` checks the event before each
    chunk of draws, and an unset event leaves the draws as they were."""

    class SetAfterChecks(threading.Event):
        """An event that reads as set from its (n + 1)-th check on."""

        def __init__(self, n):
            super().__init__()
            self.n = n
            self.checks = 0

        def is_set(self):
            self.checks += 1
            return self.checks > self.n

    def test_set_event_stops_after_at_most_one_chunk(self, prop):
        link = ShadowedLink(50.0, 20.0, mean_received_power_dbm(20.0, 50.0, prop))
        event = self.SetAfterChecks(1)
        with pytest.raises(channel.MonteCarloStopped):
            monte_carlo_outage(link, prop, 5 * channel._MC_CHUNK, 3, stop=event)
        # one chunk drawn, then the set event seen
        assert event.checks == 2
        preset = threading.Event()
        preset.set()
        with pytest.raises(channel.MonteCarloStopped):
            monte_carlo_outage(link, prop, 5 * channel._MC_CHUNK, 3, stop=preset)

    def test_unset_event_keeps_the_draw_stream(self):
        prop, links = default_validate_links()
        for link, _ in links:
            assert (monte_carlo_outage(link, prop, 3 * channel._MC_CHUNK + 17, 11,
                                       stop=threading.Event())
                    == oracle_monte_carlo_outage(link, prop, 3 * channel._MC_CHUNK + 17, 11))


class TestParamValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d0_m": 0.0},
            {"beta": -1.0},
            {"sigma_psi_db": 0.0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PropagationParams(**kwargs)

    def test_invalid_link_rejected(self):
        with pytest.raises(ValueError):
            ShadowedLink(0.0, 10.0, -80.0)
