import math

import numpy as np
import pytest

import mqamlink.channel as channel
import mqamlink.energy as energy
from mqamlink.channel import (
    PropagationParams,
    ShadowedLink,
    UnreachableLinkError,
    dbm_to_watts,
    outage_probability,
    path_loss_db,
    required_pt_dbm,
    watts_to_dbm,
)
from mqamlink.config import RunConfig
from mqamlink.energy import (
    CircuitProfile,
    FixedPower,
    LinkMetrics,
    VariablePower,
    amplifier_overhead,
    attempt_overhead,
    energy_to_dbmj,
    hop_costs,
    link_metrics,
    on_time,
    single_tx_energy_per_bit,
)
from mqamlink.modulation import (
    BerTarget,
    InfeasibleTargetError,
    ModulationScheme,
    min_received_power_watts,
    required_gamma_b,
)

B_GRID = (2, 4, 6, 8, 10)


class TestAmplifierOverhead:
    def test_qpsk_reference(self):
        # peak-to-average factor of 4-QAM is exactly 1
        assert amplifier_overhead(ModulationScheme(2), 0.35) == pytest.approx(
            1.0 / 0.35 - 1.0, rel=1e-14
        )

    def test_unit_efficiency_qpsk_has_no_overhead(self):
        assert amplifier_overhead(ModulationScheme(2), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_grows_with_constellation_toward_limit(self):
        values = [amplifier_overhead(ModulationScheme(b), 0.35) for b in B_GRID]
        assert values == sorted(values)
        assert values[-1] < 3.0 / 0.35 - 1.0

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError):
            amplifier_overhead(ModulationScheme(2), 0.0)

    @pytest.mark.parametrize("eta", [1e-320, 1e-308])
    def test_overflowing_eta_rejected(self, eta):
        # 4-QAM's own overhead 1/eta - 1 stays finite at 1e-308; 1024-QAM's does not
        with pytest.raises(ValueError, match="overflows"):
            amplifier_overhead(ModulationScheme(2), eta)


class TestOnTime:
    def test_reference_values(self, radio):
        assert on_time(radio, ModulationScheme(2)) == pytest.approx(1.0, rel=1e-14)
        assert on_time(radio, ModulationScheme(10)) == pytest.approx(0.2, rel=1e-14)

    def test_doubling_b_halves_on_time(self, radio):
        assert on_time(radio, ModulationScheme(4)) == pytest.approx(
            on_time(radio, ModulationScheme(2)) / 2, rel=1e-14
        )


class TestSingleTxEnergy:
    def test_reference_value(self, circuit, radio):
        # frozen from evaluating the three-term energy expression by hand
        value = single_tx_energy_per_bit(0.1, ModulationScheme(2), circuit, radio)
        assert value == pytest.approx(2.4820739285714287e-05, rel=1e-12)

    def test_transient_term(self, circuit, radio):
        # 100 mW * 5 us = 0.5 uJ per packet = 2.5e-11 J/bit at 20000 bits
        with_tx = single_tx_energy_per_bit(1e-12, ModulationScheme(2), circuit, radio)
        circuit_only = (circuit.pct_w + circuit.pcr_w) * on_time(
            radio, ModulationScheme(2)
        ) / radio.packet_bits
        assert with_tx - circuit_only == pytest.approx(2.5e-11, rel=1e-3)

    def test_zero_power_limit_is_circuit_energy(self, circuit, radio):
        scheme = ModulationScheme(6)
        value = single_tx_energy_per_bit(0.0, scheme, circuit, radio)
        expected = (
            (circuit.pct_w + circuit.pcr_w) * on_time(radio, scheme)
            + circuit.ptr_w * circuit.ttr_s
        ) / radio.packet_bits
        assert value == pytest.approx(expected, rel=1e-14)

    def test_larger_b_shrinks_transmit_component(self, circuit, radio):
        def transmit_part(b):
            scheme = ModulationScheme(b)
            full = single_tx_energy_per_bit(0.1, scheme, circuit, radio)
            no_tx = single_tx_energy_per_bit(0.0, scheme, circuit, radio)
            return full - no_tx

        parts = [transmit_part(b) for b in B_GRID]
        assert all(a > b for a, b in zip(parts, parts[1:]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_power_not_nonnegative_and_finite_rejected(self, circuit, radio, bad):
        # a `< 0` check alone would let NaN and inf through to the energy
        with pytest.raises(ValueError, match="pt_watts must be nonnegative and finite"):
            single_tx_energy_per_bit(bad, ModulationScheme(2), circuit, radio)


class TestExpectations:
    """Energy and delay of a hop are the per-attempt figures over 1 - p_link."""

    def test_energy_geometric_factors(self, circuit, radio, prop):
        scheme = ModulationScheme(2)
        single = single_tx_energy_per_bit(0.1, scheme, circuit, radio)
        for d, p_range in ((5.0, (0.0, 1e-12)), (300.0, (0.3, 0.7)), (400.0, (0.85, 0.99))):
            m = link_metrics(d, FixedPower(0.1), scheme, BerTarget(1e-4), circuit, radio, prop)
            assert p_range[0] <= m.p_link <= p_range[1]
            assert m.energy_per_bit == pytest.approx(single / (1.0 - m.p_link), rel=1e-14)

    def test_energy_rejects_certain_outage(self, circuit, radio, prop):
        # 4-QAM at 100 mW over 10 km: the outage probability rounds to 1
        with pytest.raises(UnreachableLinkError, match="rounds to 1"):
            link_metrics(10_000.0, FixedPower(0.1), ModulationScheme(2), BerTarget(1e-4),
                         circuit, radio, prop)

    def test_delay_reference(self, circuit, radio, prop):
        # b = 2: one attempt is 1 s on air plus the 5 us transient
        scheme = ModulationScheme(2)
        near = link_metrics(5.0, FixedPower(0.1), scheme, BerTarget(1e-4), circuit, radio, prop)
        assert near.delay == pytest.approx(1.000005, rel=1e-12)
        # the variable policy fails half the attempts
        m = link_metrics(50.0, VariablePower(), scheme, BerTarget(1e-4), circuit, radio, prop)
        assert m.delay == pytest.approx(2 * 1.000005, rel=1e-12)

    def test_delay_overhead_override(self, circuit, radio, prop):
        m = link_metrics(50.0, VariablePower(), ModulationScheme(2), BerTarget(1e-4),
                         circuit, radio, prop, t_r_s=0.25)
        assert m.delay == pytest.approx(2 * 1.25, rel=1e-12)

    def test_attempt_overhead_defaults_to_the_transient(self, circuit):
        assert attempt_overhead(circuit, None) == circuit.ttr_s == 5e-6
        assert attempt_overhead(circuit, 0.0) == 0.0
        assert attempt_overhead(circuit, 0.25) == 0.25

    @pytest.mark.parametrize("t_r_s", [-1.0, math.nan, math.inf])
    def test_bad_overhead_rejected_on_every_call(self, circuit, radio, prop, t_r_s):
        # a negative overhead once gave a negative delay, and a non-finite
        # one an unusable hop
        message = f"t_r_s must be nonnegative and finite, got {t_r_s}"
        with pytest.raises(ValueError, match=message):
            attempt_overhead(circuit, t_r_s)
        with pytest.raises(ValueError, match=message):
            link_metrics(50.0, FixedPower(0.1), ModulationScheme(4), BerTarget(1e-4),
                         circuit, radio, prop, t_r_s=t_r_s)
        with pytest.raises(ValueError, match=message):
            hop_costs(VariablePower(), ModulationScheme(4), BerTarget(1e-4),
                      circuit, radio, prop, t_r_s=t_r_s)

    def test_delay_rejects_certain_outage(self, circuit, radio, prop):
        cost, _, _ = hop_costs(FixedPower(0.1), ModulationScheme(2), BerTarget(1e-4),
                               circuit, radio, prop, t_r_s=0.25)
        with pytest.raises(UnreachableLinkError, match="rounds to 1"):
            cost(10_000.0)


class TestLinkMetrics:
    def test_record_is_a_named_tuple(self, circuit, radio, prop):
        assert LinkMetrics._fields == (
            "p_link", "energy_per_bit", "delay", "pt_dbm", "pmin_dbm", "gamma_b_bar")
        m = link_metrics(60.0, FixedPower(0.1), ModulationScheme(4), BerTarget(1e-3),
                         circuit, radio, prop)
        assert type(m) is LinkMetrics and tuple(m) == (
            m.p_link, m.energy_per_bit, m.delay, m.pt_dbm, m.pmin_dbm, m.gamma_b_bar)
        with pytest.raises(AttributeError):
            m.p_link = 0.0
        halved = m._replace(p_link=m.p_link / 2)
        assert halved != m and halved._replace(p_link=m.p_link) == m
        assert hash(LinkMetrics(*m)) == hash(m)

    def test_variable_policy_outage_is_half(self, circuit, radio, prop):
        rng = np.random.default_rng(31)
        for _ in range(30):
            d = float(rng.uniform(2.0, 200.0))
            b = int(rng.choice(B_GRID))
            m = link_metrics(
                d, VariablePower(), ModulationScheme(b), BerTarget(1e-4),
                circuit, radio, prop,
            )
            assert abs(m.p_link - 0.5) <= 1e-12

    def test_variable_policy_energy_doubles_single_attempt(self, circuit, radio, prop):
        scheme = ModulationScheme(6)
        m = link_metrics(
            80.0, VariablePower(), scheme, BerTarget(1e-4), circuit, radio, prop
        )
        single = single_tx_energy_per_bit(
            dbm_to_watts(m.pt_dbm), scheme, circuit, radio
        )
        assert m.energy_per_bit == pytest.approx(2 * single, rel=1e-10)

    def test_variable_policy_delay_is_distance_independent(self, circuit, radio, prop):
        scheme = ModulationScheme(4)
        delays = [
            link_metrics(
                d, VariablePower(), scheme, BerTarget(1e-4), circuit, radio, prop
            ).delay
            for d in (3.0, 47.0, 120.0)
        ]
        for d in delays[1:]:
            assert d == pytest.approx(delays[0], rel=1e-12)

    def test_fixed_policy_energy_grows_with_distance(self, circuit, radio, prop):
        scheme = ModulationScheme(8)
        energies = [
            link_metrics(
                d, FixedPower(0.1), scheme, BerTarget(1e-4), circuit, radio, prop
            ).energy_per_bit
            for d in (10.0, 40.0, 70.0, 100.0, 130.0)
        ]
        assert all(a <= b for a, b in zip(energies, energies[1:]))

    def test_reference_argmins(self, circuit, radio, prop):
        def argmin_b(d):
            energies = {
                b: link_metrics(
                    d, FixedPower(0.1), ModulationScheme(b), BerTarget(1e-4),
                    circuit, radio, prop,
                ).energy_per_bit
                for b in B_GRID
            }
            return min(energies, key=energies.get)

        assert argmin_b(50.0) == 8
        assert argmin_b(75.0) == 6

    def test_saturated_outage_is_unreachable(self, circuit, radio, prop):
        # 1024-QAM at BER 1e-7 over 100 m at 100 mW: outage rounds to 1
        with pytest.raises(UnreachableLinkError, match="rounds to 1"):
            link_metrics(
                100.0, FixedPower(0.1), ModulationScheme(10), BerTarget(1e-7),
                circuit, radio, prop,
            )

    def test_metrics_are_finite_and_positive(self, circuit, radio, prop):
        m = link_metrics(
            60.0, FixedPower(0.1), ModulationScheme(4), BerTarget(1e-3),
            circuit, radio, prop,
        )
        assert 0.0 < m.p_link < 1.0
        assert m.energy_per_bit > 0.0 and math.isfinite(m.energy_per_bit)
        assert m.delay > 0.0 and math.isfinite(m.delay)
        assert m.gamma_b_bar > 0.0


def _one_pass_link_metrics(d, policy, scheme, target, circuit, radio, prop, t_r_s=None):
    """The per-hop arithmetic in one pass, written out step by step: the
    reference for bit-for-bit checks."""
    gamma = required_gamma_b(target, scheme)
    pmin_dbm = watts_to_dbm(min_received_power_watts(gamma, scheme, radio))
    if isinstance(policy, FixedPower):
        pt_w = policy.pt_watts
        pt_dbm = watts_to_dbm(pt_w)
        p_link = outage_probability(ShadowedLink(d, pt_dbm, pmin_dbm), prop)
    else:
        # the mean received power sits on the threshold
        pt_dbm = required_pt_dbm(pmin_dbm, d, prop)
        pt_w = dbm_to_watts(pt_dbm)
        p_link = 0.5
    e_single = single_tx_energy_per_bit(pt_w, scheme, circuit, radio)
    overhead = circuit.ttr_s if t_r_s is None else t_r_s
    return LinkMetrics(p_link, e_single / (1.0 - p_link),
                       (on_time(radio, scheme) + overhead) / (1.0 - p_link),
                       pt_dbm, pmin_dbm, gamma)


def _bits(m):
    return [value.hex() for value in m]


def _default_grid_hops():
    """(d, scheme, target) for every BER target and b of the default grids,
    over the single-hop distances and the hops of the default relay line."""
    config = RunConfig()
    distances = sorted({*config.d_grid_m, *(gap * 10.0 for gap in range(1, 11))})
    return [(d, ModulationScheme(b), BerTarget(pb_bar))
            for pb_bar in sorted({config.ber_target, *config.ber_grid})
            for b in config.b_grid for d in distances]


def _random_hops():
    """400 seeded hops over both policies: (d, policy, scheme, target,
    prop, t_r_s)."""
    rng = np.random.default_rng(20261018)
    for _ in range(400):
        prop = PropagationParams(beta=float(rng.uniform(2.0, 4.5)),
                                 sigma_psi_db=float(rng.uniform(1.0, 10.0)))
        policy = (FixedPower(float(10 ** rng.uniform(-3.0, 0.0))) if rng.random() < 0.5
                  else VariablePower())
        scheme = ModulationScheme(int(rng.choice(B_GRID)))
        target = BerTarget(float(10 ** rng.uniform(-6.0, -2.0)))
        t_r_s = None if rng.random() < 0.5 else float(10 ** rng.uniform(-7.0, -3.0))
        d = float(10 ** rng.uniform(0.0, 3.0))
        yield d, policy, scheme, target, prop, t_r_s


def _every_hop(prop):
    """The default-grid hops under both policies at `prop`, then the
    random ones: (d, policy, scheme, target, prop, t_r_s)."""
    for policy in (FixedPower(0.1), VariablePower()):
        for d, scheme, target in _default_grid_hops():
            yield d, policy, scheme, target, prop, None
    yield from _random_hops()


class TestThresholdAndHop:
    """`hop_costs` resolves the threshold and the function it returns the
    hop: its LinkMetrics is `link_metrics` bit for bit in every field, and both
    are the one-pass arithmetic. The floors it returns with the function
    are the one-pass attempt energy and time: at the fixed power, or
    doubled at 0 W under a variable power."""

    @staticmethod
    def outcome(d, policy, scheme, target, circuit, radio, prop, t_r_s):
        cost, energy_floor, delay_floor = hop_costs(policy, scheme, target, circuit, radio,
                                                    prop, t_r_s)
        overhead = circuit.ttr_s if t_r_s is None else t_r_s
        attempt_s = on_time(radio, scheme) + overhead
        if isinstance(policy, FixedPower):
            e_single = single_tx_energy_per_bit(policy.pt_watts, scheme, circuit, radio)
            assert (energy_floor.hex(), delay_floor.hex()) == (e_single.hex(), attempt_s.hex())
        else:
            e_zero = single_tx_energy_per_bit(0.0, scheme, circuit, radio)
            assert (energy_floor.hex(), delay_floor.hex()) == (
                (2.0 * e_zero).hex(), (2.0 * attempt_s).hex())
        try:
            via_link = link_metrics(d, policy, scheme, target, circuit, radio, prop, t_r_s=t_r_s)
        except UnreachableLinkError as exc:
            with pytest.raises(UnreachableLinkError) as cost_exc:
                cost(d)
            assert str(cost_exc.value) == str(exc)
            return None
        via_cost = cost(d)
        assert type(via_cost) is LinkMetrics
        assert via_link.energy_per_bit >= energy_floor and via_link.delay >= delay_floor
        reference = _one_pass_link_metrics(d, policy, scheme, target, circuit, radio, prop, t_r_s)
        assert _bits(via_cost) == _bits(via_link) == _bits(reference)
        return via_link

    @pytest.mark.parametrize("policy", [FixedPower(0.1), VariablePower()], ids=["fixed", "variable"])
    @pytest.mark.parametrize("t_r_s", [None, 1e-5])
    def test_default_grids(self, circuit, radio, prop, policy, t_r_s):
        hops = _default_grid_hops()
        evaluated = sum(self.outcome(d, policy, scheme, target, circuit, radio, prop, t_r_s)
                        is not None for d, scheme, target in hops)
        assert evaluated == len(hops)

    def test_random_points(self, circuit, radio):
        errors = sum(self.outcome(d, policy, scheme, target, circuit, radio, prop, t_r_s) is None
                     for d, policy, scheme, target, prop, t_r_s in _random_hops())
        # saturated hops take the error path, and most points do not
        assert 0 < errors < 100

    def test_threshold_names_no_hop(self, circuit, radio, prop):
        # b = 4 meets this target at zero SNR: a 0 W threshold. `hop_costs`
        # returns, and each hop evaluated reports it with its own length
        message = "7.5 m hop is unusable: its receive threshold 0.0 W has no finite dBm value"
        for policy in (FixedPower(0.1), VariablePower()):
            args = (policy, ModulationScheme(4), BerTarget(0.234375), circuit, radio, prop)
            cost = hop_costs(*args)[0]
            with pytest.raises(UnreachableLinkError) as exc:
                cost(7.5)
            assert str(exc.value) == message
            with pytest.raises(UnreachableLinkError) as exc:
                link_metrics(7.5, *args)
            assert str(exc.value) == message

    @pytest.mark.parametrize("policy", [FixedPower(0.1), VariablePower()], ids=["fixed", "variable"])
    @pytest.mark.parametrize("distance_m, error", [
        (-5.0, ValueError),
        (0.5, UnreachableLinkError),  # inside the far-field reference d0 = 1 m
    ])
    def test_distance_rule_comes_before_the_threshold(self, circuit, radio, prop, policy,
                                                      distance_m, error):
        # the 0 W threshold of test_threshold_names_no_hop: the length is
        # judged first, by the rule of `channel`
        args = (policy, ModulationScheme(4), BerTarget(0.234375), circuit, radio, prop)
        for evaluate in (hop_costs(*args)[0], lambda d: link_metrics(d, *args)):
            with pytest.raises(ValueError) as raised:
                evaluate(distance_m)
            # UnreachableLinkError is a ValueError: the class must match exactly
            assert type(raised.value) is error
            assert "threshold" not in str(raised.value)

    def test_infeasible_target_raises_on_the_call(self, circuit, radio, prop):
        # 1024-QAM cannot reach 0.2 at any SNR: no hop function is returned
        with pytest.raises(InfeasibleTargetError):
            hop_costs(FixedPower(0.1), ModulationScheme(10), BerTarget(0.2),
                      circuit, radio, prop)


class TestHopOutage:
    """A variable-power hop sits on its receive threshold, so its outage
    probability is 1/2 exactly; a fixed-power hop's is the one of
    `channel`. Either way one evaluation computes one path loss."""

    def test_variable_outage_is_exactly_half(self, circuit, radio, prop):
        variable = 0
        for d, policy, scheme, target, hop_prop, t_r_s in _every_hop(prop):
            if isinstance(policy, VariablePower):
                m = link_metrics(d, policy, scheme, target, circuit, radio, hop_prop, t_r_s)
                assert m.p_link == 0.5
                assert (m.energy_per_bit, m.delay) == (
                    2.0 * single_tx_energy_per_bit(dbm_to_watts(m.pt_dbm), scheme, circuit,
                                                   radio),
                    2.0 * (on_time(radio, scheme) + attempt_overhead(circuit, t_r_s)))
                variable += 1
        # the 325 default-grid hops and 212 random ones, none unusable
        assert variable == 537

    def test_fixed_outage_is_the_channel_model(self, circuit, radio, prop):
        fixed = 0
        for d, policy, scheme, target, hop_prop, t_r_s in _every_hop(prop):
            if isinstance(policy, FixedPower):
                try:
                    m = link_metrics(d, policy, scheme, target, circuit, radio, hop_prop, t_r_s)
                except UnreachableLinkError:
                    continue
                assert m.p_link.hex() == outage_probability(
                    ShadowedLink(d, m.pt_dbm, m.pmin_dbm), hop_prop).hex()
                fixed += 1
        # the 325 default-grid hops and 171 of the 188 random ones: the rest saturate
        assert fixed == 496

    def test_one_path_loss_per_evaluation(self, monkeypatch, circuit, radio, prop):
        calls = []

        def counted(*args):
            calls.append(args)
            return path_loss_db(*args)

        monkeypatch.setattr(channel, "path_loss_db", counted)
        monkeypatch.setattr(energy, "path_loss_db", counted)
        # the 0 W threshold of TestThresholdAndHop.test_threshold_names_no_hop
        unusable = [(7.5, policy, ModulationScheme(4), BerTarget(0.234375), prop, None)
                    for policy in (FixedPower(0.1), VariablePower())]
        evaluations = 0
        for d, policy, scheme, target, hop_prop, t_r_s in [*_every_hop(prop), *unusable]:
            cost = hop_costs(policy, scheme, target, circuit, radio, hop_prop, t_r_s)[0]
            assert not calls
            try:
                cost(d)
            except UnreachableLinkError:
                pass
            assert len(calls) == 1, (d, policy)
            calls.clear()
            evaluations += 1
        assert evaluations == 2 * len(_default_grid_hops()) + 400 + 2


class TestDbmj:
    def test_reference_point(self):
        assert energy_to_dbmj(1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_adds_three_db(self):
        delta = energy_to_dbmj(2e-5) - energy_to_dbmj(1e-5)
        assert delta == pytest.approx(10 * math.log10(2), abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            energy_to_dbmj(0.0)

    @pytest.mark.parametrize("energy_j", [math.nan, -1e-3, -math.inf])
    def test_nan_rejected(self, energy_j):
        with pytest.raises(ValueError, match="must be positive"):
            energy_to_dbmj(energy_j)
        assert energy_to_dbmj(math.inf) == math.inf


class TestCircuitProfile:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pct_w": 0.0},
            {"pcr_w": -1.0},
            {"ptr_w": 0.0},
            {"ttr_s": 0.0},
            {"eta": 0.0},
            {"eta": 1.5},
            {"eta": 1e-320},
        ],
    )
    def test_invalid_profiles_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CircuitProfile(**kwargs)

    def test_fixed_power_must_be_positive(self):
        with pytest.raises(ValueError):
            FixedPower(0.0)
