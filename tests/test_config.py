import math
from dataclasses import fields, replace

import pytest

from mqamlink.channel import PropagationParams, ShadowedLink
from mqamlink.config import POLICIES, ConfigError, RunConfig, parse_config, serialize_config
from mqamlink.energy import CircuitProfile, FixedPower, VariablePower
from mqamlink.modulation import BerTarget, RadioConfig
from mqamlink.network import LinearNetwork

# a valid instance of every domain dataclass with a float field
DOMAIN_OBJECTS = (
    PropagationParams(), CircuitProfile(), RadioConfig(), LinearNetwork(),
    FixedPower(0.1), BerTarget(1e-4), ShadowedLink(50.0, 20.0, -80.0),
)


class TestDefaults:
    def test_empty_document_gives_reference_defaults(self):
        config = parse_config("")
        assert config == RunConfig()
        assert config.beta == 3.12
        assert config.pct_mw == 98.2
        assert config.n0_w_per_hz == 4e-21
        assert config.ber_grid == (1e-4, 3e-4, 5e-4, 8e-4, 1e-3)

    def test_k_db_derived_from_carrier(self):
        config = parse_config("")
        assert config.resolved_k_db() == pytest.approx(-40.40636488363746, abs=1e-12)

    def test_k_db_override(self):
        config = parse_config("k_db = -38.0\n")
        assert config.resolved_k_db() == -38.0

    def test_delay_overhead_defaults_to_transient(self):
        config = parse_config("")
        assert config.resolved_t_r_s() == config.ttr_s
        override = parse_config("t_r_s = 0.001\n")
        assert override.resolved_t_r_s() == 0.001


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nbeta = 3.5  # trailing comment\n"
        assert parse_config(text).beta == 3.5

    def test_every_field_is_a_key(self):
        # each field, the optional ones included, is a key parsed by its declared type
        config = replace(RunConfig(), k_db=-39.0, t_r_s=1e-3)
        text = serialize_config(config)
        assert [line.split(" = ")[0] for line in text.splitlines()] == [
            f.name for f in fields(RunConfig)
        ]
        parsed = parse_config(text)
        assert parsed == config
        assert [type(getattr(parsed, f.name)) for f in fields(RunConfig)] == [
            type(getattr(config, f.name)) for f in fields(RunConfig)
        ]

    def test_lists(self):
        config = parse_config("b_grid = 2,4\nd_grid_m = 10,20,30\n")
        assert config.b_grid == (2, 4)
        assert config.d_grid_m == (10.0, 20.0, 30.0)

    def test_unknown_keys_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config("mystery = 1\nbeta = 3.0\nother = 2\n")
        message = str(err.value)
        assert "mystery" in message and "other" in message
        assert "line 1" in message and "line 3" in message

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ConfigError) as err:
            parse_config("beta = 3.0\njust words\n")
        assert "line 2" in str(err.value)

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("beta = fast\n")
        assert "beta" in str(err.value)

    # one bad value for every rule on a single key
    @pytest.mark.parametrize(
        "line,key",
        [
            ("d0_m = -1", "d0_m"),
            ("beta = -1", "beta"),
            ("sigma_psi_db = 0", "sigma_psi_db"),
            ("frequency_hz = -2.5e9", "frequency_hz"),
            ("pct_mw = 0", "pct_mw"),
            ("pcr_mw = -112.5", "pcr_mw"),
            ("ptr_mw = 0", "ptr_mw"),
            ("ttr_s = -5e-6", "ttr_s"),
            ("eta = 1.5", "eta"),
            ("t_r_s = -1", "t_r_s"),
            ("n0_w_per_hz = 0", "n0_w_per_hz"),
            ("bandwidth_hz = -1e4", "bandwidth_hz"),
            ("packet_bits = 0", "packet_bits"),
            ("total_distance_m = 0", "total_distance_m"),
            ("relay_count = -1", "relay_count"),
            ("relay_count = 31", "relay_count"),
            ("policy = adaptive", "policy"),
            ("pt_mw = 0", "pt_mw"),
            ("b_grid = 3,4", "b_grid"),
            ("d_grid_m = 5,0", "d_grid_m"),
            ("pt_grid_mw = 5,-5", "pt_grid_mw"),
            ("ber_target = 0.5", "ber_target"),
            ("ber_grid = 1e-4,0.375", "ber_grid"),
            ("trials = 0", "trials"),
            # finite values whose derived quantities overflow
            ("frequency_hz = 1e-300", "frequency_hz"),
            ("eta = 1e-320", "eta"),
            ("d0_m = 1e308", "d0_m"),
        ],
    )
    def test_invariant_violations_name_the_key(self, line, key):
        with pytest.raises(ConfigError) as err:
            parse_config(line + "\n")
        assert str(err.value).startswith(f"invalid value for key '{key}': ")

    @pytest.mark.parametrize("key", [f.name for f in fields(RunConfig)
                                     if f.type in ("float", "Optional[float]",
                                                   "tuple[float, ...]")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_every_float_key_rejects_non_finite(self, key, bad):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {bad}\n")
        assert f"key '{key}'" in str(err.value)


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        original = parse_config(
            "beta = 2.9\npt_mw = 42.5\nb_grid = 2,6,10\npolicy = variable\nseed = 77\n"
        )
        assert parse_config(serialize_config(original)) == original

    def test_defaults_round_trip(self):
        assert parse_config(serialize_config(RunConfig())) == RunConfig()

    def test_serialization_is_canonical(self):
        config = parse_config("pt_mw = 42.5\nbeta = 2.9\n")
        once = serialize_config(config)
        twice = serialize_config(parse_config(once))
        assert once == twice


class TestDomainMapping:
    def test_policy_objects(self):
        assert parse_config("policy = fixed\npt_mw = 50\n").power_policy() == FixedPower(0.05)
        assert parse_config("policy = variable\n").power_policy() == VariablePower()

    def test_every_policy_name_builds(self):
        assert [type(parse_config(f"policy = {name}\n").power_policy()) for name in POLICIES] \
            == [FixedPower, VariablePower]

    def test_joint_plan_needs_fixed_policy(self):
        with pytest.raises(ConfigError, match="joint sweeps fixed powers over pt_grid_mw"):
            parse_config("policy = variable\n").plan("joint")

    def test_circuit_unit_conversion(self):
        circuit = parse_config("pct_mw = 98.2\n").circuit()
        assert circuit.pct_w == pytest.approx(0.0982, rel=1e-12)

    def test_plan_selects_ber_grid_by_kind(self):
        config = parse_config("ber_target = 0.0003\n")
        assert config.plan("singlehop").ber_grid == (0.0003,)
        assert config.plan("joint").ber_grid == (0.0003,)
        assert config.plan("multihop").ber_grid == config.ber_grid

    def test_network_mapping(self):
        net = parse_config("total_distance_m = 80\nrelay_count = 3\n").network()
        assert net.total_distance_m == 80.0
        assert net.relay_count == 3


class TestDomainRules:
    """The domain objects own the parameter rules, finiteness included."""

    @pytest.mark.parametrize("obj, name", [
        (obj, f.name) for obj in DOMAIN_OBJECTS for f in fields(obj) if f.type == "float"
    ], ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_fields_reject_non_finite(self, obj, name, bad):
        with pytest.raises(ValueError, match=name):
            replace(obj, **{name: bad})
