"""Run configuration: flat key/value documents with reference defaults.

The format is one `key = value` per line with `#` comments, so configs
stay trivially parseable and diff-friendly. Each key is a `RunConfig`
field, whose declared type picks the key's parser, and has the fixed
unit listed below; powers are given in mW to match the reference
parameter table and converted internally. An empty document yields the
full default configuration. The rules on the values live in the domain
objects built from them; `RunConfig` holds the few left (nonempty
grids, `trials`, `seed`, `output_path`), and every subcommand is held to
every rule, `trials` and `seed` included, though only `validate` reads
them. `parse_config` lays the command line's flags over the document's
keys before it validates, so a flag is checked with the document and
wins over it. A validated `RunConfig` is the whole description of a
run: the sweeps in `sweep` and the `validate` check read it as it is.

Keys and units:
    d0_m                reference far-field distance (m)
    beta                path-loss exponent
    sigma_psi_db        shadowing standard deviation (dB)
    frequency_hz        carrier frequency (Hz), sets k_db unless overridden
    k_db                reference gain at d0 (dB); optional override
    pct_mw, pcr_mw      transmitter / receiver circuit power (mW)
    ptr_mw, ttr_s       transient power (mW) and duration (s)
    eta                 amplifier drain efficiency in (0, 1]
    t_r_s               per-attempt delay overhead (s); defaults to ttr_s
    n0_w_per_hz         one-sided noise spectral density (W/Hz)
    bandwidth_hz        channel bandwidth (Hz)
    packet_bits         payload bits per packet
    total_distance_m    source-destination span (m)
    relay_count         equally spaced intermediate relays
    policy              fixed | variable (joint sweeps fixed powers only)
    pt_mw               fixed-policy transmit power (mW)
    b_grid              comma-separated constellation exponents
    d_grid_m            comma-separated single-hop distances (m)
    pt_grid_mw          comma-separated transmit powers for joint sweeps (mW)
    ber_target          BER constraint for single-hop / joint runs
    ber_grid            comma-separated BER constraints for multi-hop runs
    trials              Monte Carlo packets per link for validation (>= 10000)
    seed                RNG seed (>= 0)
    output_path         CSV output path
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .channel import PropagationParams, k_db_from_carrier
from .energy import CircuitProfile, FixedPower, PowerPolicy, VariablePower, attempt_overhead
from .modulation import ALLOWED_BITS_PER_SYMBOL, BerTarget, ModulationScheme, RadioConfig
from .network import LinearNetwork
from .numerics import require_positive

__all__ = ["POLICIES", "ConfigError", "RunConfig", "parse_config", "serialize_config"]

# the values of the `policy` key
POLICIES = (FixedPower.name, VariablePower.name)


class ConfigError(ValueError):
    """Malformed document, unknown key, or invariant violation."""


@dataclass(frozen=True)
class RunConfig:
    """All tunables of a run; defaults reproduce the reference setup."""

    d0_m: float = 1.0
    beta: float = 3.12
    sigma_psi_db: float = 3.8
    frequency_hz: float = 2.5e9
    k_db: Optional[float] = None  # derived from frequency_hz when None
    pct_mw: float = 98.2
    pcr_mw: float = 112.5
    ptr_mw: float = 100.0
    ttr_s: float = 5e-6
    eta: float = 0.35
    t_r_s: Optional[float] = None  # defaults to ttr_s when None
    n0_w_per_hz: float = 4e-21
    bandwidth_hz: float = 1e4
    packet_bits: int = 20000
    total_distance_m: float = 100.0
    relay_count: int = 9
    policy: str = FixedPower.name
    pt_mw: float = 100.0
    b_grid: tuple[int, ...] = ALLOWED_BITS_PER_SYMBOL
    d_grid_m: tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 100.0)
    pt_grid_mw: tuple[float, ...] = tuple(float(p) for p in range(5, 105, 5))
    ber_target: float = 1e-4
    ber_grid: tuple[float, ...] = (1e-4, 3e-4, 5e-4, 8e-4, 1e-3)
    trials: int = 1_000_000
    seed: int = 1
    output_path: str = "results.csv"

    def resolved_k_db(self) -> float:
        if self.k_db is not None:
            return self.k_db
        return k_db_from_carrier(self.frequency_hz, self.d0_m)

    def resolved_t_r_s(self) -> float:
        return attempt_overhead(self.circuit(), self.t_r_s)

    def propagation(self) -> PropagationParams:
        return PropagationParams(
            d0_m=self.d0_m,
            beta=self.beta,
            sigma_psi_db=self.sigma_psi_db,
            k_db=self.resolved_k_db(),
        )

    def circuit(self) -> CircuitProfile:
        return CircuitProfile(
            pct_w=self.pct_mw * 1e-3,
            pcr_w=self.pcr_mw * 1e-3,
            ptr_w=self.ptr_mw * 1e-3,
            ttr_s=self.ttr_s,
            eta=self.eta,
        )

    def radio(self) -> RadioConfig:
        return RadioConfig(
            n0_w_per_hz=self.n0_w_per_hz,
            bandwidth_hz=self.bandwidth_hz,
            packet_bits=self.packet_bits,
        )

    def network(self) -> LinearNetwork:
        return LinearNetwork(
            total_distance_m=self.total_distance_m, relay_count=self.relay_count
        )

    def power_policy(self) -> PowerPolicy:
        if self.policy not in POLICIES:
            raise ConfigError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        return FixedPower(self.pt_mw * 1e-3) if self.policy == FixedPower.name else VariablePower()

    def validate(self) -> None:
        """Raise ConfigError naming the offending key on any bad value.

        Builds every domain object, one per grid value included, whose
        rules include finiteness, and checks t_r_s through
        `energy.attempt_overhead`; checks only that each grid is nonempty,
        that trials is at least 10000 and seed nonnegative, and that
        output_path holds no NUL byte, itself. These rules hold for every
        subcommand. The key named is the first, in declaration order, at
        which the defaults overlaid with this config's values stop
        building.
        """
        try:
            self._build()
        except ValueError:
            values = {}
            for f in fields(self):
                values[f.name] = getattr(self, f.name)
                try:
                    replace(RunConfig(), **values)._build()
                except ValueError as exc:
                    raise ConfigError(
                        f"invalid value for key '{f.name}': {values[f.name]!r} ({exc})"
                    ) from exc
            raise

    def _build(self) -> None:
        # the carrier must be valid even where k_db overrides the gain it sets
        k_db_from_carrier(self.frequency_hz, self.d0_m)
        self.propagation()
        self.resolved_t_r_s()  # builds the circuit too
        self.radio()
        self.network()
        FixedPower(self.pt_mw * 1e-3)
        self.power_policy()
        if not (self.b_grid and self.d_grid_m and self.pt_grid_mw and self.ber_grid):
            raise ValueError("every grid must be nonempty")
        for b in self.b_grid:
            ModulationScheme(b)
        for pb_bar in (self.ber_target, *self.ber_grid):
            BerTarget(pb_bar)
        for p in self.pt_grid_mw:
            FixedPower(p * 1e-3)
        for d in self.d_grid_m:
            require_positive(d_grid_m=d)
        # only `validate` reads trials and seed, but every run checks every key
        if self.trials < 10_000:
            raise ValueError(f"trials must be >= 10000, got {self.trials}")
        if self.seed < 0:  # numpy seeds only nonnegative integers
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if "\0" in self.output_path:  # no file system accepts the name
            raise ValueError("output_path must not contain a NUL byte")


# parser of each field's declared type: one declaration per key
_TYPE_PARSERS = {
    "float": float,
    "Optional[float]": float,
    "int": int,
    "str": str,
    "tuple[int, ...]": lambda text: tuple(int(part) for part in text.split(",")),
    "tuple[float, ...]": lambda text: tuple(float(part) for part in text.split(",")),
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


def parse_config(text: str, **overrides: object) -> RunConfig:
    """Parse a flat key/value document into a validated RunConfig.

    Each keyword argument names a key and holds a value of its declared
    type, such as a command-line flag's; it replaces the document's value
    before the one validation. Unknown keys are collected and reported
    together; syntax and value errors carry the line number and key name.
    """
    values: dict[str, object] = {}
    unknown: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _PARSERS:
            unknown.append(f"{key} (line {lineno})")
            continue
        try:
            values[key] = _PARSERS[key](value_text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for key '{key}': {exc}") from exc
    if unknown:
        raise ConfigError("unknown keys: " + ", ".join(unknown))
    config = RunConfig(**{**values, **overrides})
    config.validate()
    return config


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical document: every set key, declaration order, one per line.

    Raises ValueError naming the key when a value holds a `#` or a line
    break, or starts or ends with whitespace: `parse_config` would read
    such a value back changed, or not at all.
    """
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        text = _format_value(value)
        if "#" in text or text != text.strip() or len(text.splitlines()) > 1:
            raise ValueError(f"key '{f.name}' cannot be serialized: {text!r} holds '#', "
                             "a line break or surrounding whitespace")
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"
