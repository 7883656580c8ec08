"""Link-energy modeling for uncoded square-MQAM radios.

Computes the expected energy per bit of a wireless hop — circuit,
transmission, and hop-by-hop retransmission costs included — under
combined path loss, log-normal shadowing, and Rayleigh fading, and
optimizes constellation size, transmit power, and relay routing in a
linear network to minimize it.
"""

from .channel import (
    PropagationParams,
    ShadowedLink,
    UnreachableLinkError,
    dbm_to_watts,
    k_db_from_carrier,
    mean_received_power_dbm,
    monte_carlo_outage,
    outage_probability,
    required_pt_dbm,
    watts_to_dbm,
)
from .config import RunConfig, parse_config
from .energy import (
    CircuitProfile,
    FixedPower,
    LinkMetrics,
    PowerPolicy,
    VariablePower,
    amplifier_overhead,
    energy_to_dbmj,
    link_metrics,
    on_time,
    single_tx_energy_per_bit,
)
from .modulation import (
    BerTarget,
    InfeasibleTargetError,
    ModulationScheme,
    RadioConfig,
    avg_ber,
    min_received_power_watts,
    required_gamma_b,
)
from .network import (
    LinearNetwork,
    Route,
    RouteResult,
    optimal_route,
    route_cost,
    route_hops,
)
from .numerics import gaussian_q
from .sweep import SweepRow, run_joint, run_multihop, run_singlehop

__version__ = "0.1.0"

__all__ = [
    "PropagationParams",
    "ShadowedLink",
    "dbm_to_watts",
    "watts_to_dbm",
    "k_db_from_carrier",
    "mean_received_power_dbm",
    "outage_probability",
    "required_pt_dbm",
    "monte_carlo_outage",
    "UnreachableLinkError",
    "CircuitProfile",
    "FixedPower",
    "VariablePower",
    "PowerPolicy",
    "LinkMetrics",
    "amplifier_overhead",
    "on_time",
    "single_tx_energy_per_bit",
    "link_metrics",
    "energy_to_dbmj",
    "ModulationScheme",
    "BerTarget",
    "RadioConfig",
    "InfeasibleTargetError",
    "avg_ber",
    "required_gamma_b",
    "min_received_power_watts",
    "LinearNetwork",
    "Route",
    "RouteResult",
    "route_hops",
    "route_cost",
    "optimal_route",
    "gaussian_q",
    "RunConfig",
    "parse_config",
    "SweepRow",
    "run_singlehop",
    "run_multihop",
    "run_joint",
]
