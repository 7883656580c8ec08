"""Per-packet retransmission simulation: the test oracle for
`channel.monte_carlo_outage`.

Keeps a transmission count for every packet and an index array of the
packets still in outage, and draws the shadowing with `normal(0, sigma)`.
The runtime version tracks only how many packets are active and must
return exactly the same tuple for every seed. The round cap is read from
`channel` at call time, so a test that lowers it applies to both.
"""

from __future__ import annotations

import numpy as np

from mqamlink import channel
from mqamlink.channel import PropagationParams, ShadowedLink, mean_received_power_dbm


def oracle_monte_carlo_outage(
    link: ShadowedLink,
    params: PropagationParams,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    mean_dbm = mean_received_power_dbm(link.pt_dbm, link.distance_m, params)
    counts = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    empirical = 0.0
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > channel._MAX_MC_ROUNDS:
            raise RuntimeError(
                f"retransmission simulation exceeded {channel._MAX_MC_ROUNDS} rounds; "
                "outage probability is too close to 1"
            )
        psi_db = rng.normal(0.0, params.sigma_psi_db, size=active.size)
        failed = (mean_dbm - psi_db) <= link.pmin_dbm
        counts[active] += 1
        if rounds == 1:
            empirical = float(np.mean(failed))
        active = active[failed]
    return empirical, float(np.mean(counts))
