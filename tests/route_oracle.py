"""Exhaustive route search: the test oracle for `network.optimal_route`.

Enumerates all 2^N relay subsets over a table of per-gap hop metrics and
keeps the cheapest, the smallest mask winning ties. It shares only
`link_metrics` and the result types with the runtime shortest path.
"""

from __future__ import annotations

from mqamlink.channel import UnreachableLinkError
from mqamlink.energy import LinkMetrics, link_metrics
from mqamlink.network import Route, RouteResult

MAX_ORACLE_RELAYS = 12  # 4096 routes


def gap_metrics(net, policy, scheme, target, circuit, radio, prop, t_r_s=None):
    """Hop metrics keyed by index gap; hops that cannot carry traffic are left out."""
    metrics: dict[int, LinkMetrics] = {}
    for gap in range(1, net.relay_count + 2):
        try:
            metrics[gap] = link_metrics(
                gap * net.spacing_m, policy, scheme, target, circuit, radio, prop,
                t_r_s=t_r_s,
            )
        except UnreachableLinkError:
            pass
    return metrics


def exhaustive_route(
    metrics: dict[int, LinkMetrics], relay_count: int, objective: str = "energy"
) -> RouteResult | None:
    """Cheapest route over every relay subset, or None when each one uses
    a gap missing from metrics."""
    if relay_count > MAX_ORACLE_RELAYS:
        raise ValueError(f"oracle enumerates at most {MAX_ORACLE_RELAYS} relays")
    best: RouteResult | None = None
    best_value = float("inf")
    for mask in range(2**relay_count):
        nodes = [0] + [i + 1 for i in range(relay_count) if mask >> i & 1]
        nodes.append(relay_count + 1)
        gaps = [b - a for a, b in zip(nodes, nodes[1:])]
        if any(gap not in metrics for gap in gaps):
            continue
        energy = 0.0
        delay = 0.0
        for gap in gaps:
            energy += metrics[gap].energy_per_bit
            delay += metrics[gap].delay
        value = energy if objective == "energy" else delay
        if value < best_value:
            best_value = value
            best = RouteResult(Route(mask), energy, delay, tuple(metrics[g] for g in gaps))
    return best


def oracle_route(net, policy, scheme, target, circuit, radio, prop, objective="energy",
                 t_r_s=None):
    """Exhaustive counterpart of `optimal_route` with the same arguments."""
    metrics = gap_metrics(net, policy, scheme, target, circuit, radio, prop, t_r_s)
    return exhaustive_route(metrics, net.relay_count, objective)
