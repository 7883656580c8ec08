"""Multi-hop routing on a line of equally spaced relays.

Between a source and a destination sit N relays, each either forwarding
or sleeping; a route is the bitmask of forwarding relays, giving 2^N
candidates. Route cost is the sum of independent per-hop costs that
depend only on the hop's index gap, so the cheapest route is a shortest
path over the N+2 nodes (`shortest_route`), found in O(N^2) from one
`energy.hop_costs` call and at most N+1 evaluations of the hop it
returns. The search stops at the direct hop, before any other hop is
evaluated and with the route the shortest path would pick, when no route
through a relay can beat it: when the direct hop costs less than twice
the floor every hop's cost is bounded by (`optimal_route` gives the
check and why it is exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .channel import PropagationParams, UnreachableLinkError
from .energy import (
    CircuitProfile,
    LinkMetrics,
    PowerPolicy,
    hop_costs,
    link_metrics,
)
from .modulation import BerTarget, ModulationScheme, RadioConfig
from .numerics import require_positive

__all__ = [
    "MAX_RELAYS",
    "LinearNetwork",
    "Route",
    "RouteResult",
    "route_hops",
    "route_cost",
    "shortest_route",
    "optimal_route",
]

MAX_RELAYS = 30


@dataclass(frozen=True)
class LinearNetwork:
    """Source-to-destination span with equally spaced intermediate relays."""

    total_distance_m: float = 100.0
    relay_count: int = 9

    def __post_init__(self) -> None:
        if not 0 <= self.relay_count <= MAX_RELAYS:
            raise ValueError(
                f"relay_count must lie in [0, {MAX_RELAYS}], got {self.relay_count}"
            )
        # the longest hop, gap N + 1, can round past the span to inf
        require_positive(total_distance_m=self.total_distance_m, spacing_m=self.spacing_m,
                         direct_hop_m=(self.relay_count + 1) * self.spacing_m)

    @property
    def spacing_m(self) -> float:
        return self.total_distance_m / (self.relay_count + 1)


@dataclass(frozen=True)
class Route:
    """Forwarding relays as a bitmask: bit i set means relay i (closest to
    the source first) forwards."""

    active_mask: int

    def mask_string(self, relay_count: int) -> str:
        """Binary-code rendering, relay 0 leftmost, 1 = forwarding."""
        return "".join(
            "1" if self.active_mask >> i & 1 else "0" for i in range(relay_count)
        )


@dataclass(frozen=True)
class RouteResult:
    """A route with its expected energy and delay, summed over its hops in
    order from the source, and the figures of each hop."""

    route: Route
    total_energy_per_bit: float  # J/bit summed over hops
    total_delay: float  # s summed over hops
    per_hop: tuple[LinkMetrics, ...]


def _hop_gaps(route: Route, net: LinearNetwork) -> list[int]:
    """Index gaps between consecutive forwarding nodes on the line (source
    0, relays 1..N, destination N+1); they sum to N + 1."""
    mask, n = route.active_mask, net.relay_count
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask {mask} out of range for {n} relays")
    # bit i is node i + 1, so bit N is the destination; visit the set
    # bits only, lowest first
    mask |= 1 << n
    gaps, left = [], 0
    while mask:
        low = mask & -mask
        node = low.bit_length()
        gaps.append(node - left)
        left = node
        mask ^= low
    return gaps


def route_hops(route: Route, net: LinearNetwork) -> list[float]:
    """Hop distances (m) between consecutive forwarding nodes; they sum to
    the total span."""
    return [gap * net.spacing_m for gap in _hop_gaps(route, net)]


def _assemble(route: Route, net: LinearNetwork, metrics: dict[int, LinkMetrics]) -> RouteResult:
    energy = 0.0
    delay = 0.0
    per_hop = []
    for gap in _hop_gaps(route, net):
        hop = metrics[gap]
        energy += hop.energy_per_bit
        delay += hop.delay
        per_hop.append(hop)
    if not (energy < math.inf and delay < math.inf):
        raise UnreachableLinkError(
            f"route {route.mask_string(net.relay_count)} is unusable: its total "
            f"energy {energy} J/bit or delay {delay} s overflows"
        )
    return RouteResult(route, energy, delay, tuple(per_hop))


def route_cost(
    route: Route,
    net: LinearNetwork,
    policy: PowerPolicy,
    scheme: ModulationScheme,
    target: BerTarget,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    t_r_s: float | None = None,
) -> RouteResult:
    """Expected energy and delay of one route, hop costs summed independently.

    Raises UnreachableLinkError when one of the route's hops cannot carry
    traffic, or when its total energy or delay overflows.
    """
    metrics = {
        gap: link_metrics(
            gap * net.spacing_m, policy, scheme, target, circuit, radio, prop, t_r_s=t_r_s
        )
        for gap in set(_hop_gaps(route, net))
    }
    return _assemble(route, net, metrics)


def shortest_route(n_nodes: int, edge_cost: Callable[[int, int], float]) -> Route | None:
    """Cheapest path from node 0 to node n_nodes - 1 over the edges (i, j),
    i < j, each costing edge_cost(i, j), as the Route through its inner
    nodes (node k is relay k - 1); None when every path has an infinite
    edge. O(n_nodes^2) calls of edge_cost.

    Ties: each node scans its predecessors in ascending order and replaces
    the current one only on a strictly smaller cost, so it keeps its
    smallest cheapest predecessor. In exact arithmetic that picks the
    smallest mask among equal-cost routes. Permutations of the same hop
    gaps cost the same exactly but are summed in different orders: float
    rounding can then split their partial sums at an intermediate node,
    and the pick can differ from the smallest mask at an equal total.
    """
    dist = [math.inf] * n_nodes
    pred = [-1] * n_nodes
    dist[0] = 0.0
    for j in range(1, n_nodes):
        best, best_i = math.inf, -1
        for i in range(j):
            candidate = dist[i] + edge_cost(i, j)
            if candidate < best:
                best, best_i = candidate, i
        dist[j], pred[j] = best, best_i
    if pred[-1] < 0:
        return None
    mask = 0
    node = pred[-1]
    while node != 0:
        mask |= 1 << (node - 1)
        node = pred[node]
    return Route(mask)


def _no_route(net: LinearNetwork, cause: UnreachableLinkError) -> UnreachableLinkError:
    return UnreachableLinkError(
        f"no usable route across {net.total_distance_m} m with {net.relay_count} "
        f"relays: every route has a hop that cannot carry traffic ({cause})"
    )


def optimal_route(
    net: LinearNetwork,
    policy: PowerPolicy,
    scheme: ModulationScheme,
    target: BerTarget,
    circuit: CircuitProfile,
    radio: RadioConfig,
    prop: PropagationParams,
    objective: str = "energy",
    t_r_s: float | None = None,
) -> RouteResult:
    """Cheapest route under the objective ('energy' or 'delay').

    Nodes along the line (source 0, relays 1..N, destination N+1) form a
    DAG whose edge (i, j) is one hop of length (j - i) * spacing; additive
    hop costs make the shortest path the cheapest route, with the tie rule
    of `shortest_route`. One `hop_costs` call resolves the receive
    threshold, and each of the N + 1 hop lengths is evaluated at most
    once, the direct hop first. A gap whose hop cannot carry traffic (a
    threshold with no finite dBm value, shorter than d0, or outage
    rounding to 1) is no edge.

    The search returns the direct hop before any other hop is evaluated
    when it costs less than twice the floor L that `hop_costs` returns
    for the objective, under either power policy (a variable-power delay
    route is always the direct hop: every hop's delay equals its floor).
    This is exact in floating point, so the route, its totals and its
    hop are those the shortest path would give, bit for bit. A route
    through a relay sums at least two hops, each costing at least L, and
    rounding is monotone, so its cost is at least fl(L + L) = 2L, which
    is more than the direct hop's: the destination keeps predecessor 0.
    Otherwise every other hop is evaluated and the shortest path runs.

    UnreachableLinkError is raised when no route is left, quoting the
    direct hop's error, or when the cheapest route's total energy or
    delay overflows.
    """
    if objective not in ("energy", "delay"):
        raise ValueError(f"objective must be 'energy' or 'delay', got {objective!r}")
    n_nodes = net.relay_count + 2
    cost, energy_floor, delay_floor = hop_costs(policy, scheme, target, circuit, radio, prop, t_r_s)
    field, floor = ("delay", delay_floor) if objective == "delay" else (
        "energy_per_bit", energy_floor)
    direct_gap = n_nodes - 1
    hops: dict[int, LinkMetrics] = {}  # by gap; a gap whose hop is unusable is missing
    hop_cost = [math.inf] * n_nodes  # indexed by gap; a missing edge costs inf
    try:
        hops[direct_gap] = cost(direct_gap * net.spacing_m)
    except UnreachableLinkError as exc:
        direct_error = exc
    else:
        hop_cost[direct_gap] = getattr(hops[direct_gap], field)
        if hop_cost[direct_gap] < 2.0 * floor:
            return _assemble(Route(0), net, hops)
    for gap in range(1, direct_gap):
        try:
            hops[gap] = cost(gap * net.spacing_m)
        except UnreachableLinkError:
            continue
        hop_cost[gap] = getattr(hops[gap], field)
    route = shortest_route(n_nodes, lambda i, j: hop_cost[j - i])
    if route is None:
        # the direct hop is then unusable too
        raise _no_route(net, direct_error)
    return _assemble(route, net, hops)
