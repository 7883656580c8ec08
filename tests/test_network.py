import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from mqamlink import channel, network
from mqamlink.channel import PropagationParams, UnreachableLinkError, dbm_to_watts, path_loss_db
from mqamlink.config import ConfigError, RunConfig, parse_config
from mqamlink.energy import (
    FixedPower,
    LinkMetrics,
    VariablePower,
    hop_costs,
    link_metrics,
    single_tx_energy_per_bit,
)
from mqamlink.modulation import BerTarget, ModulationScheme
from mqamlink.network import (
    MAX_RELAYS,
    LinearNetwork,
    Route,
    RouteResult,
    optimal_route,
    route_cost,
    route_hops,
    shortest_route,
)
from mqamlink.sweep import run_joint, run_multihop
from route_oracle import exhaustive_route, oracle_route

NET = LinearNetwork(100.0, 9)


class TestRouteHops:
    def test_direct_route(self):
        assert route_hops(Route(0), NET) == [100.0]

    def test_all_relays(self):
        assert route_hops(Route(0b111111111), NET) == [10.0] * 10

    def test_midpoint_relay(self):
        assert route_hops(Route(1 << 4), NET) == [50.0, 50.0]

    def test_hops_sum_to_span(self):
        rng = np.random.default_rng(37)
        net = LinearNetwork(73.0, 7)
        for _ in range(100):
            mask = int(rng.integers(0, 2**7))
            hops = route_hops(Route(mask), net)
            assert sum(hops) == pytest.approx(73.0, rel=1e-12)

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            route_hops(Route(2**9), NET)

    def test_mask_string_order(self):
        assert Route(0b000000001).mask_string(9) == "100000000"
        assert Route(0b100000000).mask_string(9) == "000000001"

    def test_every_mask_up_to_eight_relays(self):
        # unit spacing, so each hop is its index gap exactly
        for n in range(9):
            net = LinearNetwork(float(n + 1), n)
            for mask in range(2**n):
                nodes = [0, *(i + 1 for i in range(n) if mask >> i & 1), n + 1]
                assert route_hops(Route(mask), net) == [
                    float(right - left) for left, right in zip(nodes, nodes[1:])]


class TestRouteCost:
    def test_direct_route_equals_link_metrics(self, circuit, radio, prop):
        scheme = ModulationScheme(6)
        target = BerTarget(1e-4)
        result = route_cost(
            Route(0), NET, FixedPower(0.1), scheme, target, circuit, radio, prop
        )
        m = link_metrics(100.0, FixedPower(0.1), scheme, target, circuit, radio, prop)
        assert result.total_energy_per_bit == pytest.approx(m.energy_per_bit, rel=1e-14)
        assert result.total_delay == pytest.approx(m.delay, rel=1e-14)
        assert len(result.per_hop) == 1

    def test_costs_are_additive(self, circuit, radio, prop):
        result = route_cost(
            Route(0b000010001), NET, FixedPower(0.1), ModulationScheme(4),
            BerTarget(3e-4), circuit, radio, prop,
        )
        assert result.total_energy_per_bit == pytest.approx(
            sum(h.energy_per_bit for h in result.per_hop), rel=1e-14
        )
        assert result.total_delay == pytest.approx(
            sum(h.delay for h in result.per_hop), rel=1e-14
        )

    def test_variable_policy_totals(self, circuit, radio, prop):
        scheme = ModulationScheme(4)
        result = route_cost(
            Route(0b111111111), NET, VariablePower(), scheme, BerTarget(1e-4),
            circuit, radio, prop,
        )
        assert all(abs(h.p_link - 0.5) <= 1e-12 for h in result.per_hop)
        singles = sum(
            single_tx_energy_per_bit(dbm_to_watts(h.pt_dbm), scheme, circuit, radio)
            for h in result.per_hop
        )
        assert result.total_energy_per_bit == pytest.approx(2 * singles, rel=1e-10)


class TestOptimalRoute:
    def test_no_relays_means_direct(self, circuit, radio, prop):
        net = LinearNetwork(100.0, 0)
        result = optimal_route(
            net, FixedPower(0.1), ModulationScheme(4), BerTarget(1e-4),
            circuit, radio, prop,
        )
        assert result.route.active_mask == 0
        oracle = oracle_route(
            net, FixedPower(0.1), ModulationScheme(4), BerTarget(1e-4),
            circuit, radio, prop,
        )
        assert oracle.route.active_mask == 0

    def test_minimizer_dominates_extremes(self, circuit, radio, prop):
        scheme = ModulationScheme(8)
        target = BerTarget(1e-4)
        args = (NET, FixedPower(0.1), scheme, target, circuit, radio, prop)
        best = optimal_route(*args)
        direct = route_cost(Route(0), *args)
        all_on = route_cost(Route(2**9 - 1), *args)
        assert best.total_energy_per_bit <= direct.total_energy_per_bit
        assert best.total_energy_per_bit <= all_on.total_energy_per_bit

    def test_exhaustive_matches_dp_randomized(self, circuit, radio):
        rng = np.random.default_rng(41)
        for _ in range(8):
            prop = PropagationParams(
                beta=float(rng.uniform(2.2, 4.0)),
                sigma_psi_db=float(rng.uniform(2.0, 8.0)),
            )
            net = LinearNetwork(float(rng.uniform(40.0, 160.0)), int(rng.integers(3, 10)))
            scheme = ModulationScheme(int(rng.choice((2, 4, 6, 8, 10))))
            target = BerTarget(float(10 ** rng.uniform(-4.5, -2.5)))
            policy = FixedPower(float(rng.uniform(0.01, 0.2)))
            objective = str(rng.choice(("energy", "delay")))
            a = oracle_route(net, policy, scheme, target, circuit, radio, prop,
                             objective=objective)
            b = optimal_route(net, policy, scheme, target, circuit, radio, prop,
                              objective=objective)
            assert a.route == b.route
            assert a.total_energy_per_bit == pytest.approx(
                b.total_energy_per_bit, rel=1e-12
            )
            assert a.total_delay == pytest.approx(b.total_delay, rel=1e-12)

    def test_per_hop_figures_are_link_metrics(self, circuit, radio):
        # one threshold per search, then each hop: the chosen route's hops
        # and totals are those of link_metrics and the oracle, bit for bit
        rng = np.random.default_rng(1018)
        for _ in range(40):
            prop = PropagationParams(beta=float(rng.uniform(2.2, 4.0)),
                                     sigma_psi_db=float(rng.uniform(2.0, 8.0)))
            net = LinearNetwork(float(rng.uniform(20.0, 400.0)), int(rng.integers(0, 10)))
            policy = (FixedPower(float(rng.uniform(0.01, 0.2))) if rng.random() < 0.5
                      else VariablePower())
            scheme = ModulationScheme(int(rng.choice((2, 4, 6, 8, 10))))
            target = BerTarget(float(10 ** rng.uniform(-5.0, -2.5)))
            t_r_s = None if rng.random() < 0.5 else float(10 ** rng.uniform(-6.0, -3.0))
            objective = str(rng.choice(("energy", "delay")))
            args = (net, policy, scheme, target, circuit, radio, prop, objective, t_r_s)
            best = optimal_route(*args)
            oracle = oracle_route(*args)
            assert best.route == oracle.route
            assert best.total_energy_per_bit == oracle.total_energy_per_bit
            assert best.total_delay == oracle.total_delay
            assert best.per_hop == tuple(
                link_metrics(d, policy, scheme, target, circuit, radio, prop, t_r_s=t_r_s)
                for d in route_hops(best.route, net)
            )

    def test_dropping_a_relay_from_optimum_never_helps(self, circuit, radio, prop):
        scheme = ModulationScheme(8)
        target = BerTarget(5e-4)
        args = (NET, FixedPower(0.05), scheme, target, circuit, radio, prop)
        best = optimal_route(*args)
        mask = best.route.active_mask
        for i in range(NET.relay_count):
            if mask >> i & 1:
                weaker = route_cost(Route(mask & ~(1 << i)), *args)
                assert weaker.total_energy_per_bit >= best.total_energy_per_bit

    def test_delay_objective(self, circuit, radio, prop):
        scheme = ModulationScheme(10)
        target = BerTarget(1e-4)
        args = (NET, FixedPower(0.1), scheme, target, circuit, radio, prop)
        best = optimal_route(*args, objective="delay")
        delays = [
            route_cost(Route(mask), *args).total_delay for mask in range(2**9)
        ]
        assert best.total_delay == pytest.approx(min(delays), rel=1e-14)

    def test_unknown_objective_rejected(self, circuit, radio, prop):
        with pytest.raises(ValueError):
            optimal_route(
                NET, FixedPower(0.1), ModulationScheme(2), BerTarget(1e-4),
                circuit, radio, prop, objective="latency",
            )

    @pytest.mark.parametrize("t_r_s", [-1.0, math.nan, math.inf])
    def test_bad_overhead_rejected(self, circuit, radio, prop, t_r_s):
        # a non-finite overhead once made every hop unusable instead
        args = (NET, FixedPower(0.1), ModulationScheme(2), BerTarget(1e-4), circuit, radio, prop)
        with pytest.raises(ValueError, match="t_r_s must be nonnegative and finite"):
            optimal_route(*args, t_r_s=t_r_s)
        with pytest.raises(ValueError, match="t_r_s must be nonnegative and finite"):
            route_cost(Route(0), *args, t_r_s=t_r_s)

    def test_deterministic(self, circuit, radio, prop):
        args = (NET, FixedPower(0.1), ModulationScheme(6), BerTarget(1e-4),
                circuit, radio, prop)
        first = optimal_route(*args)
        second = optimal_route(*args)
        assert first.route == second.route
        assert first.total_energy_per_bit == second.total_energy_per_bit

    def test_exact_ties_keep_the_smallest_predecessor(self):
        # gap costs 1, 2, 3 quarters and 5 for the direct hop: every route
        # but the direct one costs exactly 1.0, so all seven relay subsets tie
        cost = {1: 0.25, 2: 0.5, 3: 0.75, 4: 5.0}
        best = shortest_route(5, lambda i, j: cost[j - i])
        # the destination keeps predecessor 1 (relay 0), which reaches
        # it at cost 1.0 before relays 1 and 2 tie it
        assert best == Route(0b001)
        assert best.mask_string(3) == "100"
        table = {
            gap: LinkMetrics(p_link=0.0, energy_per_bit=c, delay=c, pt_dbm=0.0,
                             pmin_dbm=0.0, gamma_b_bar=0.0)
            for gap, c in cost.items()
        }
        for objective in ("energy", "delay"):
            oracle = exhaustive_route(table, 3, objective)
            assert best == oracle.route
            assert oracle.total_energy_per_bit == 1.0

    def test_no_finite_path(self):
        assert shortest_route(4, lambda i, j: 1.0 if j - i == 1 and j < 3 else math.inf) is None
        assert shortest_route(2, lambda i, j: 2.0) == Route(0)

    def test_hops_inside_far_field_are_skipped(self, circuit, radio, prop):
        # spacing 0.5 m < d0 = 1 m: no route may take a one-gap hop
        net = LinearNetwork(5.0, 9)
        args = (net, FixedPower(0.1), ModulationScheme(10), BerTarget(1e-4),
                circuit, radio, prop)
        best = optimal_route(*args)
        assert min(route_hops(best.route, net)) >= prop.d0_m
        assert best.route == oracle_route(*args).route
        with pytest.raises(UnreachableLinkError):
            route_cost(Route(1), *args)

    def test_saturated_direct_hop_is_routed_around(self, circuit, radio, prop):
        # the 2 km direct hop's outage rounds to 1 at 5 mW; 200 m hops do not
        net = LinearNetwork(2000.0, 9)
        args = (net, FixedPower(0.005), ModulationScheme(2), BerTarget(1e-4),
                circuit, radio, prop)
        with pytest.raises(UnreachableLinkError):
            route_cost(Route(0), *args)
        best = optimal_route(*args)
        assert best.route == Route(2**9 - 1)
        assert all(hop.p_link < 1.0 for hop in best.per_hop)
        assert best.route == oracle_route(*args).route

    def test_no_usable_route_raises(self, circuit, radio, prop):
        with pytest.raises(UnreachableLinkError, match="no usable route"):
            optimal_route(
                LinearNetwork(0.5, 0), FixedPower(0.1), ModulationScheme(2),
                BerTarget(1e-4), circuit, radio, prop,
            )

    def test_largest_network_searches(self, circuit, radio, prop):
        net = LinearNetwork(300.0, MAX_RELAYS)
        best = optimal_route(
            net, FixedPower(0.1), ModulationScheme(6), BerTarget(1e-4),
            circuit, radio, prop,
        )
        assert sum(route_hops(best.route, net)) == pytest.approx(300.0, rel=1e-12)


def _reference_route(net, policy, scheme, target, circuit, radio, prop, objective, t_r_s):
    """The search without its early return: every hop from `hop_costs`,
    then `shortest_route`, the totals summed from the source. Returns the
    RouteResult, or the direct hop's error when no route is usable."""
    cost = hop_costs(policy, scheme, target, circuit, radio, prop, t_r_s)[0]
    figures, error = {}, None
    for gap in range(1, net.relay_count + 2):
        try:
            figures[gap] = cost(gap * net.spacing_m)
        except UnreachableLinkError as exc:
            error = exc
    field = "energy_per_bit" if objective == "energy" else "delay"
    route = shortest_route(net.relay_count + 2, lambda i, j: (
        getattr(figures[j - i], field) if j - i in figures else math.inf))
    if route is None:
        return error
    nodes = [0, *(i + 1 for i in range(net.relay_count) if route.active_mask >> i & 1),
             net.relay_count + 1]
    hops = tuple(figures[right - left] for left, right in zip(nodes, nodes[1:]))
    energy_total = delay_total = 0.0
    for hop in hops:
        energy_total += hop.energy_per_bit
        delay_total += hop.delay
    return RouteResult(route, energy_total, delay_total, hops)


def _bits(result):
    return (result.route.active_mask, result.total_energy_per_bit.hex(),
            result.total_delay.hex(), [[v.hex() for v in h] for h in result.per_hop])


class TestDirectHopChecks:
    """`optimal_route` returns the direct hop early when it costs less than
    twice the floor on every hop, before the other hops are evaluated;
    otherwise the shortest path runs. Either way it returns what the full
    search returns, bit for bit."""

    @staticmethod
    def search(monkeypatch, args):
        """optimal_route(*args) with its work recorded: the outcome (the
        RouteResult or the error), the hop lengths evaluated in order, the
        figures each evaluation returned, and the number of shortest-path
        runs."""
        lengths, figures, runs = [], [], []

        def recorded_hop_costs(*hop_args):
            cost, energy_floor, delay_floor = hop_costs(*hop_args)

            def recorded(distance_m):
                lengths.append(distance_m)
                figures.append(cost(distance_m))
                return figures[-1]

            return recorded, energy_floor, delay_floor

        def recorded_shortest_route(*route_args):
            runs.append(route_args)
            return shortest_route(*route_args)

        with monkeypatch.context() as patch:
            patch.setattr(network, "hop_costs", recorded_hop_costs)
            patch.setattr(network, "shortest_route", recorded_shortest_route)
            try:
                outcome = optimal_route(*args)
            except UnreachableLinkError as exc:
                outcome = exc
        return outcome, lengths, figures, len(runs)

    def check(self, monkeypatch, args):
        """Compare one search with the reference and the oracle, and name
        the path it took: 'before', 'dp' or 'error', by whether the
        shortest path ran."""
        net = args[0]
        outcome, lengths, _, runs = self.search(monkeypatch, args)
        reference = _reference_route(*args)
        # the direct hop first, and no hop length twice
        assert lengths[0] == (net.relay_count + 1) * net.spacing_m
        assert len(set(lengths)) == len(lengths) <= net.relay_count + 1
        oracle = oracle_route(*args)
        if isinstance(outcome, UnreachableLinkError):
            assert isinstance(reference, UnreachableLinkError) and oracle is None
            assert str(outcome).startswith("no usable route")
            assert str(outcome).endswith(f"({reference})")
            return "error"
        assert _bits(outcome) == _bits(reference)
        assert outcome.route == oracle.route
        assert (outcome.total_energy_per_bit, outcome.total_delay) == (
            oracle.total_energy_per_bit, oracle.total_delay)
        if runs:
            return "dp"
        assert outcome.route == Route(0) and len(lengths) == 1
        return "before"

    def test_seeded_sweep(self, monkeypatch, circuit, radio):
        rng = np.random.default_rng(20261020)
        paths = {"before": 0, "dp": 0, "error": 0}
        for _ in range(400):
            prop = PropagationParams(beta=float(rng.uniform(2.0, 4.5)),
                                     sigma_psi_db=float(rng.uniform(1.0, 10.0)))
            net = LinearNetwork(float(10 ** rng.uniform(0.5, 3.3)), int(rng.integers(0, 13)))
            policy = (FixedPower(float(10 ** rng.uniform(-3.0, 0.0))) if rng.random() < 0.5
                      else VariablePower())
            scheme = ModulationScheme(int(rng.choice((2, 4, 6, 8, 10))))
            target = BerTarget(float(10 ** rng.uniform(-6.0, -2.0)))
            objective = str(rng.choice(("energy", "delay")))
            t_r_s = None if rng.random() < 0.5 else float(10 ** rng.uniform(-7.0, -3.0))
            args = (net, policy, scheme, target, circuit, radio, prop, objective, t_r_s)
            paths[self.check(monkeypatch, args)] += 1
        # every path is taken, each more than a few times
        assert min(paths.values()) >= 10, paths

    @pytest.mark.parametrize("policy, b, objective, path", [
        (FixedPower(0.1), 2, "energy", "before"),
        (FixedPower(0.1), 2, "delay", "before"),
        (VariablePower(), 2, "energy", "before"),
        (VariablePower(), 2, "delay", "before"),
        # a relay halves the hop and wins: the floor check fails
        (FixedPower(0.1), 8, "energy", "dp"),
    ])
    def test_named_cases(self, monkeypatch, circuit, radio, prop, policy, b, objective, path):
        args = (NET, policy, ModulationScheme(b), BerTarget(1e-4), circuit, radio, prop,
                objective, None)
        assert self.check(monkeypatch, args) == path

    @pytest.mark.parametrize("policy", [FixedPower(0.1), VariablePower()], ids=["fixed", "variable"])
    @pytest.mark.parametrize("objective", ["energy", "delay"])
    def test_no_relays(self, monkeypatch, circuit, radio, prop, policy, objective):
        args = (LinearNetwork(100.0, 0), policy, ModulationScheme(6), BerTarget(1e-4),
                circuit, radio, prop, objective, None)
        assert self.check(monkeypatch, args) in ("before", "dp")

    @pytest.mark.parametrize("policy, b, objective", [
        (FixedPower(0.1), 2, "energy"),  # the direct hop, before the others
        (FixedPower(0.1), 8, "energy"),  # through a relay
        (VariablePower(), 10, "energy"),
    ])
    def test_per_hop_holds_the_returned_records(self, monkeypatch, circuit, radio, prop,
                                                policy, b, objective):
        args = (NET, policy, ModulationScheme(b), BerTarget(1e-4), circuit, radio, prop,
                objective, None)
        outcome, _, figures, _ = self.search(monkeypatch, args)
        assert all(type(hop) is LinkMetrics for hop in figures)
        assert outcome.per_hop and all(any(hop is returned for returned in figures)
                                       for hop in outcome.per_hop)

    def test_unusable_direct_hop_is_routed_around(self, monkeypatch, circuit, radio, prop):
        # the saturated 2 km direct hop of test_saturated_direct_hop_is_routed_around
        args = (LinearNetwork(2000.0, 9), FixedPower(0.005), ModulationScheme(2),
                BerTarget(1e-4), circuit, radio, prop, "energy", None)
        assert self.check(monkeypatch, args) == "dp"

    @pytest.mark.parametrize("policy", [FixedPower(0.1), VariablePower()], ids=["fixed", "variable"])
    def test_no_usable_route_quotes_the_direct_hop(self, monkeypatch, circuit, radio, prop,
                                                   policy):
        # a 0 W threshold: every hop is unusable, and the message names the direct one
        args = (LinearNetwork(40.0, 3), policy, ModulationScheme(4), BerTarget(0.234375),
                circuit, radio, prop, "energy", None)
        assert self.check(monkeypatch, args) == "error"
        with pytest.raises(UnreachableLinkError) as exc:
            optimal_route(*args)
        assert str(exc.value) == (
            "no usable route across 40.0 m with 3 relays: every route has a hop that cannot "
            "carry traffic (40.0 m hop is unusable: its receive threshold 0.0 W has no finite "
            "dBm value)")


class TestSearchWork:
    """Hop evaluations of the default studies, counted as calls of the
    function `hop_costs` returns, each of which computes one path loss.
    The direct-hop check cuts them; a search that drops it, or evaluates
    the direct hop twice, reads more. A search it does not end runs the
    shortest path once."""

    @staticmethod
    def evaluations(monkeypatch, study):
        hops, path_losses = [], []

        def counted_hop_costs(*hop_args):
            cost, energy_floor, delay_floor = hop_costs(*hop_args)

            def counted(distance_m):
                hops.append(distance_m)
                return cost(distance_m)

            return counted, energy_floor, delay_floor

        def counted_path_loss(*args):
            path_losses.append(args)
            return path_loss_db(*args)

        with monkeypatch.context() as patch:
            patch.setattr(network, "hop_costs", counted_hop_costs)
            patch.setattr(channel, "path_loss_db", counted_path_loss)
            study()
        assert len(path_losses) == len(hops)
        return len(hops)

    @pytest.mark.parametrize("policy, objective, count", [
        ("fixed", "energy", 52),
        ("fixed", "delay", 52),
        # every variable-power delay route is the direct hop
        ("variable", "energy", 97),
        ("variable", "delay", 25),
    ])
    def test_multihop(self, monkeypatch, policy, objective, count):
        config = parse_config(f"policy = {policy}\n")
        assert self.evaluations(monkeypatch, lambda: run_multihop(config, objective)) == count

    def test_joint(self, monkeypatch):
        assert self.evaluations(monkeypatch, lambda: run_joint(RunConfig())) == 541

    @pytest.mark.parametrize("study, runs", [
        ("fixed energy", 3),
        ("fixed delay", 3),
        ("variable energy", 8),
        ("variable delay", 0),
        ("joint", 49),
    ])
    def test_shortest_path_runs(self, monkeypatch, study, runs):
        calls = []

        def counted_shortest_route(*route_args):
            calls.append(route_args)
            return shortest_route(*route_args)

        with monkeypatch.context() as patch:
            patch.setattr(network, "shortest_route", counted_shortest_route)
            if study == "joint":
                run_joint(RunConfig())
            else:
                policy, objective = study.split()
                run_multihop(parse_config(f"policy = {policy}\n"), objective)
        assert len(calls) == runs


class TestJointOptimize:
    """The joint (b, P_t) optimum, searched by `sweep.run_joint`."""

    @staticmethod
    def config(b_grid, pt_grid_mw):
        return replace(RunConfig(), b_grid=b_grid, pt_grid_mw=pt_grid_mw)

    def test_degenerate_grid_reduces_to_optimal_route(self):
        config = self.config((6,), (50.0,))
        _, best = run_joint(config)
        assert (best.b, best.pt_mw) == (6, 50.0)
        direct = optimal_route(
            config.network(), FixedPower(50.0 * 1e-3), ModulationScheme(6), BerTarget(1e-4),
            config.circuit(), config.radio(), config.propagation(),
            t_r_s=config.resolved_t_r_s(),
        )
        assert best.energy_j_per_bit == direct.total_energy_per_bit
        assert best.route_mask == direct.route.mask_string(NET.relay_count)

    def test_larger_grid_never_increases_minimum(self):
        _, small = run_joint(self.config((4, 6), (25.0, 50.0)))
        _, large = run_joint(self.config((2, 4, 6, 8), (10.0, 25.0, 50.0, 100.0)))
        assert large.energy_j_per_bit <= small.energy_j_per_bit

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="key 'pt_grid_mw'"):
            self.config((2,), ()).validate()
        with pytest.raises(ConfigError, match="key 'b_grid'"):
            self.config((), (50.0,)).validate()


class TestLinearNetworkType:
    def test_spacing(self):
        assert LinearNetwork(100.0, 9).spacing_m == pytest.approx(10.0, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"total_distance_m": 0.0},
        {"total_distance_m": 100.0, "relay_count": -1},
        {"total_distance_m": 100.0, "relay_count": 31},
        # 9 * (max / 9) rounds up past the largest double: the direct hop is inf
        {"total_distance_m": sys.float_info.max, "relay_count": 8},
    ])
    def test_invalid_networks_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LinearNetwork(**kwargs)
