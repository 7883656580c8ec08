"""Acceptance suite: one test per release criterion.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible with
`pytest -s`) and asserts at the stated tolerance, with independent
oracles (closed forms, Gauss-Legendre and adaptive quadrature, route
enumeration, Monte Carlo bounds) computed inside the test or taken from
the oracle modules beside it.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from mqamlink.channel import PropagationParams, ShadowedLink, monte_carlo_outage
from mqamlink.energy import FixedPower, VariablePower, energy_to_dbmj, link_metrics
from mqamlink.modulation import (
    ALLOWED_BITS_PER_SYMBOL,
    BerTarget,
    ModulationScheme,
    avg_ber,
    required_gamma_b,
)
from mqamlink.network import LinearNetwork, optimal_route
from ber_oracle import instantaneous_ser, quadrature_avg_ber
from route_oracle import oracle_route

B_GRID = (2, 4, 6, 8, 10)
D_GRID = (5.0, 25.0, 50.0, 75.0, 100.0)
BER_GRID = (1e-4, 3e-4, 5e-4, 8e-4, 1e-3)
NET = LinearNetwork(100.0, 9)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {detail}")
    assert ok, f"criterion {number}: {detail}"


def fixed_multihop_results(circuit, radio, prop, policy):
    """Optimal-route result per (BER target, b) for the given policy."""
    return {
        pb: {
            b: optimal_route(
                NET, policy, ModulationScheme(b), BerTarget(pb), circuit, radio, prop
            )
            for b in B_GRID
        }
        for pb in BER_GRID
    }


def test_criterion_01_quadrature_matches_closed_forms():
    # the runtime closed form against the 64-node Gauss-Legendre oracle,
    # at the MGF coefficients c = 3*gamma*b/(2(M-1)) listed below
    start = time.perf_counter()
    worst = 0.0
    for c in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        for b in B_GRID:
            scheme = ModulationScheme(b)
            gamma_b = c * 2.0 * (scheme.m - 1) / (3.0 * b)
            want = quadrature_avg_ber(gamma_b, scheme)
            worst = max(worst, abs(avg_ber(gamma_b, scheme) - want) / want)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-9,
        f"closed-form BER vs quadrature, worst relative error {worst:.2e} "
        f"(tolerance 1e-9, {elapsed * 1e3:.1f} ms)",
    )


def test_criterion_02_mgf_route_matches_rayleigh_averaging():
    start = time.perf_counter()
    worst = 0.0
    for b in B_GRID:
        scheme = ModulationScheme(b)
        for gamma_b in (1.0, 10.0, 100.0):
            gamma_s_bar = b * gamma_b
            integrand = lambda g: (
                instantaneous_ser(g, scheme) / b
            ) * math.exp(-g / gamma_s_bar) / gamma_s_bar
            direct, _ = quad(integrand, 0.0, np.inf, limit=200)
            worst = max(worst, abs(direct - avg_ber(gamma_b, scheme)))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst <= 1e-6 and elapsed < 1.0,
        f"MGF BER vs direct Rayleigh averaging, worst abs diff {worst:.2e} "
        f"(tolerance 1e-6, {elapsed:.2f} s < 1 s)",
    )


def test_criterion_03_inversion_round_trip_and_ceilings():
    ceiling_4 = abs(avg_ber(0.0, ModulationScheme(2)) - 0.375)
    ceiling_16 = abs(avg_ber(0.0, ModulationScheme(4)) - 0.234375)
    rng = np.random.default_rng(2026)
    worst = 0.0
    count = 0
    while count < 100:
        b = int(rng.choice(ALLOWED_BITS_PER_SYMBOL))
        scheme = ModulationScheme(b)
        pb = float(10 ** rng.uniform(-5.0, math.log10(0.374)))
        if pb >= avg_ber(0.0, scheme):
            continue
        count += 1
        gamma = required_gamma_b(BerTarget(pb), scheme)
        worst = max(worst, abs(avg_ber(gamma, scheme) - pb))
    ok = worst <= 1e-10 and ceiling_4 <= 1e-13 and ceiling_16 <= 1e-13
    report(
        3,
        ok,
        f"100 inversion round trips, worst residual {worst:.2e} (tolerance 1e-10); "
        f"zero-SNR ceilings off by {ceiling_4:.1e} / {ceiling_16:.1e} "
        "(machine precision)",
    )


def test_criterion_04_variable_policy_outage_is_half(circuit, radio, prop):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        d = float(rng.uniform(1.5, 250.0))
        b = int(rng.choice(B_GRID))
        m = link_metrics(
            d, VariablePower(), ModulationScheme(b), BerTarget(1e-4),
            circuit, radio, prop,
        )
        worst = max(worst, abs(m.p_link - 0.5))
    report(
        4,
        worst <= 1e-12,
        f"variable-power outage over 50 random distances, worst |p - 0.5| = "
        f"{worst:.2e} (tolerance 1e-12)",
    )


def test_criterion_05_singlehop_argmin_structure(circuit, radio, prop):
    start = time.perf_counter()

    def energies(d):
        return {
            b: link_metrics(
                d, FixedPower(0.1), ModulationScheme(b), BerTarget(1e-4),
                circuit, radio, prop,
            ).energy_per_bit
            for b in B_GRID
        }

    argmins = {}
    shapes_ok = True
    for d in D_GRID:
        by_b = energies(d)
        best = min(by_b, key=by_b.get)
        argmins[d] = best
        if d >= 50.0:
            # interior-minimum shape: energy rises at both grid ends
            shapes_ok = shapes_ok and by_b[2] > by_b[best] and by_b[10] > by_b[best]
    ordered = [argmins[d] for d in D_GRID]
    nonincreasing = all(a >= b for a, b in zip(ordered, ordered[1:]))
    elapsed = time.perf_counter() - start
    ok = (
        argmins[50.0] == 8
        and argmins[75.0] == 6
        and nonincreasing
        and shapes_ok
        and elapsed < 5.0
    )
    report(
        5,
        ok,
        f"fixed-power argmins {ordered} over d={list(D_GRID)}: b=8 at 50 m, "
        f"b=6 at 75 m, nonincreasing, interior minima for d >= 50 m "
        f"({elapsed:.2f} s < 5 s)",
    )


def test_criterion_06_variable_never_beaten_by_fixed(circuit, radio, prop):
    gaps = []
    for d in D_GRID:
        best_fixed = min(
            link_metrics(
                d, FixedPower(0.1), ModulationScheme(b), BerTarget(1e-4),
                circuit, radio, prop,
            ).energy_per_bit
            for b in B_GRID
        )
        best_variable = min(
            link_metrics(
                d, VariablePower(), ModulationScheme(b), BerTarget(1e-4),
                circuit, radio, prop,
            ).energy_per_bit
            for b in B_GRID
        )
        gaps.append(best_fixed - best_variable)
    report(
        6,
        all(g >= 0.0 for g in gaps),
        "variable-power optimum <= fixed-power optimum at every distance "
        f"(margins {['%.2e' % g for g in gaps]} J/bit)",
    )


def test_criterion_07_route_search_matches_dp_oracle(circuit, radio):
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    worst_rel = 0.0
    for _ in range(50):
        prop = PropagationParams(
            beta=float(rng.uniform(2.2, 4.2)),
            sigma_psi_db=float(rng.uniform(2.0, 9.0)),
        )
        net = LinearNetwork(float(rng.uniform(30.0, 180.0)), 9)
        scheme = ModulationScheme(int(rng.choice(B_GRID)))
        target = BerTarget(float(10 ** rng.uniform(-4.5, -2.0)))
        policy = (
            FixedPower(float(rng.uniform(0.005, 0.2)))
            if rng.uniform() < 0.8
            else VariablePower()
        )
        exhaustive = oracle_route(net, policy, scheme, target, circuit, radio, prop)
        dp = optimal_route(net, policy, scheme, target, circuit, radio, prop)
        assert exhaustive.route == dp.route
        rel = abs(
            exhaustive.total_energy_per_bit - dp.total_energy_per_bit
        ) / dp.total_energy_per_bit
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - start
    report(
        7,
        worst_rel <= 1e-12 and elapsed < 10.0,
        f"50 randomized DP route searches equal the 2^9 enumeration oracle, "
        f"worst cost gap {worst_rel:.1e} relative ({elapsed:.2f} s < 10 s)",
    )


def test_criterion_08_joint_global_optimum(circuit, radio, prop):
    best = None
    for b in B_GRID:
        scheme = ModulationScheme(b)
        for pt_mw in range(5, 105, 5):
            result = optimal_route(
                NET, FixedPower(pt_mw * 1e-3), scheme, BerTarget(1e-4),
                circuit, radio, prop,
            )
            if best is None or result.total_energy_per_bit < best[2]:
                best = (b, pt_mw, result.total_energy_per_bit)
    b, pt_mw, energy = best
    dbmj = energy_to_dbmj(energy)
    ok = (b, pt_mw) == (4, 25) and abs(dbmj - (-19.71)) <= 0.5
    report(
        8,
        ok,
        f"joint optimum at b={b}, {pt_mw} mW, {dbmj:.3f} dBmJ "
        "(reference -19.71 +/- 0.5 dB)",
    )


def test_criterion_09_energy_delay_coincidence(circuit, radio, prop):
    fixed = fixed_multihop_results(circuit, radio, prop, FixedPower(0.1))
    coincide = {}
    for pb, by_b in fixed.items():
        argmin_energy = min(by_b, key=lambda b: by_b[b].total_energy_per_bit)
        argmin_delay = min(by_b, key=lambda b: by_b[b].total_delay)
        coincide[pb] = argmin_energy == argmin_delay
    # Variable power: the coincidence is expected to break, so it is only
    # observed, never asserted.
    variable = fixed_multihop_results(circuit, radio, prop, VariablePower())
    observed = {
        pb: (
            min(by_b, key=lambda b: by_b[b].total_energy_per_bit),
            min(by_b, key=lambda b: by_b[b].total_delay),
        )
        for pb, by_b in variable.items()
    }
    report(
        9,
        all(coincide.values()),
        f"fixed-power energy argmin minimizes delay for every BER target "
        f"{sorted(coincide)}; variable-power (energy, delay) argmins "
        f"{[observed[pb] for pb in BER_GRID]} left unasserted",
    )


def test_criterion_10_monte_carlo_agreement(circuit, radio, prop):
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    trials = 1_000_000
    checked = 0
    worst_p = 0.0
    worst_count_rel = 0.0
    while checked < 10:
        d = float(rng.uniform(10.0, 120.0))
        b = int(rng.choice(B_GRID))
        pb = float(rng.choice(BER_GRID))
        pt_w = float(rng.uniform(0.01, 0.15))
        m = link_metrics(
            d, FixedPower(pt_w), ModulationScheme(b), BerTarget(pb),
            circuit, radio, prop,
        )
        if m.p_link > 0.9:  # keep expected transmission counts bounded
            continue
        checked += 1
        empirical, mean_count = monte_carlo_outage(
            ShadowedLink(d, m.pt_dbm, m.pmin_dbm), prop, trials,
            seed=int(rng.integers(0, 2**31)),
        )
        p = m.p_link
        bound = 4.0 * math.sqrt(p * (1.0 - p) / trials)
        assert abs(empirical - p) <= bound, (d, b, pb, pt_w, empirical, p)
        expected_count = 1.0 / (1.0 - p)
        count_rel = abs(mean_count - expected_count) / expected_count
        worst_p = max(worst_p, abs(empirical - p))
        worst_count_rel = max(worst_count_rel, count_rel)
        assert count_rel <= 0.01
    elapsed = time.perf_counter() - start
    report(
        10,
        elapsed < 30.0,
        f"10 links x 1e6 trials: outage within 4-sigma (worst gap {worst_p:.2e}), "
        f"transmission count within 1% (worst {worst_count_rel * 100:.3f}%) "
        f"({elapsed:.1f} s < 30 s)",
    )


def test_criterion_11_multihop_shape_and_policy_gap(circuit, radio, prop):
    fixed = fixed_multihop_results(circuit, radio, prop, FixedPower(0.1))
    variable = fixed_multihop_results(circuit, radio, prop, VariablePower())

    def optima(results):
        return {
            pb: min(r.total_energy_per_bit for r in by_b.values())
            for pb, by_b in results.items()
        }

    fixed_opt = optima(fixed)
    variable_opt = optima(variable)

    # looser targets can only cheapen the optimum
    ordered = sorted(BER_GRID)
    monotone = all(
        fixed_opt[a] >= fixed_opt[b] and variable_opt[a] >= variable_opt[b]
        for a, b in zip(ordered, ordered[1:])
    )

    # interior minimum in b at the reference constraint, for both policies
    def interior(results, pb):
        by_b = {b: r.total_energy_per_bit for b, r in results[pb].items()}
        best = min(by_b, key=by_b.get)
        return by_b[2] > by_b[best] and by_b[10] > by_b[best]

    interior_ok = interior(fixed, 1e-4) and interior(variable, 1e-4)
    low_end_rises = all(
        results[pb][2].total_energy_per_bit
        > min(r.total_energy_per_bit for r in results[pb].values())
        for results in (fixed, variable)
        for pb in BER_GRID
    )

    gaps_db = {
        pb: energy_to_dbmj(fixed_opt[pb]) - energy_to_dbmj(variable_opt[pb])
        for pb in BER_GRID
    }
    # stated value 1 to 1.5 dB with +/- 0.5 dB slack
    gaps_ok = all(0.5 <= g <= 2.0 for g in gaps_db.values())

    report(
        11,
        monotone and interior_ok and low_end_rises and gaps_ok,
        "multihop optima nonincreasing in the BER target, interior minimum "
        f"in b at 1e-4, fixed-vs-variable gaps "
        f"{ {pb: round(g, 3) for pb, g in gaps_db.items()} } dB within [0.5, 2.0]",
    )
