import math

import pytest

from mqamlink.energy import FixedPower, VariablePower
from mqamlink.network import LinearNetwork
from mqamlink.sweep import SweepPlan, run_joint, run_multihop, run_singlehop

NET = LinearNetwork(100.0, 9)


def singlehop_plan(policy):
    return SweepPlan(kind="singlehop", ber_grid=(1e-4,), policy=policy)


class TestPlanValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SweepPlan(kind="surface")

    def test_singlehop_needs_single_target(self):
        with pytest.raises(ValueError):
            SweepPlan(kind="singlehop", ber_grid=(1e-4, 1e-3))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            SweepPlan(kind="singlehop", b_grid=(), ber_grid=(1e-4,))

    @pytest.mark.parametrize("grid", [
        {"d_grid_m": ()},  # every grid must be nonempty, whatever the kind
        {"d_grid_m": (5.0, math.inf)},
        {"pt_grid_w": (0.05, math.nan)},
        {"pt_grid_w": (0.05, 0.0)},
        {"b_grid": (2, 3)},
        {"ber_grid": (1e-4, 0.4)},
    ])
    def test_bad_grid_element(self, grid):
        with pytest.raises(ValueError):
            SweepPlan(kind="multihop", **grid)


class TestSinglehop:
    def test_row_grid_and_order(self, circuit, radio, prop):
        plan = singlehop_plan(FixedPower(0.1))
        rows = run_singlehop(plan, circuit, radio, prop)
        assert len(rows) == len(plan.b_grid) * len(plan.d_grid_m)
        coords = [(r.b, r.d_m) for r in rows]
        assert coords == [(b, d) for b in plan.b_grid for d in plan.d_grid_m]

    def test_argmin_matches_rescan(self, circuit, radio, prop):
        rows = run_singlehop(singlehop_plan(FixedPower(0.1)), circuit, radio, prop)
        for d in {r.d_m for r in rows}:
            group = [r for r in rows if r.d_m == d]
            best = min(group, key=lambda r: r.energy_j_per_bit)
            assert best.is_argmin
            assert sum(r.is_argmin for r in group) == 1

    def test_variable_rows_have_half_outage(self, circuit, radio, prop):
        rows = run_singlehop(singlehop_plan(VariablePower()), circuit, radio, prop)
        assert all(abs(r.p_link - 0.5) <= 1e-12 for r in rows)
        assert all(r.policy == "variable" for r in rows)

    def test_variable_beats_fixed_at_argmin(self, circuit, radio, prop):
        fixed = run_singlehop(singlehop_plan(FixedPower(0.1)), circuit, radio, prop)
        variable = run_singlehop(singlehop_plan(VariablePower()), circuit, radio, prop)
        for d in (5.0, 25.0, 50.0, 75.0, 100.0):
            best_fixed = min(
                r.energy_j_per_bit for r in fixed if r.d_m == d
            )
            best_variable = min(
                r.energy_j_per_bit for r in variable if r.d_m == d
            )
            assert best_variable <= best_fixed

    def test_db_and_joule_columns_consistent(self, circuit, radio, prop):
        rows = run_singlehop(singlehop_plan(FixedPower(0.1)), circuit, radio, prop)
        for r in rows:
            assert r.energy_dbmj == pytest.approx(
                10 * math.log10(r.energy_j_per_bit / 1e-3), abs=1e-9
            )

    def test_deterministic(self, circuit, radio, prop):
        plan = singlehop_plan(FixedPower(0.1))
        assert run_singlehop(plan, circuit, radio, prop) == run_singlehop(
            plan, circuit, radio, prop
        )


class TestMultihop:
    def test_rows_and_argmin_flags(self, circuit, radio, prop):
        plan = SweepPlan(kind="multihop", policy=FixedPower(0.1))
        rows = run_multihop(plan, NET, circuit, radio, prop)
        assert len(rows) == len(plan.ber_grid) * len(plan.b_grid)
        for pb in plan.ber_grid:
            group = [r for r in rows if r.ber_target == pb]
            best = min(group, key=lambda r: r.energy_j_per_bit)
            assert best.is_argmin
            assert sum(r.is_argmin for r in group) == 1
            assert all(len(r.route_mask) == NET.relay_count for r in group)

    def test_delay_objective_flags_delay_argmin(self, circuit, radio, prop):
        plan = SweepPlan(kind="multihop", ber_grid=(1e-4,), policy=FixedPower(0.1))
        rows = run_multihop(plan, NET, circuit, radio, prop, objective="delay")
        best = min(rows, key=lambda r: r.delay_s)
        assert best.is_argmin
        assert all(r.energy_j_per_bit is not None for r in rows)

    def test_infeasible_points_become_error_rows(self, circuit, radio, prop):
        # 0.3 is below the zero-SNR ceiling of 4-QAM but far above 1024-QAM's
        plan = SweepPlan(
            kind="multihop", b_grid=(2, 10), ber_grid=(0.3,), policy=FixedPower(0.1)
        )
        rows = run_multihop(plan, NET, circuit, radio, prop)
        by_b = {r.b: r for r in rows}
        assert by_b[10].error is not None
        assert by_b[10].energy_j_per_bit is None
        assert by_b[2].error is None
        assert by_b[2].is_argmin


class TestJoint:
    def test_global_min_flagged_once(self, circuit, radio, prop):
        plan = SweepPlan(
            kind="joint", ber_grid=(1e-4,),
            pt_grid_w=tuple(0.005 * k for k in range(1, 21)),
        )
        rows, best = run_joint(plan, NET, circuit, radio, prop)
        assert sum(r.is_argmin for r in rows) == 1
        rescan = min(rows, key=lambda r: r.energy_j_per_bit)
        assert rescan is best
        assert best.is_argmin

    def test_excluding_the_optimum_raises_the_minimum(self, circuit, radio, prop):
        full_plan = SweepPlan(
            kind="joint", ber_grid=(1e-4,),
            pt_grid_w=tuple(0.005 * k for k in range(1, 21)),
        )
        _, best = run_joint(full_plan, NET, circuit, radio, prop)
        reduced = SweepPlan(
            kind="joint", ber_grid=(1e-4,),
            b_grid=tuple(b for b in full_plan.b_grid if b != best.b),
            pt_grid_w=full_plan.pt_grid_w,
        )
        _, reduced_best = run_joint(reduced, NET, circuit, radio, prop)
        assert reduced_best.energy_j_per_bit > best.energy_j_per_bit

    def test_single_point_grid(self, circuit, radio, prop):
        plan = SweepPlan(
            kind="joint", b_grid=(6,), pt_grid_w=(0.05,), ber_grid=(1e-4,)
        )
        rows, best = run_joint(plan, NET, circuit, radio, prop)
        assert len(rows) == 1
        assert best is rows[0]

    def test_variable_policy_refused(self, circuit, radio, prop):
        plan = SweepPlan(kind="joint", ber_grid=(1e-4,), policy=VariablePower())
        with pytest.raises(ValueError, match="joint sweeps fixed powers over pt_grid_w"):
            run_joint(plan, NET, circuit, radio, prop)
