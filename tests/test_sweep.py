import math
from dataclasses import replace

import pytest

from mqamlink.config import ConfigError, RunConfig
from mqamlink.sweep import run_joint, run_multihop, run_singlehop

# the reference setup: 100 mW fixed power, BER target 1e-4, 9 relays
REFERENCE = RunConfig()
VARIABLE = replace(REFERENCE, policy="variable")


class TestSinglehop:
    def test_row_grid_and_order(self):
        rows = run_singlehop(REFERENCE)
        assert len(rows) == len(REFERENCE.b_grid) * len(REFERENCE.d_grid_m)
        coords = [(r.b, r.d_m) for r in rows]
        assert coords == [(b, d) for b in REFERENCE.b_grid for d in REFERENCE.d_grid_m]

    def test_argmin_matches_rescan(self):
        rows = run_singlehop(REFERENCE)
        for d in {r.d_m for r in rows}:
            group = [r for r in rows if r.d_m == d]
            best = min(group, key=lambda r: r.energy_j_per_bit)
            assert best.is_argmin
            assert sum(r.is_argmin for r in group) == 1

    def test_variable_rows_have_half_outage(self):
        rows = run_singlehop(VARIABLE)
        assert all(abs(r.p_link - 0.5) <= 1e-12 for r in rows)
        assert all(r.policy == "variable" for r in rows)

    def test_variable_beats_fixed_at_argmin(self):
        fixed = run_singlehop(REFERENCE)
        variable = run_singlehop(VARIABLE)
        for d in (5.0, 25.0, 50.0, 75.0, 100.0):
            best_fixed = min(
                r.energy_j_per_bit for r in fixed if r.d_m == d
            )
            best_variable = min(
                r.energy_j_per_bit for r in variable if r.d_m == d
            )
            assert best_variable <= best_fixed

    def test_db_and_joule_columns_consistent(self):
        rows = run_singlehop(REFERENCE)
        for r in rows:
            assert r.energy_dbmj == pytest.approx(
                10 * math.log10(r.energy_j_per_bit / 1e-3), abs=1e-9
            )

    def test_deterministic(self):
        assert run_singlehop(REFERENCE) == run_singlehop(REFERENCE)


class TestMultihop:
    def test_rows_and_argmin_flags(self):
        rows = run_multihop(REFERENCE)
        assert len(rows) == len(REFERENCE.ber_grid) * len(REFERENCE.b_grid)
        for pb in REFERENCE.ber_grid:
            group = [r for r in rows if r.ber_target == pb]
            best = min(group, key=lambda r: r.energy_j_per_bit)
            assert best.is_argmin
            assert sum(r.is_argmin for r in group) == 1
            assert all(len(r.route_mask) == REFERENCE.relay_count for r in group)

    def test_delay_objective_flags_delay_argmin(self):
        rows = run_multihop(replace(REFERENCE, ber_grid=(1e-4,)), objective="delay")
        best = min(rows, key=lambda r: r.delay_s)
        assert best.is_argmin
        assert all(r.energy_j_per_bit is not None for r in rows)

    def test_infeasible_points_become_error_rows(self):
        # 0.3 is below the zero-SNR ceiling of 4-QAM but far above 1024-QAM's
        rows = run_multihop(replace(REFERENCE, b_grid=(2, 10), ber_grid=(0.3,)))
        by_b = {r.b: r for r in rows}
        assert by_b[10].error is not None
        assert by_b[10].energy_j_per_bit is None
        assert by_b[2].error is None
        assert by_b[2].is_argmin


class TestJoint:
    def test_global_min_flagged_once(self):
        rows, best = run_joint(REFERENCE)
        assert sum(r.is_argmin for r in rows) == 1
        rescan = min(rows, key=lambda r: r.energy_j_per_bit)
        assert rescan is best
        assert best.is_argmin

    def test_excluding_the_optimum_raises_the_minimum(self):
        _, best = run_joint(REFERENCE)
        reduced = replace(REFERENCE, b_grid=tuple(b for b in REFERENCE.b_grid if b != best.b))
        _, reduced_best = run_joint(reduced)
        assert reduced_best.energy_j_per_bit > best.energy_j_per_bit

    def test_single_point_grid(self):
        rows, best = run_joint(replace(REFERENCE, b_grid=(6,), pt_grid_mw=(50.0,)))
        assert len(rows) == 1
        assert best is rows[0]

    def test_variable_policy_refused(self):
        with pytest.raises(ConfigError, match="joint sweeps fixed powers over pt_grid_mw"):
            run_joint(VARIABLE)


class TestGridPowers:
    """A row's pt_mw is the config's own value: the mW -> W -> mW round
    trip gives another double for this one."""

    PT_MW = 847.4489935635389

    def test_multihop(self):
        assert self.PT_MW * 1e-3 * 1e3 != self.PT_MW
        rows = run_multihop(replace(REFERENCE, pt_mw=self.PT_MW, b_grid=(4,), ber_grid=(1e-4,)))
        assert [row.pt_mw for row in rows] == [self.PT_MW]

    def test_joint(self):
        rows, _ = run_joint(replace(REFERENCE, b_grid=(4,), pt_grid_mw=(self.PT_MW, 50.0)))
        assert [row.pt_mw for row in rows] == [50.0, self.PT_MW]


# every grid lists a value twice, out of order
REPEATED = replace(REFERENCE, b_grid=(6, 4, 4, 6), d_grid_m=(50.0, 5.0, 50.0),
                   ber_grid=(1e-4, 1e-4, 3e-4), pt_grid_mw=(50.0, 25.0, 50.0))


def assert_first_least_flagged(rows, group, key):
    """Each group flags exactly one row: the first of its equal least values."""
    groups = {}
    for row in rows:
        groups.setdefault(group(row), []).append(row)
    for members in groups.values():
        least = min(key(r) for r in members)
        tied = [r for r in members if key(r) == least]
        assert len(tied) >= 2  # the repeated value ties with itself
        assert [r for r in members if r.is_argmin] == tied[:1]


class TestRepeatedGridValues:
    """A repeated grid value gives a row of its own, in ascending order."""

    def test_singlehop(self):
        rows = run_singlehop(REPEATED)
        assert len(rows) == 4 * 3
        assert [(r.b, r.d_m) for r in rows] == [(b, d) for b in (4, 4, 6, 6)
                                                for d in (5.0, 50.0, 50.0)]
        assert_first_least_flagged(rows, lambda r: r.d_m, lambda r: r.energy_j_per_bit)

    @pytest.mark.parametrize("objective", ["energy", "delay"])
    def test_multihop(self, objective):
        rows = run_multihop(REPEATED, objective)
        assert len(rows) == 3 * 4
        assert [(r.ber_target, r.b) for r in rows] == [(pb, b) for pb in (1e-4, 1e-4, 3e-4)
                                                       for b in (4, 4, 6, 6)]
        key = (lambda r: r.energy_j_per_bit) if objective == "energy" else (lambda r: r.delay_s)
        assert_first_least_flagged(rows, lambda r: r.ber_target, key)

    def test_joint(self):
        rows, best = run_joint(REPEATED)
        assert len(rows) == 4 * 3
        assert [(r.b, r.pt_mw) for r in rows] == [(b, p) for b in (4, 4, 6, 6)
                                                  for p in (25.0, 50.0, 50.0)]
        assert_first_least_flagged(rows, lambda r: None, lambda r: r.energy_j_per_bit)
        assert best.is_argmin


class TestErrorGroups:
    def test_group_of_error_rows_flags_nothing(self):
        # 1024-QAM caps near 0.1, so 0.2 has no answer at any b here
        rows = run_multihop(replace(REFERENCE, b_grid=(10,), ber_grid=(0.2, 1e-4)))
        assert [(r.ber_target, r.error is None, r.is_argmin) for r in rows] == [
            (1e-4, True, True), (0.2, False, False)]

    def test_joint_without_answer_has_no_best(self):
        rows, best = run_joint(replace(REFERENCE, b_grid=(10,), ber_target=0.2))
        assert best is None
        assert rows and all(r.error is not None and not r.is_argmin for r in rows)
