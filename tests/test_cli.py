import csv
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqamlink.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, main
from mqamlink.config import RunConfig, serialize_config
from mqamlink.network import MAX_RELAYS


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestSinglehop:
    def test_default_run(self, tmp_path, capsys):
        out = tmp_path / "sh.csv"
        assert main(["singlehop", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 25
        assert set(rows[0]) == {
            "policy", "b", "d_m", "pt_dbm", "pmin_dbm", "p_link",
            "energy_j_per_bit", "energy_dbmj", "delay_s", "is_argmin",
        }
        at_50 = [r for r in rows if r["d_m"] == "50" and r["is_argmin"] == "1"]
        assert len(at_50) == 1 and at_50[0]["b"] == "8"
        at_75 = [r for r in rows if r["d_m"] == "75" and r["is_argmin"] == "1"]
        assert at_75[0]["b"] == "6"
        assert "singlehop argmin: d_m=50 b=8" in capsys.readouterr().out

    def test_byte_stable(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["singlehop", "--out", str(first)]) == EXIT_OK
        assert main(["singlehop", "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_policy_flag(self, tmp_path):
        out = tmp_path / "var.csv"
        assert main(["singlehop", "--policy", "variable", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert all(r["policy"] == "variable" for r in rows)
        assert all(abs(float(r["p_link"]) - 0.5) < 1e-12 for r in rows)


class TestMultihop:
    def test_energy_objective(self, tmp_path, capsys):
        out = tmp_path / "mh.csv"
        assert main(["multihop", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 25  # 5 BER targets x 5 constellations
        assert set(rows[0]) == {
            "policy", "ber_target", "b", "pt_mw", "route_mask", "hops",
            "energy_dbmj", "delay_s", "is_argmin",
        }
        assert all(len(r["route_mask"]) == 9 for r in rows)
        assert sum(r["is_argmin"] == "1" for r in rows) == 5
        assert "multihop argmin (energy)" in capsys.readouterr().out

    def test_delay_objective_keeps_energy_column(self, tmp_path):
        out = tmp_path / "mhd.csv"
        assert main(["multihop", "--objective", "delay", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert all(r["energy_dbmj"] != "" for r in rows)


class TestJoint:
    def test_global_minimum_summary(self, tmp_path, capsys):
        out = tmp_path / "joint.csv"
        assert main(["joint", "--out", str(out)]) == EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 100  # 5 constellations x 20 power levels
        winners = [r for r in rows if r["is_global_min"] == "1"]
        assert len(winners) == 1
        assert winners[0]["b"] == "4" and winners[0]["pt_mw"] == "25"
        out_text = capsys.readouterr().out
        assert "joint global minimum: b=4 pt_mw=25" in out_text


class TestUnusableHops:
    """Hops shorter than d0 or with an outage rounding to 1 are left out of
    the route search; a grid point with no answer becomes an error row."""

    def run(self, tmp_path, config_text, *args):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        out = tmp_path / "out.csv"
        code = main([*args, "--config", str(cfg), "--out", str(out)])
        return code, read_csv(out) if out.exists() else None

    def test_saturated_direct_hop_takes_every_relay(self, tmp_path):
        code, rows = self.run(
            tmp_path, "total_distance_m = 2000\npt_mw = 5\nb_grid = 2\n", "multihop"
        )
        assert code == EXIT_OK
        assert len(rows) == 5
        assert all(r["route_mask"] == "111111111" for r in rows)

    def test_spacing_inside_far_field(self, tmp_path):
        # 0.5 m spacing: a route may not pair two adjacent nodes
        code, rows = self.run(tmp_path, "total_distance_m = 5\n", "multihop")
        assert code == EXIT_OK
        assert len(rows) == 25
        assert all("11" not in f"1{r['route_mask']}1" for r in rows)

    def test_singlehop_saturated_links_become_error_rows(self, tmp_path, capsys):
        code, rows = self.run(tmp_path, "ber_target = 1e-7\n", "singlehop")
        assert code == EXIT_OK
        errors = [(r["b"], r["d_m"]) for r in rows if r["energy_dbmj"] == ""]
        assert errors == [("10", "75"), ("10", "100")]
        assert "rounds to 1" in capsys.readouterr().err

    def test_validate_skips_unreachable_links(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("b_grid = 10\nd_grid_m = 0.5,100\nber_target = 1e-7\ntrials = 10000\n")
        # every link skipped: nothing was validated, like a sweep with no feasible point
        assert main(["validate", "--config", str(cfg)]) == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.out.count("SKIP (unreachable") == 2
        assert captured.out.endswith(
            "validate: 0/2 links PASS, 2 SKIP (trials=10000, seed=1)\n"
        )
        assert "every link was skipped" in captured.err

    def test_validate_skips_near_certain_outage_before_drawing(self, tmp_path, capsys):
        # at 50 m the b = 10 link has p_link = 1 - 8.9e-13: a packet would
        # need about 1e12 attempts, far beyond the simulation's round cap
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("b_grid = 10\nd_grid_m = 5,50\nber_target = 1e-7\ntrials = 10000\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("link b=10 d_m=5: analytic=")
        assert lines[0].endswith(" PASS")
        assert lines[1] == (
            "link b=10 d_m=50: SKIP (near-certain outage: 1 - p_link = 8.94e-13, "
            "the simulation could exceed its round cap)"
        )
        assert lines[2] == "validate: 1/2 links PASS, 1 SKIP (trials=10000, seed=1)"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        total_distance_m=st.floats(0.01, 1e4),
        relay_count=st.integers(0, MAX_RELAYS),
        pt_mw=st.floats(1e-3, 1e4),
        policy=st.sampled_from(("fixed", "variable")),
        objective=st.sampled_from(("energy", "delay")),
    )
    def test_multihop_never_raises(self, total_distance_m, relay_count, pt_mw, policy,
                                   objective):
        config = replace(
            RunConfig(), total_distance_m=total_distance_m, relay_count=relay_count,
            pt_mw=pt_mw, policy=policy,
        )
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.txt"
            cfg.write_text(serialize_config(config))
            code = main(["multihop", "--config", str(cfg), "--out", str(Path(tmp) / "o.csv"),
                         "--objective", objective])
        assert code in (EXIT_OK, EXIT_INFEASIBLE)


class TestValidate:
    CONFIG = "b_grid = 4,6\nd_grid_m = 40\ntrials = 20000\n"

    def test_passes_and_is_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(self.CONFIG)
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert "2/2 links PASS" in first

    def test_trials_floor(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials = 100\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_seed_flag_changes_draws(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("b_grid = 6\nd_grid_m = 90\ntrials = 20000\n")
        assert main(["validate", "--config", str(cfg), "--seed", "5"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["validate", "--config", str(cfg), "--seed", "6"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first != second


class TestNonFiniteConfig:
    """Non-finite values are config errors, reported in one line before any
    arithmetic runs."""

    @pytest.mark.parametrize(
        "command, key, line",
        [
            ("singlehop", "k_db", "k_db = nan"),
            ("singlehop", "k_db", "k_db = inf"),
            ("multihop", "total_distance_m", "total_distance_m = inf"),
            ("singlehop", "d_grid_m", "d_grid_m = 5,inf"),
            ("joint", "pt_grid_mw", "pt_grid_mw = 5,inf"),
            ("multihop", "t_r_s", "t_r_s = inf"),
        ],
    )
    def test_rejected_with_one_line(self, tmp_path, capsys, command, key, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid value for key '{key}'")
        assert err.count("\n") == 1


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("who_knows = 1\n")
        assert main(["singlehop", "--config", str(cfg)]) == EXIT_CONFIG
        assert "unknown keys" in capsys.readouterr().err

    def test_invariant_violation(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("beta = -2\n")
        assert main(["singlehop", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["singlehop", "--config", str(tmp_path / "nope.txt")]) == EXIT_CONFIG

    def test_all_grid_points_infeasible(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        # feasible for 4-QAM would be < 0.375, but 1024-QAM caps near 0.1
        cfg.write_text("b_grid = 10\nber_target = 0.2\n")
        out = tmp_path / "never.csv"
        assert main(["singlehop", "--config", str(cfg), "--out", str(out)]) == EXIT_INFEASIBLE
        assert not out.exists()
        assert "infeasible" in capsys.readouterr().err

    def test_unwritable_output(self, tmp_path):
        target = tmp_path / "no_dir" / "out.csv"
        assert main(["singlehop", "--out", str(target)]) == EXIT_CONFIG
