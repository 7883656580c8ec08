import concurrent.futures
import csv
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqamlink import channel, cli, sweep
from mqamlink.channel import ShadowedLink, monte_carlo_outage
from mqamlink.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_VALIDATION, main
from mqamlink.config import POLICIES, RunConfig, parse_config, serialize_config
from mqamlink.energy import link_metrics
from mqamlink.modulation import BerTarget, ModulationScheme
from mqamlink.network import MAX_RELAYS
from mqamlink.numerics import binomial_tail


def _fresh_env():
    """Environment for a fresh `python -m mqamlink` that imports this package."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


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

    @pytest.mark.parametrize("config_text, flags", [
        ("", ["--policy", "variable"]),
        ("policy = variable\n", []),
    ])
    def test_variable_policy_is_a_config_error(self, tmp_path, capsys, config_text, flags):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        out = tmp_path / "joint.csv"
        assert main(["joint", "--config", str(cfg), "--out", str(out), *flags]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: joint sweeps fixed powers over pt_grid_mw; "
            "policy 'variable' does not apply\n"
        )

    def test_fixed_flag_overrides_variable_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("policy = variable\nb_grid = 4\npt_grid_mw = 25\n")
        out = tmp_path / "joint.csv"
        args = ["joint", "--config", str(cfg), "--out", str(out), "--policy", "fixed"]
        assert main(args) == EXIT_OK
        assert len(read_csv(out)) == 1


class TestFlags:
    @pytest.mark.parametrize("command", ["singlehop", "multihop", "joint", "validate"])
    def test_policy_choices_are_the_config_policies(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "{" + ",".join(POLICIES) + "}" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--policy", "adaptive"])
        assert exit_info.value.code == 2

    def test_subcommand_flags(self, capsys):
        # --objective belongs to multihop and --trials to validate alone
        for command, flag, value in (("singlehop", "--objective", "delay"),
                                     ("joint", "--trials", "10000")):
            with pytest.raises(SystemExit):
                main([command, flag, value])
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        # a sweep reads no seed, and `validate` writes no CSV
        ["singlehop", "--seed", "5"],
        ["validate", "--trials", "10000", "--out", "x.csv"],
    ])
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, tmp_path, capsys,
                                                               monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mqamlink ")
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in err
        assert list(tmp_path.iterdir()) == []

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        # a flag given to one call must not become a default of the next
        runs = (["multihop", "--objective", "delay"], ["multihop"],
                ["singlehop", "--policy", "variable"], ["singlehop"])
        in_process = []
        for args in runs:
            out = tmp_path / "in_process.csv"
            code = main([*args, "--out", str(out)])
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err, out.read_bytes()))
            out.unlink()
        env = _fresh_env()
        for args, result in zip(runs, in_process):
            out = tmp_path / "fresh.csv"
            fresh = subprocess.run([sys.executable, "-m", "mqamlink", *args, "--out", str(out)],
                                   capture_output=True, text=True, env=env, timeout=60)
            assert result == (fresh.returncode, fresh.stdout, fresh.stderr, out.read_bytes())
            out.unlink()


class TestGridOrder:
    """Rows come in ascending grid order, whatever order the config lists
    the grids in."""

    @pytest.mark.parametrize("command", ["singlehop", "multihop", "joint"])
    def test_unsorted_grids_give_the_sorted_bytes(self, tmp_path, capsys, command):
        results = []
        for grids in ("b_grid = 2,6,10\nd_grid_m = 5,50,100\nber_grid = 1e-4,1e-3\n"
                      "pt_grid_mw = 5,50\n",
                      "b_grid = 10,2,6\nd_grid_m = 100,5,50\nber_grid = 1e-3,1e-4\n"
                      "pt_grid_mw = 50,5\n"):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(grids)
            out = tmp_path / "out.csv"
            code = main([command, "--config", str(cfg), "--out", str(out)])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err, out.read_bytes()))
            out.unlink()
        assert results[0][0] == EXIT_OK
        assert results[1] == results[0]


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
        assert captured.out.count("SKIP (infeasible") == 2
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
            "link b=10 d_m=50: SKIP (near-certain outage: 1 - p_link = 8.88e-13, "
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

    def test_negative_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = -1\ntrials = 10000\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["validate", "--seed", "-2", "--trials", "10000"]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: invalid value for key 'seed': -1 (seed must be >= 0, got -1)",
            "config error: invalid value for key 'seed': -2 (seed must be >= 0, got -2)",
        ]

    def test_subnormal_outage_passes(self, tmp_path, capsys):
        # p / trials would underflow to 0 and leave a zero-width bound
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k_db = 50\nb_grid = 2\nd_grid_m = 5\ntrials = 10000\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out.startswith(
            "link b=2 d_m=5: analytic=1.724289e-321 empirical=0.000000e+00 "
        )

    def test_round_cap_is_a_failure(self, tmp_path, capsys, monkeypatch):
        # at a sub-ulp sigma every shadowing draw leaves the received power
        # at the mean, at or below the threshold: the analytic outage is 1/2,
        # yet no packet ever gets through
        monkeypatch.setattr(channel, "_MAX_MC_ROUNDS", 100)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sigma_psi_db = 1e-300\npolicy = variable\nb_grid = 6\n"
                       "d_grid_m = 5\ntrials = 10000\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().out.splitlines() == [
            "link b=6 d_m=5: analytic=5.000000e-01 FAIL (retransmission simulation "
            "exceeded 100 rounds; outage probability is too close to 1)",
            "validate: 0/1 links PASS (trials=10000, seed=1)",
        ]

    def test_threads_do_not_change_the_report(self, tmp_path, capsys, monkeypatch):
        # the default grid plus an unreachable distance; at a 60-round cap the
        # b = 10 links at 75 and 100 m are near-certain outages, and the
        # links at 25 m simulate a threshold no packet clears, so they fail
        # at the cap
        monkeypatch.setattr(channel, "_MAX_MC_ROUNDS", 60)
        simulate = cli.monte_carlo_outage
        threads = set()

        def unclearable_at_25_m(link, prop, trials, seed, **stop):
            threads.add(threading.get_ident())
            if link.distance_m == 25.0:
                link = replace(link, pmin_dbm=link.pmin_dbm + 100.0)
            return simulate(link, prop, trials, seed, **stop)

        monkeypatch.setattr(cli, "monte_carlo_outage", unclearable_at_25_m)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("d_grid_m = 0.5,25,50,75,100\ntrials = 10000\n")
        for seed in ("1", "7", "2024"):
            reports = []
            for cpus in ({0}, set(range(8))):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                threads.clear()
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    code = main(["validate", "--config", str(cfg), "--seed", seed])
                finally:
                    sys.setswitchinterval(interval)
                assert code == EXIT_VALIDATION
                assert 1 <= len(threads) <= len(cpus)
                reports.append(capsys.readouterr().out)
            assert reports[0] == reports[1]
            lines = reports[0].splitlines()
            assert sum("SKIP (infeasible" in line for line in lines) == 5
            assert sum("SKIP (near-certain outage" in line for line in lines) == 2
            assert sum("FAIL (retransmission simulation exceeded 60 rounds" in line
                       for line in lines) == 5
            assert lines[-1] == f"validate: 13/25 links PASS, 7 SKIP (trials=10000, seed={seed})"

    def test_interrupt_starts_no_queued_link(self, monkeypatch):
        # one worker, and an interrupt while the main thread waits: at most
        # the link already running is simulated, and the interrupt propagates
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        simulate = cli.monte_carlo_outage
        calls = []

        def slow(*args, **stop):
            calls.append(args)
            time.sleep(0.2)
            return simulate(*args, **stop)

        def interrupted(futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "monte_carlo_outage", slow)
        monkeypatch.setattr(concurrent.futures, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["validate", "--trials", "10000"])
        assert len(calls) <= 1

    def test_interrupt_stops_the_running_links(self, monkeypatch):
        # every simulation gets the stop event, which an interrupt sets; a
        # link started after it ends at its first chunk, unfinished
        simulate = cli.monte_carlo_outage
        started = threading.Event()
        outcomes = []

        def recorded(*args, stop):
            started.set()
            try:
                outcomes.append(simulate(*args, stop=stop))
            except channel.MonteCarloStopped as exc:
                outcomes.append(exc)
                raise

        def interrupted(futures):
            started.wait(5.0)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "monte_carlo_outage", recorded)
        monkeypatch.setattr(concurrent.futures, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["validate", "--trials", "20000000"])
        # 2e7 trials are over a thousand chunks: no link could finish
        assert outcomes
        assert all(isinstance(outcome, channel.MonteCarloStopped) for outcome in outcomes)

    def test_report_does_not_depend_on_grid_order(self, tmp_path, capsys):
        reports = []
        for grids in ("b_grid = 2,6\nd_grid_m = 25,50\n", "b_grid = 6,2\nd_grid_m = 50,25\n"):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text(grids + "trials = 10000\n")
            assert main(["validate", "--config", str(cfg)]) == EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert reports[0].splitlines()[0].startswith("link b=2 d_m=25: analytic=")

    def test_rare_outage_observed_once_passes(self, capsys):
        # b = 4 at 50 m has p_link = 5.8e-7: at 1e4 trials a single outage
        # is 13 sigma out for a normal bound, yet its exact tail is 5.8e-3
        assert main(["validate", "--trials", "10000", "--seed", "11"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[7] == (
            "link b=4 d_m=50: analytic=5.826039e-07 empirical=1.000000e-04 "
            "mean_count=1.000100 expected_count=1.000001 PASS"
        )
        assert lines[-1] == "validate: 25/25 links PASS (trials=10000, seed=11)"

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_outage_off_by_two_fails(self, tmp_path, capsys, monkeypatch, factor):
        # p_link = 0.018 at b = 6, 75 m: about 180 outages in 1e4 first attempts
        metrics = sweep.link_metrics
        monkeypatch.setattr(sweep, "link_metrics", lambda *args, t_r_s: (
            m := metrics(*args, t_r_s=t_r_s))._replace(p_link=factor * m.p_link))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("b_grid = 6\nd_grid_m = 75\ntrials = 10000\n")
        assert main(["validate", "--config", str(cfg)]) == EXIT_VALIDATION
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("link b=6 d_m=75: analytic=") and line.endswith(" FAIL")

    @pytest.mark.parametrize("config_text", [
        "",
        "policy = variable\n",
        # 0.5 m is inside d0, and the longest b = 8 and b = 10 links' delay overflows
        "t_r_s = 1e308\nd_grid_m = 0.5,50,100\n",
    ])
    def test_links_are_singlehop_rows(self, tmp_path, capsys, config_text):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        code = main(["validate", "--config", str(cfg), "--trials", "10000"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[:-1]
        rows = sweep.run_singlehop(parse_config(config_text))
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            head = f"link b={row.b} d_m={cli._fmt(row.d_m)}: "
            if row.error is not None:
                assert line == f"{head}SKIP (infeasible: {row.error})"
            elif channel.monte_carlo_cap_reachable(row.p_link, 10_000):
                assert line.startswith(f"{head}SKIP (near-certain outage: ")
            else:
                assert line.startswith(f"{head}analytic={row.p_link:.6e} ")

    def test_seed_flag_changes_draws(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("b_grid = 6\nd_grid_m = 90\ntrials = 20000\n")
        assert main(["validate", "--config", str(cfg), "--seed", "5"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["validate", "--config", str(cfg), "--seed", "6"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first != second

    # 40 examples run in a few seconds; a link just short of the round-cap
    # skip can still need thousands of rounds
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        ber_target=st.floats(1e-6, 0.3),
        pt_mw=st.floats(1.0, 1e3),
        d_grid_m=st.lists(st.floats(0.5, 200.0), min_size=1, max_size=3),
        policy=st.sampled_from(("fixed", "variable")),
    )
    def test_never_raises(self, ber_target, pt_mw, d_grid_m, policy):
        config = replace(
            RunConfig(), ber_target=ber_target, pt_mw=pt_mw, d_grid_m=tuple(d_grid_m),
            policy=policy,
        )
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.txt"
            cfg.write_text(serialize_config(config))
            code = main(["validate", "--config", str(cfg), "--trials", "10000"])
        assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_VALIDATION)


def _full_verdict(p, trials, first_failures, retransmissions):
    """All four tails of `validate`'s verdict, none skipped."""
    return min(
        binomial_tail(first_failures, trials, p, upper=True),
        binomial_tail(first_failures, trials, p, upper=False),
        binomial_tail(retransmissions, trials + retransmissions - 1, p, upper=True),
        binomial_tail(retransmissions, trials + retransmissions, p, upper=False),
    ) >= cli._TAIL_FALSE_ALARM


class TestVerdictShortcut:
    """`validate` skips the tails that hold the binomial's median; the
    verdict is the one all four tails give."""

    def test_default_links(self):
        config = RunConfig()
        prop = config.propagation()
        links = []
        for b in config.b_grid:
            for d in config.d_grid_m:
                m = link_metrics(d, config.power_policy(), ModulationScheme(b),
                                 BerTarget(config.ber_target), config.circuit(),
                                 config.radio(), prop)
                links.append((m.p_link, ShadowedLink(d, m.pt_dbm, m.pmin_dbm)))
        trials = 10_000
        for seed in range(200):
            for p, link in links:
                empirical, mean_count = monte_carlo_outage(link, prop, trials, seed)
                counts = (round(empirical * trials), round(mean_count * trials) - trials)
                assert cli._counts_agree(p, trials, *counts) == _full_verdict(p, trials, *counts)

    def test_random_counts(self):
        # counts up to 8 standard deviations from their means, so that
        # both verdicts occur
        rng = random.Random(20)

        def near(mean, sd):
            return max(0, round(mean + rng.uniform(-8.0, 8.0) * sd))

        verdicts = []
        for _ in range(1000):
            trials = int(10.0 ** rng.uniform(4.0, 6.5))
            p = 10.0 ** rng.uniform(-9.0, -1e-3)
            first_failures = near(trials * p, math.sqrt(trials * p * (1.0 - p)))
            retransmissions = near(trials * p / (1.0 - p), math.sqrt(trials * p) / (1.0 - p))
            verdict = _full_verdict(p, trials, first_failures, retransmissions)
            assert cli._counts_agree(p, trials, first_failures, retransmissions) == verdict
            verdicts.append(verdict)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_median_tails_are_not_summed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "binomial_tail", lambda *args: calls.append(args) or 1.0)
        # 5000 first-round outages in 1e4 at p = 1/2 sit at the mean, so
        # neither tail is summed; of the retransmission tails only the upper
        # one, over 19999 attempts (mean 9999.5 < 10000), misses the median
        assert cli._counts_agree(0.5, 10_000, 5_000, 10_000)
        assert calls == [(10_000, 19_999, 0.5, True)]
        calls.clear()
        assert cli._counts_agree(0.5, 10_000, 4_000, 9_000)
        assert calls == [(4_000, 10_000, 0.5, False), (9_000, 19_000, 0.5, False)]


class TestNonFiniteConfig:
    """Non-finite values, given or derived from finite keys, are config
    errors, reported in one line before any arithmetic runs."""

    @pytest.mark.parametrize(
        "command, key, line",
        [
            ("singlehop", "k_db", "k_db = nan"),
            ("singlehop", "k_db", "k_db = inf"),
            ("multihop", "total_distance_m", "total_distance_m = inf"),
            ("singlehop", "d_grid_m", "d_grid_m = 5,inf"),
            ("joint", "pt_grid_mw", "pt_grid_mw = 5,inf"),
            ("multihop", "t_r_s", "t_r_s = inf"),
            # the reference gain overflows
            ("singlehop", "frequency_hz", "frequency_hz = 1e-300"),
            # the amplifier overhead overflows
            ("singlehop", "eta", "eta = 1e-320"),
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

    def test_fixed_power_checked_under_either_policy(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("policy = variable\npt_mw = -1\n")
        assert main(["singlehop", "--config", str(cfg)]) == EXIT_CONFIG
        assert main(["singlehop", "--config", str(cfg), "--policy", "fixed"]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("invalid value for key 'pt_mw'") == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["singlehop", "--config", str(tmp_path / "nope.txt")]) == EXIT_CONFIG

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_bytes(b"beta = 3.5\n\xff\n")
        assert main(["singlehop", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err

    def test_nul_byte_in_output_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_bytes(b"output_path = a\x00b.csv\n")
        assert main(["singlehop", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid value for key 'output_path'")
        assert err.count("\n") == 1

    def test_nul_byte_in_out_flag(self, capsys):
        # the flag is validated with the config, before any file is opened
        assert main(["singlehop", "--out", "a\x00b.csv"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid value for key 'output_path'")
        assert err.count("\n") == 1

    def test_flag_overrides_an_invalid_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials = 0\nb_grid = 4\nd_grid_m = 40\n")
        assert main(["validate", "--config", str(cfg), "--trials", "10000"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("(trials=10000, seed=1)\n")

    def test_trials_floor_holds_for_every_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials = 100\n")
        out = tmp_path / "never.csv"
        assert main(["singlehop", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == (
            "config error: invalid value for key 'trials': 100 (trials must be >= 10000, got 100)\n"
        )

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

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "main", interrupted)
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == cli.EXIT_INTERRUPTED == 130
        assert capsys.readouterr() == ("", "interrupted\n")

    def test_sigint_to_validate(self):
        # 1e8 trials per link run for about a minute: the signal comes mid-run
        child = subprocess.Popen(
            [sys.executable, "-m", "mqamlink", "validate", "--trials", "100000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_fresh_env(),
        )
        try:
            time.sleep(1.5)
            child.send_signal(signal.SIGINT)
            out, err = child.communicate(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert child.returncode == 130
        assert (out, err) == ("", "interrupted\n")
        assert "Traceback" not in err


class TestOverflow:
    """Finite configs whose hop or route quantities leave the double range
    give error rows, never inf cells or a traceback."""

    def run(self, tmp_path, command, config_text):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        out = tmp_path / "out.csv"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        return code, read_csv(out) if out.exists() else None

    @pytest.mark.parametrize("config_text", [
        # on-air time overflows
        "bandwidth_hz = 1e-305\n",
        # the receive threshold overflows in watts, then in dBm
        "n0_w_per_hz = 1e300\n",
        # the receive threshold underflows to 0 W
        "n0_w_per_hz = 1e-320\nbandwidth_hz = 1e-10\n",
    ])
    def test_every_hop_unusable(self, tmp_path, capsys, config_text):
        for command in ("singlehop", "multihop", "joint"):
            code, rows = self.run(tmp_path, command, config_text)
            assert code == EXIT_INFEASIBLE
            assert rows is None
        assert "unusable" in capsys.readouterr().err

    def test_delay_and_route_sums_overflow(self, tmp_path):
        # multi-hop routes overflow even where each of their hops is finite
        for command, error_rows in (("singlehop", 3), ("multihop", 3), ("joint", 50)):
            code, rows = self.run(tmp_path, command, "ttr_s = 1e308\n")
            assert code == EXIT_OK
            assert sum(r["delay_s"] == "" for r in rows) == error_rows
            assert not any(c in ("inf", "nan") for r in rows for c in r.values())

    def test_error_lines_name_the_grid_point(self, tmp_path, capsys):
        # b and the BER target, plus d_m for singlehop and pt_mw for joint
        for command, point in (
            ("singlehop", lambda r: f"b={r['b']} ber=0.0001 d_m={r['d_m']}"),
            ("multihop", lambda r: f"b={r['b']} ber={r['ber_target']}"),
            ("joint", lambda r: f"b={r['b']} ber={r['ber_target']} pt_mw={r['pt_mw']}"),
        ):
            code, rows = self.run(tmp_path, command, "ttr_s = 1e308\n")
            assert code == EXIT_OK
            lines = capsys.readouterr().err.splitlines()
            assert [line.split(": ", 1)[0] for line in lines] == [
                f"infeasible grid point {point(r)}" for r in rows if r["delay_s"] == ""
            ]
        # every joint error line names its own (b, pt_mw) point
        assert len(set(lines)) == len(lines) == 50

    def test_sub_ulp_shadowing(self, tmp_path):
        # the margin in sigma units overflows: outage is exactly 0 or 1
        code, rows = self.run(tmp_path, "singlehop", "sigma_psi_db = 1e-320\n")
        assert code == EXIT_OK
        assert {r["p_link"] for r in rows} == {"0", ""}

    def test_infinite_path_loss_slope_is_a_config_error(self, tmp_path, capsys):
        code, rows = self.run(tmp_path, "singlehop", "beta = 1e308\n")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: invalid value for key 'beta'")

    def test_transmit_power_beyond_double_range(self, tmp_path, capsys):
        code, rows = self.run(tmp_path, "singlehop", "beta = 1000\npolicy = variable\n")
        assert code == EXIT_INFEASIBLE
        assert "beyond the double range" in capsys.readouterr().err


_NO_ROUTE = ("no usable route across {} m with {} relays: every route has a hop that cannot"
             " carry traffic")
_ALL_INFEASIBLE = "error: every grid point was infeasible"


class TestRouteSearchErrors:
    """The stderr of `multihop` and `joint` wherever the route search has
    no answer, byte for byte. A "no usable route" line quotes the direct
    hop's error, at the distance (N + 1) * spacing, which need not print
    as the span."""

    GRIDS = {"multihop": "ber_grid = 1e-4\n", "joint": "pt_grid_mw = 5,100\n"}
    CASES = {
        "gap_inside_d0": (
            "total_distance_m = 0.9\nrelay_count = 2\nb_grid = 2\n", EXIT_INFEASIBLE, {
                "multihop": [
                    "infeasible grid point b=2 ber=0.0001: " + _NO_ROUTE.format(0.9, 2)
                    + " (distance 0.8999999999999999 m is inside the far-field reference"
                    " 1.0 m)",
                    _ALL_INFEASIBLE,
                ],
                "joint": [
                    f"infeasible grid point b=2 ber=0.0001 pt_mw={pt}: "
                    + _NO_ROUTE.format(0.9, 2)
                    + " (distance 0.8999999999999999 m is inside the far-field reference"
                    " 1.0 m)"
                    for pt in (5, 100)
                ] + [_ALL_INFEASIBLE],
            }),
        "saturated_direct_hop": (
            "total_distance_m = 2000\nrelay_count = 1\npt_mw = 5\nb_grid = 2,4\n", EXIT_OK, {
                "multihop": [
                    "infeasible grid point b=4 ber=0.0001: " + _NO_ROUTE.format(2000.0, 1)
                    + " (2000.0 m hop is unusable: its outage probability rounds to 1"
                    " (P_t 6.9897 dBm, threshold -91.8878 dBm))",
                ],
                "joint": [
                    "infeasible grid point b=4 ber=0.0001 pt_mw=5: "
                    + _NO_ROUTE.format(2000.0, 1)
                    + " (2000.0 m hop is unusable: its outage probability rounds to 1"
                    " (P_t 6.9897 dBm, threshold -91.8878 dBm))",
                ],
            }),
        "no_usable_route": (
            "total_distance_m = 0.5\nrelay_count = 0\nb_grid = 2\n", EXIT_INFEASIBLE, {
                "multihop": [
                    "infeasible grid point b=2 ber=0.0001: " + _NO_ROUTE.format(0.5, 0)
                    + " (distance 0.5 m is inside the far-field reference 1.0 m)",
                    _ALL_INFEASIBLE,
                ],
                "joint": [
                    f"infeasible grid point b=2 ber=0.0001 pt_mw={pt}: "
                    + _NO_ROUTE.format(0.5, 0)
                    + " (distance 0.5 m is inside the far-field reference 1.0 m)"
                    for pt in (5, 100)
                ] + [_ALL_INFEASIBLE],
            }),
        # b = 4 meets the target at zero SNR: a 0 W threshold
        "nonfinite_threshold": (
            "total_distance_m = 29\nrelay_count = 6\nb_grid = 2,4\n"
            "ber_target = 0.234375\nber_grid = 0.234375\n", EXIT_OK, {
                "multihop": [
                    "infeasible grid point b=4 ber=0.234375: " + _NO_ROUTE.format(29.0, 6)
                    + " (29.000000000000004 m hop is unusable: its receive threshold 0.0 W"
                    " has no finite dBm value)",
                ],
                "joint": [
                    f"infeasible grid point b=4 ber=0.234375 pt_mw={pt}: "
                    + _NO_ROUTE.format(29.0, 6)
                    + " (29.000000000000004 m hop is unusable: its receive threshold 0.0 W"
                    " has no finite dBm value)"
                    for pt in (5, 100)
                ],
            }),
        # every hop is finite; the delays of a multi-hop route sum to inf
        "ttr_s_1e308": (
            "ttr_s = 1e308\nb_grid = 4,6,8\n", EXIT_OK, {
                "multihop": [
                    "infeasible grid point b=8 ber=0.0001: route 000010000 is unusable: its"
                    " total energy 1.0138462036613207e+303 J/bit or delay inf s overflows",
                ],
                "joint": [
                    "infeasible grid point b=4 ber=0.0001 pt_mw=5: route 000010000 is"
                    " unusable: its total energy 1.0813844241817965e+303 J/bit or delay inf s"
                    " overflows",
                    "infeasible grid point b=6 ber=0.0001 pt_mw=5: route 001001000 is"
                    " unusable: its total energy 1.6376766422460037e+303 J/bit or delay inf s"
                    " overflows",
                    "infeasible grid point b=8 ber=0.0001 pt_mw=5: route 010010010 is"
                    " unusable: its total energy 2.3954802386813167e+303 J/bit or delay inf s"
                    " overflows",
                    "infeasible grid point b=8 ber=0.0001 pt_mw=100: route 000010000 is"
                    " unusable: its total energy 1.0138462036613207e+303 J/bit or delay inf s"
                    " overflows",
                ],
            }),
        # variable policy only: joint sweeps fixed powers
        "transmit_power_overflow": (
            "beta = 1000\npolicy = variable\nrelay_count = 2\nb_grid = 2\n", EXIT_INFEASIBLE, {
                "multihop": [
                    "infeasible grid point b=2 ber=0.0001: " + _NO_ROUTE.format(100.0, 2)
                    + " (100.0 m hop is unusable: its transmit power 19943 dBm is beyond the"
                    " double range)",
                    _ALL_INFEASIBLE,
                ],
            }),
    }

    @pytest.mark.parametrize("case, command", [
        (case, command) for case, (_, _, lines) in CASES.items() for command in lines
    ])
    def test_stderr_is_pinned(self, tmp_path, capsys, case, command):
        config_text, code, lines = self.CASES[case]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(self.GRIDS[command] + config_text)
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err.splitlines() == lines[command]

    def test_nonfinite_threshold_names_each_hop(self, tmp_path, capsys):
        # the hops that `singlehop` and `validate` evaluate one at a time
        # report the threshold's error each at its own length
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(self.CASES["nonfinite_threshold"][0])
        reason = "m hop is unusable: its receive threshold 0.0 W has no finite dBm value"
        out = tmp_path / "out.csv"
        assert main(["singlehop", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            f"infeasible grid point b=4 ber=0.234375 d_m={d}: {d}.0 {reason}"
            for d in (5, 25, 50, 75, 100)
        ]
        assert main(["validate", "--config", str(cfg), "--trials", "10000"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[5:-1] == [
            f"link b=4 d_m={d}: SKIP (infeasible: {d}.0 {reason})" for d in (5, 25, 50, 75, 100)
        ]
        assert lines[-1] == "validate: 5/10 links PASS, 5 SKIP (trials=10000, seed=1)"


def _log_uniform():
    magnitude = st.floats(-324.0, 308.25).map(lambda e: 10.0**e)
    # positive values lead, as the only ones that can pass validation
    return st.one_of(
        magnitude,
        st.sampled_from((math.nan, math.inf, -math.inf, 0.0)),
        magnitude.map(lambda x: -x),
    )


def _integers():
    big = st.floats(0.0, 308.0).map(lambda e: int(10.0**e))
    return st.one_of(st.integers(-3, 40), big, big.map(lambda n: -n))


_KEY_VALUES = {
    f.name: {
        "float": _log_uniform(),
        "Optional[float]": _log_uniform(),
        "int": _integers(),
        "tuple[float, ...]": st.lists(_log_uniform(), min_size=1, max_size=3).map(tuple),
        "tuple[int, ...]": st.lists(
            st.one_of(st.sampled_from((2, 4, 6, 8, 10)), _integers()), min_size=1, max_size=3,
        ).map(tuple),
        "str": st.sampled_from(("fixed", "variable", "adaptive")),
    }[f.type]
    for f in fields(RunConfig)
    if f.name != "output_path"
}


# the config keys that each subcommand also takes as a flag
_KEY_FLAGS = {"singlehop": ("policy",), "multihop": ("policy",), "joint": ("policy",),
              "validate": ("policy", "trials", "seed")}


class TestAnyConfig:
    """Any config ends in rows or a documented exit code, never in a
    traceback, and no CSV cell is inf or nan. A value given as a flag ends
    as it does in the config file."""

    # The round cap is lowered so that a link whose simulation never ends
    # fails in milliseconds; the paths taken are those of the full cap.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(),
           keys=st.lists(st.sampled_from(sorted(_KEY_VALUES)), min_size=1, max_size=2,
                         unique=True))
    def test_every_subcommand_ends_cleanly(self, data, keys):
        values = {key: data.draw(_KEY_VALUES[key], label=key) for key in keys}
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(channel, "_MAX_MC_ROUNDS", 1000):
            cfg = Path(tmp) / "cfg.txt"
            for command, flag_keys in _KEY_FLAGS.items():
                given = dict(values)
                args = [command, "--config", str(cfg)]
                if command == "validate":  # at most 10000 packets per link
                    given["trials"] = min(values.get("trials", 10_000), 10_000)
                else:
                    args += ["--out", str(Path(tmp) / f"{command}.csv")]
                # argparse turns away a policy that is not a choice
                as_flags = {key: value for key, value in given.items()
                            if key in flag_keys and (key != "policy" or value in POLICIES)}
                codes = []
                for in_flags in ({}, as_flags) if as_flags else ({},):
                    cfg.write_text(serialize_config(replace(RunConfig(), **{
                        key: value for key, value in given.items() if key not in in_flags})))
                    codes.append(main([*args, *(f"--{k}={v}" for k, v in in_flags.items())]))
                assert codes[0] in (EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_VALIDATION)
                assert len(set(codes)) == 1
            for out in Path(tmp).glob("*.csv"):
                cells = [c for row in read_csv(out) for c in row.values()]
                assert not any(c in ("inf", "-inf", "nan") for c in cells)
