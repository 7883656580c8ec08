"""Default-config runs against committed outputs, byte for byte.

`tests/golden/` holds the CSV and standard output of every default sweep
(`singlehop` under both power policies, `multihop` under both policies
and both objectives, `joint`, which sweeps fixed powers only) and the
standard output of `validate`. A
change that moves any printed digit of these runs fails here; when the
move is intended, rewrite every golden file from `SWEEPS` with

    python tests/regen_golden.py

and say which digits moved and why.
"""

from pathlib import Path

import pytest

from mqamlink.cli import EXIT_CONFIG, EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEPS = {
    "singlehop_fixed": ["singlehop", "--policy", "fixed"],
    "singlehop_variable": ["singlehop", "--policy", "variable"],
    "multihop_fixed_energy": ["multihop", "--policy", "fixed", "--objective", "energy"],
    "multihop_fixed_delay": ["multihop", "--policy", "fixed", "--objective", "delay"],
    "multihop_variable_energy": ["multihop", "--policy", "variable", "--objective", "energy"],
    "multihop_variable_delay": ["multihop", "--policy", "variable", "--objective", "delay"],
    "joint_fixed": ["joint", "--policy", "fixed"],
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_default_sweep_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main([*SWEEPS[name], "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()


def test_joint_under_variable_policy_is_a_config_error(tmp_path, capsys):
    # joint takes its powers from pt_grid_mw, so it has no variable-power run
    out = tmp_path / "joint_variable.csv"
    assert main(["joint", "--policy", "variable", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: joint sweeps fixed powers over pt_grid_mw; "
                            "policy 'variable' does not apply\n")


def test_default_validate_matches_golden(capsys):
    assert main(["validate"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "validate.stdout").read_text()
