"""Default-config runs against committed outputs, byte for byte.

`tests/golden/` holds the CSV and standard output of every default sweep
(`singlehop` and `joint` under both power policies, `multihop` under both
policies and both objectives) and the standard output of `validate`. A
change that moves any printed digit of these runs fails here; when the
move is intended, regenerate the files with the commands below and say
which digits moved and why.

    python -m mqamlink singlehop --policy fixed --out tests/golden/singlehop_fixed.csv \\
        > tests/golden/singlehop_fixed.stdout
    python -m mqamlink validate > tests/golden/validate.stdout
"""

from pathlib import Path

import pytest

from mqamlink.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEPS = {
    "singlehop_fixed": ["singlehop", "--policy", "fixed"],
    "singlehop_variable": ["singlehop", "--policy", "variable"],
    "multihop_fixed_energy": ["multihop", "--policy", "fixed", "--objective", "energy"],
    "multihop_fixed_delay": ["multihop", "--policy", "fixed", "--objective", "delay"],
    "multihop_variable_energy": ["multihop", "--policy", "variable", "--objective", "energy"],
    "multihop_variable_delay": ["multihop", "--policy", "variable", "--objective", "delay"],
    "joint_fixed": ["joint", "--policy", "fixed"],
    "joint_variable": ["joint", "--policy", "variable"],
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_default_sweep_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main([*SWEEPS[name], "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()


def test_default_validate_matches_golden(capsys):
    assert main(["validate"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "validate.stdout").read_text()
