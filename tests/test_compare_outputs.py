"""`tests/compare_outputs.py`, run on this tree against itself."""

import shutil

from compare_outputs import SRC, main, runs


def test_runs_cover_every_command_and_policy():
    files, planned = runs(2, seed=5)
    assert sorted(files) == ["config_0.txt", "config_1.txt"]
    assert [(name, policy, argv[:3]) for name, policy, argv in planned][:7] == [
        ("config_0.txt", "fixed", ["singlehop", "--config", "config_0.txt"]),
        ("config_0.txt", "variable", ["singlehop", "--config", "config_0.txt"]),
        ("config_0.txt", "fixed", ["multihop", "--objective", "energy"]),
        ("config_0.txt", "variable", ["multihop", "--objective", "energy"]),
        ("config_0.txt", "fixed", ["multihop", "--objective", "delay"]),
        ("config_0.txt", "variable", ["multihop", "--objective", "delay"]),
        ("config_0.txt", "fixed", ["joint", "--config", "config_0.txt"]),
    ]
    assert planned[7:9] == [
        ("config_0.txt", policy, ["validate", "--config", "config_0.txt", "--policy", policy,
                                  "--trials", "10000"]) for policy in ("fixed", "variable")
    ]
    # the same seed writes the same configs
    assert runs(2, seed=5) == (files, planned)


def test_tree_against_itself_moves_nothing(capsys):
    assert main([str(SRC), "--configs", "4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        "4 configs, 36 runs: 0 of 20 fixed-policy runs moved, "
        "0 of 16 variable-policy runs moved\n"
    )


def test_moved_digits_are_listed(tmp_path, capsys):
    # a tree that prints 11 significant digits where this one prints 12
    other = tmp_path / "src"
    shutil.copytree(SRC / "mqamlink", other / "mqamlink",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "mqamlink" / "cli.py"
    text = cli.read_text()
    assert text.count('float: "%.12g"') == 1  # the one float conversion, CSV and stdout alike
    cli.write_text(text.replace('float: "%.12g"', 'float: "%.11g"'))
    assert main([str(other), "--configs", "1", "--seed", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("singlehop --config config_0.txt --policy fixed --out out.csv: "
                      "stdout, csv moved")
    assert out[1].startswith("  config: beta = ")
    assert out[2].startswith("  stdout - singlehop argmin: ")
    # `validate` prints its link distances with the same 12 digits
    assert out[-1] == ("1 configs, 9 runs: 5 of 5 fixed-policy runs moved, "
                       "4 of 4 variable-policy runs moved")
