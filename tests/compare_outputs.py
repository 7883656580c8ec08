"""Compare the outputs of this tree's program with another tree's.

    python tests/compare_outputs.py OTHER_SRC [--configs N] [--seed S]

Writes N seeded random configs (random beta, sigma, span, relays, BER
targets, t_r_s, packet_bits, powers and grids) and runs each of them
through `mqamlink.cli.main` as `singlehop`, `multihop --objective energy`
and `multihop --objective delay` under both power policies, as `joint`
under the fixed one, and as `validate --trials 10000` under both (it
reads its links from `singlehop`'s rows and writes no CSV). The runs go once through this tree's `src`
and once through OTHER_SRC (a directory that holds an `mqamlink`
package), one child interpreter per tree, each in its own working
directory with the same relative paths. It prints each run whose exit
code, stdout, stderr or CSV differs, with its config and the moved
lines, then the count of runs that moved under each policy. Exits 0
when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
_OUT = ["--out", "out.csv"]
# (subcommand argv, its flags after the config and policy, the policies it runs under)
_COMMANDS = (
    (["singlehop"], _OUT, ("fixed", "variable")),
    (["multihop", "--objective", "energy"], _OUT, ("fixed", "variable")),
    (["multihop", "--objective", "delay"], _OUT, ("fixed", "variable")),
    (["joint"], _OUT, ("fixed",)),
    (["validate"], ["--trials", "10000"], ("fixed", "variable")),
)
_OUTPUTS = ("exit", "stdout", "stderr", "csv")


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return 10.0 ** rng.uniform(low, high)


def _grid(rng: random.Random, low: float, high: float, most: int) -> str:
    return ",".join(repr(_log_uniform(rng, low, high)) for _ in range(rng.randint(1, most)))


def random_config(rng: random.Random) -> str:
    """One config document; the policy is left to the command line."""
    keys = {
        "beta": repr(rng.uniform(2.0, 4.5)),
        "sigma_psi_db": repr(rng.uniform(1.0, 10.0)),
        "total_distance_m": repr(_log_uniform(rng, 0.5, 3.3)),
        "relay_count": str(rng.randint(0, 12)),
        "packet_bits": str(rng.randint(100, 40000)),
        "pt_mw": repr(_log_uniform(rng, 0.0, 3.0)),
        "b_grid": ",".join(str(b) for b in sorted(rng.sample((2, 4, 6, 8, 10),
                                                             rng.randint(1, 5)))),
        "d_grid_m": _grid(rng, 0.0, 3.0, 4),
        "pt_grid_mw": _grid(rng, 0.0, 3.0, 3),
        # targets up to 0.2, where some constellations cannot meet them
        "ber_target": repr(_log_uniform(rng, -6.0, -0.7)),
        "ber_grid": _grid(rng, -6.0, -0.7, 3),
    }
    if rng.random() < 0.5:
        keys["t_r_s"] = repr(_log_uniform(rng, -7.0, -3.0))
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def runs(configs: int, seed: int) -> tuple[dict[str, str], list[tuple[str, str, list[str]]]]:
    """The config files by name, and each run as (name, policy, argv)."""
    rng = random.Random(seed)
    files, planned = {}, []
    for index in range(configs):
        name = f"config_{index}.txt"
        files[name] = random_config(rng)
        for command, flags, policies in _COMMANDS:
            for policy in policies:
                planned.append((name, policy,
                                [*command, "--config", name, "--policy", policy, *flags]))
    return files, planned


def run_child() -> None:
    """In a child interpreter: run `runs.json` of the working directory
    through `mqamlink.cli.main` and write each run's outputs to
    `outputs.json`, with the path of the package that ran them."""
    import mqamlink
    from mqamlink.cli import main

    outputs = []
    for argv in json.loads(Path("runs.json").read_text()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback from the CLI: record it as an output
                code = f"raised {type(exc).__name__}: {exc}"
        out = Path("out.csv")
        csv = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        outputs.append({"exit": code, "stdout": stdout.getvalue(),
                        "stderr": stderr.getvalue(), "csv": csv})
    Path("outputs.json").write_text(json.dumps({"package": mqamlink.__file__,
                                                "outputs": outputs}))


def _outputs_of(src: Path, files: dict[str, str], argvs: list[list[str]]) -> list[dict]:
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as workdir:
        work = Path(workdir)
        for name, text in files.items():
            (work / name).write_text(text)
        (work / "runs.json").write_text(json.dumps(argvs))
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(1, {str(HERE)!r}); "
             "import compare_outputs; compare_outputs.run_child()"],
            cwd=work, env=env, check=True,
        )
        result = json.loads((work / "outputs.json").read_text())
    package = Path(result["package"]).resolve().parent
    if package != (src / "mqamlink").resolve():
        sys.exit(f"the child for {src} ran the package at {package}")
    return result["outputs"]


def _moved_lines(before: object, after: object) -> list[str]:
    if not (isinstance(before, str) and isinstance(after, str)):
        return [f"- {before!r}", f"+ {after!r}"]
    return [line.rstrip("\n") for line in difflib.ndiff(before.splitlines(True),
                                                         after.splitlines(True))
            if line.startswith(("- ", "+ "))]


def compare(other_src: Path, configs: int, seed: int) -> dict[str, int]:
    """Print every run that moved from OTHER_SRC (-) to this tree (+);
    return the number of moved runs under each policy."""
    files, planned = runs(configs, seed)
    argvs = [argv for _, _, argv in planned]
    before = _outputs_of(other_src, files, argvs)
    after = _outputs_of(SRC, files, argvs)
    moved = {"fixed": 0, "variable": 0}
    for (name, policy, argv), old, new in zip(planned, before, after):
        differing = [key for key in _OUTPUTS if old[key] != new[key]]
        if not differing:
            continue
        moved[policy] += 1
        print(f"{' '.join(argv)}: {', '.join(differing)} moved")
        print("  config: " + "; ".join(files[name].splitlines()))
        for key in differing:
            for line in _moved_lines(old[key], new[key]):
                print(f"  {key} {line}")
    per_policy = {policy: sum(p == policy for _, p, _ in planned) for policy in moved}
    print(f"{configs} configs, {len(planned)} runs: "
          + ", ".join(f"{moved[p]} of {per_policy[p]} {p}-policy runs moved" for p in moved))
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the other tree's src directory")
    parser.add_argument("--configs", type=int, default=300, help="random configs to run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the configs")
    args = parser.parse_args(argv)
    moved = compare(args.other_src.resolve(), args.configs, args.seed)
    return 1 if any(moved.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
