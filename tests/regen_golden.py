"""Rewrite every file under `tests/golden/` from the current program.

    python tests/regen_golden.py

Runs each default sweep of `test_golden.SWEEPS` and the default
`validate` in this process, and each script in `demos/` in a fresh
interpreter, and writes their outputs where `test_golden.py` and
`test_demos.py` read them. It only regenerates: the tests compare
against these files as before. When a change is meant to move digits,
run it and list the moved digits (`git diff --word-diff tests/golden`)
with the reason for each move.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mqamlink.cli import EXIT_OK, main  # noqa: E402
from test_demos import DEMOS, GOLDEN as DEMO_GOLDEN  # noqa: E402
from test_golden import GOLDEN, SWEEPS  # noqa: E402


def _run(argv: list[str]) -> str:
    """Standard output of one in-process CLI run, which must succeed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != EXIT_OK:
        sys.exit(f"mqamlink {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def regenerate() -> list[Path]:
    written = []
    for name, argv in sorted(SWEEPS.items()):
        csv_path = GOLDEN / f"{name}.csv"
        (GOLDEN / f"{name}.stdout").write_text(_run([*argv, "--out", str(csv_path)]))
        written += [csv_path, GOLDEN / f"{name}.stdout"]
    (GOLDEN / "validate.stdout").write_text(_run(["validate"]))
    written.append(GOLDEN / "validate.stdout")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    for demo in DEMOS:
        result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                                env=env, timeout=60, check=True)
        (DEMO_GOLDEN / f"{demo.stem}.stdout").write_text(result.stdout)
        written.append(DEMO_GOLDEN / f"{demo.stem}.stdout")
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(path.relative_to(ROOT))
