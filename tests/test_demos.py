"""The demos print what they printed when their outputs were recorded.

`tests/golden/demos/` holds the standard output of each script in
`demos/`. When a change is meant to move a printed figure, regenerate the
file and say which figures moved and why:

    python demos/01_shadowing_outage.py > tests/golden/demos/01_shadowing_outage.stdout
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def test_every_demo_has_a_golden_output():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.stdout"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )}
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{demo.stem}.stdout").read_text()
