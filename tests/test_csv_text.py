"""`cli._finish`'s CSV text against the per-cell oracle, byte for byte.

Each column set is checked on the rows of the default studies and on
random rows: `None` in every optional field, as error rows and the
variable policy's `pt_mw` hold, bools and ints, every policy, 0/1 masks,
and floats at the edges of the double range and at 12-digit rounding
boundaries.
"""

import math
import operator
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csv_oracle import oracle_csv_text, oracle_fmt
from mqamlink import cli
from mqamlink.cli import EXIT_OK
from mqamlink.config import POLICIES, parse_config
from mqamlink.sweep import SweepRow, run_joint, run_multihop, run_singlehop

# (columns, coordinates that name an error row) of each sweep's CSV
COLUMN_SETS = {
    "singlehop": (cli._SINGLEHOP_COLUMNS, ("d_m",)),
    "multihop": (cli._MULTIHOP_COLUMNS, ()),
    "joint": (cli._JOINT_COLUMNS, ("pt_mw",)),
}


def finish_text(rows, name):
    """The CSV bytes `_finish` writes for `rows` under a column set."""
    columns, coordinates = COLUMN_SETS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        assert cli._finish(rows, coordinates, columns, str(out), ()) == EXIT_OK
        return out.read_bytes()


def assert_matches_oracle(rows, name):
    assert finish_text(rows, name) == oracle_csv_text(rows, COLUMN_SETS[name][0]).encode()


def test_singlehop_rows_match_oracle():
    rows = [row for policy in POLICIES
            for row in run_singlehop(parse_config("", policy=policy))]
    assert_matches_oracle(rows, "singlehop")


def test_multihop_rows_match_oracle():
    # the variable policy's rows hold no pt_mw
    rows = [row for policy in POLICIES for objective in ("energy", "delay")
            for row in run_multihop(parse_config("", policy=policy), objective=objective)]
    assert any(row.pt_mw is None for row in rows)
    assert_matches_oracle(rows, "multihop")


def test_joint_rows_match_oracle():
    rows, _ = run_joint(parse_config(""))
    assert_matches_oracle(rows, "joint")


def _nudged(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-308, 1e308,
               -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan)
# a thirteenth digit of 5, up to two ulps either side: where 12-digit
# rounding turns
BOUNDARIES = st.builds(
    lambda digits, exponent, steps: _nudged(float(f"{digits}5e{exponent}"), steps),
    st.integers(10**11, 10**12 - 1), st.integers(-335, 295), st.integers(-2, 2))
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS), BOUNDARIES,
                   BOUNDARIES.map(operator.neg))
# energy_dbmj is read from energy_j_per_bit, which is positive
ENERGIES = st.one_of(st.floats(min_value=5e-324), BOUNDARIES.filter(lambda e: e > 0))
NUMBERS = st.one_of(FLOATS, st.integers(-10**20, 10**20))
OPTIONAL = st.one_of(st.none(), NUMBERS)
ROWS = st.lists(st.builds(
    SweepRow,
    policy=st.sampled_from(POLICIES),
    b=st.integers(-2**70, 2**70),
    ber_target=NUMBERS,
    d_m=OPTIONAL,
    pt_mw=OPTIONAL,
    pt_dbm=OPTIONAL,
    pmin_dbm=OPTIONAL,
    p_link=OPTIONAL,
    route_mask=st.one_of(st.none(), st.text("01", max_size=30)),
    hops=st.one_of(st.none(), st.integers(-2**70, 2**70)),
    energy_j_per_bit=st.one_of(st.none(), ENERGIES),
    delay_s=OPTIONAL,
    is_argmin=st.booleans(),
    error=st.one_of(st.none(), st.just("no answer")),
), min_size=1, max_size=12)


@pytest.mark.parametrize("name", sorted(COLUMN_SETS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=ROWS)
def test_random_rows_match_oracle(name, rows):
    rows[0].error = None  # a CSV is written once some row is not an error row
    assert_matches_oracle(rows, name)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=st.one_of(st.none(), st.booleans(), NUMBERS, st.sampled_from(POLICIES)))
def test_fmt_matches_oracle(value):
    # the numbers the summaries and error notes print
    assert cli._fmt(value) == oracle_fmt(value)
