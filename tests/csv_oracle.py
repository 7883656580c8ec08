"""Per-cell CSV writing: the test oracle for `cli._finish`'s CSV text.

Formats each cell on its own through an `isinstance` chain and hands the
rows to `csv.writer`, which quotes any cell that needs it. `cli` reads a
row's cells at once and formats them with one printf template per tuple
of cell types; both must give the same bytes for every row.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from mqamlink.cli import _COLUMN_FIELDS
from mqamlink.sweep import SweepRow


def oracle_fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def oracle_csv_text(rows: list[SweepRow], columns: Sequence[str]) -> str:
    handle = io.StringIO()
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([oracle_fmt(getattr(row, _COLUMN_FIELDS.get(name, name)))
                      for name in columns] for row in rows)
    return handle.getvalue()
