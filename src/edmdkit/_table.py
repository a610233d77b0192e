"""The one CSV table format shared by every edmdkit file.

A table is a header line of comma-separated column names followed by one line
per row.  Floats are written as their shortest round-trip repr, so reading a
table back gives the same bits; a complex value fills two cells, ``re,im``;
``None`` is an empty cell.  Readers skip ``#`` comment lines and blank lines
anywhere in the file, which is where the CLI puts its configuration header.
"""

from __future__ import annotations

import numpy as np


def _cell(value) -> str:
    # float.__repr__ rather than repr: numpy >= 2 reprs np.float64 as 'np.float64(x)'
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, complex):
        return f"{float.__repr__(value.real)},{float.__repr__(value.imag)}"
    if value is None:
        return ""
    text = str(value)
    if "," in text or "\n" in text:
        raise ValueError(f"table cell {text!r} contains a separator")
    return text


def write_table(f, columns, rows):
    """Write the header line and one line per row of values."""
    f.write(",".join(columns) + "\n")
    for row in rows:
        f.write(",".join(map(_cell, row)) + "\n")


def read_table(f, columns) -> list[list[str]]:
    """Check the header against ``columns`` and return the rows as string cells.

    The header names the fields of the first row; the Koopman and snapshot
    tables follow that row with body rows of their own width, which their
    readers check through :func:`float_rows`.  Raises ValueError on a wrong
    header, on a table without rows and on a first row of the wrong width.
    """
    lines = [s for s in map(str.strip, f) if s and not s.startswith("#")]
    header = lines[0] if lines else ""
    if header != ",".join(columns):
        raise ValueError(f"unexpected header {header!r}, expected {','.join(columns)!r}")
    if len(lines) == 1:
        raise ValueError(f"table {header!r} has no rows")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows[0]) != len(columns):
        raise ValueError(f"first row has {len(rows[0])} fields, expected {len(columns)}")
    return rows


def float_rows(rows, shape, what) -> np.ndarray:
    """Parse rows of cells into a float array of exactly ``shape``.

    Raises ValueError on a missing or extra row and on a wrong field count.
    """
    count, width = shape
    if len(rows) != count:
        raise ValueError(f"{what} has {len(rows)} rows, expected {count}")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{what} row {i} has {len(row)} fields, expected {width}")
    return np.array(rows, dtype=float).reshape(shape)
