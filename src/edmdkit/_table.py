"""The one CSV table format shared by every edmdkit file.

A table is a header line of comma-separated column names followed by one line
per row.  Floats are written as their shortest round-trip repr, so reading a
table back gives the same bits; a complex value fills two cells, ``re,im``;
``None`` is an empty cell.  Readers skip ``#`` comment lines and blank lines
anywhere in the file, which is where the CLI puts its configuration header.

Numeric bodies (snapshots, Koopman matrices, spectra, eigenmeasures) are float
arrays.  :func:`write_floats` writes them ``_ROWS`` rows at a time and
:func:`float_rows` reads them with numpy's streaming C ``loadtxt``, so a table
is never held as one Python string per cell.  A body cell is one float in the
spelling ``loadtxt`` converts: decimal or exponent notation in ASCII digits,
``inf``, ``-inf`` or ``nan``; no digit separators ``_``, no other digits and
no trailing comment.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

_ROWS = 4096  # rows of a numeric body formatted at once


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


def write_floats(f, array):
    """Write the rows of a 2-D float array, one line each, ``_ROWS`` at a time.

    ``%r`` of a Python float is ``float.__repr__``, so the cells are the same
    shortest round-trip reprs :func:`write_table` writes.
    """
    array = np.asarray(array, dtype=float)
    line = ",".join(["%r"] * array.shape[1]) + "\n"
    for start in range(0, array.shape[0], _ROWS):
        block = array[start:start + _ROWS]
        f.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def read_table(f, columns):
    """Check the header against ``columns``; return the first row and the rest.

    The first row comes back as string cells; the rest is a lazy iterator over
    the remaining stripped lines, for :func:`float_rows`.  The header names the
    fields of the first row; the Koopman and snapshot tables follow that row
    with body rows of their own width.  Raises ValueError on a wrong header,
    on a table without rows and on a first row of the wrong width.
    """
    lines = (s for s in map(str.strip, f) if s and not s.startswith("#"))
    header = next(lines, "")
    if header != ",".join(columns):
        raise ValueError(f"unexpected header {header!r}, expected {','.join(columns)!r}")
    first = next(lines, None)
    if first is None:
        raise ValueError(f"table {header!r} has no rows")
    first = first.split(",")
    if len(first) != len(columns):
        raise ValueError(f"first row has {len(first)} fields, expected {len(columns)}")
    return first, lines


def float_rows(lines, shape, what) -> np.ndarray:
    """Parse lines of float cells into an array of ``shape``.

    A ``None`` row count in ``shape`` takes every row there is.  Raises
    ValueError on a wrong row or field count and on a cell that is not a float.
    """
    count, width = shape
    # an empty body never reaches loadtxt, which warns on input without data
    first = next(lines, None)
    try:
        out = (np.empty((0, width)) if first is None else
               np.loadtxt(chain([first], lines), delimiter=",", comments=None, ndmin=2))
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None
    expected = (len(out) if count is None else count, width)
    if out.shape != expected:
        raise ValueError(f"{what} has shape {out.shape}, expected {expected}")
    return out
