"""The one CSV table format shared by every edmdkit file.

A table is a header line of comma-separated column names followed by one line
per row.  Floats are written as their shortest round-trip repr, so reading a
table back gives the same bits; a complex value fills two cells, ``re,im``;
``None`` is an empty cell.  Readers skip ``#`` comment lines and blank lines
anywhere in the file, which is where the CLI puts its configuration header.

Numeric bodies (snapshots, Koopman matrices, spectra, eigenmeasures) are float
arrays written by :func:`write_floats` and read by :func:`float_blocks`, both
``_ROWS`` rows at a time, so a table is never held as one Python string per
cell: besides the array itself, reading or writing holds one block of text
and cells, a few hundred kB for the two-column snapshot table.
"""

from __future__ import annotations

from itertools import islice, repeat

import numpy as np

_ROWS = 4096  # rows of a numeric body formatted or parsed at once


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
    the remaining stripped lines, for :func:`float_rows` or
    :func:`float_blocks`.  The header names the fields of the first row; the
    Koopman and snapshot tables follow that row with body rows of their own
    width.  Raises ValueError on a wrong header, on a table without rows and on
    a first row of the wrong width.
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


def float_blocks(lines, width, what):
    """Parse lines of ``width`` cells into float arrays of up to ``_ROWS`` rows.

    Raises ValueError on a row of the wrong field count and on a cell that is
    not a float.
    """
    done = 0
    while block := list(islice(lines, _ROWS)):
        if set(map(str.count, block, repeat(","))) != {width - 1}:
            i = next(i for i, s in enumerate(block) if s.count(",") != width - 1)
            raise ValueError(f"{what} row {done + i} has {block[i].count(',') + 1} fields, "
                             f"expected {width}")
        yield np.array(",".join(block).split(","), dtype=float).reshape(-1, width)
        done += len(block)


def float_rows(lines, shape, what) -> np.ndarray:
    """Parse lines into a float array of exactly ``shape``, a block at a time.

    Raises ValueError on a missing or extra row and on a wrong field count.
    """
    count, width = shape
    try:
        out = np.empty(shape)
    except MemoryError as exc:  # a row count no body could back
        raise ValueError(f"{what} claims {count} rows, more than memory holds") from exc
    done = 0
    for block in float_blocks(lines, width, what):
        if done + len(block) > count:
            raise ValueError(f"{what} has more than {count} rows")
        out[done:done + len(block)] = block
        done += len(block)
    if done != count:
        raise ValueError(f"{what} has {done} rows, expected {count}")
    return out
