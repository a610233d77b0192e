import io
import tracemalloc
import warnings
from itertools import chain

import numpy as np
import pytest

from _oracles import per_row_lines
from edmdkit import (
    Eigenmeasure,
    KoopmanMatrix,
    SnapshotPair,
    SpectralDecomp,
    eig,
    fit_edmd,
    generate_iid,
    parse_dictionary,
    parse_measure,
    parse_system,
    read_koopman_csv,
    read_snapshots_csv,
    read_spectrum_csv,
    write_eigenmeasure_csv,
    write_koopman_csv,
    write_snapshots_csv,
    write_spectrum_csv,
)
from edmdkit._table import _ROWS, float_rows, read_table, write_table


def test_write_table_exact_bytes():
    buf = io.StringIO()
    write_table(buf, ["n", "a", "b", "c", "z_re", "z_im", "label", "empty"], [
        [3, 0.1, np.float64(-0.0), 1e-300, complex(1.5, -0.0), "legendre:8", None],
        [np.int64(-7), np.float64(2 / 3), -0.0, 1e300, np.complex128(-2.5e-310 + 1j), "x", None],
    ])
    assert buf.getvalue() == (
        "n,a,b,c,z_re,z_im,label,empty\n"
        "3,0.1,-0.0,1e-300,1.5,-0.0,legendre:8,\n"
        "-7,0.6666666666666666,-0.0,1e+300,-2.5e-310,1.0,x,\n"
    )


def test_separator_in_cell_is_rejected():
    with pytest.raises(ValueError):
        write_table(io.StringIO(), ["label"], [["a,b"]])


def _koopman():
    pair = generate_iid(parse_system("logistic"), parse_measure("uniform:-1,1"), 40, 0)
    return fit_edmd(pair, parse_dictionary("legendre:2"))


def _snapshots():
    return generate_iid(parse_system("logistic"), parse_measure("uniform:-1,1"), 4, 1)


# the extremes of float64 spelling: signed zero, the least subnormal, and
# exponents far from 1 in both directions
EXTREMES = [-0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324, 0.1, 2 / 3]


def _extreme(shape, seed):
    """Normal deviates with EXTREMES in every fifth cell, so in every block."""
    values = np.random.default_rng(seed).standard_normal(shape)
    cells = values.reshape(-1)
    cells[::5] = np.resize(EXTREMES, cells[::5].shape)
    return values


def _long_snapshots(m=2 * _ROWS + 1):
    return SnapshotPair(*np.split(_extreme((2, m), m), 2), f"iid:seed=0;M={m}")


def _long_spectrum(count=2 * _ROWS + 1):
    return SpectralDecomp(_extreme((count, 2), count).view(complex)[:, 0], np.eye(1),
                          np.abs(_extreme(count, count + 1)))


def _spectrum():
    # a spectrum carries no row count, so the missing-row case drops its only row
    k = KoopmanMatrix(np.array([[0.5 - 0.25j]]), parse_dictionary("legendre:0"),
                      "analytic:order=1", 1.0, 1.0)
    return eig(k)


# writer, reader, object to write, bytes that identify what was read
READERS = {
    "koopman": (write_koopman_csv, read_koopman_csv, _koopman,
                lambda k: k.A.tobytes() + k.provenance.encode()),
    "snapshots": (write_snapshots_csv, read_snapshots_csv, _snapshots,
                  lambda p: p.X.tobytes() + p.Y.tobytes() + p.provenance.encode()),
    "spectrum": (write_spectrum_csv, read_spectrum_csv, _spectrum, lambda v: v.tobytes()),
    # two full row blocks and one row of a third
    "snapshots-8193": (write_snapshots_csv, read_snapshots_csv, _long_snapshots,
                       lambda p: p.X.tobytes() + p.Y.tobytes() + p.provenance.encode()),
}


def _read(name, edit=lambda lines: lines):
    """Write the reader's sample object, edit the lines, read them back."""
    writer, reader, make, key = READERS[name]
    buf = io.StringIO()
    writer(make(), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    return key(reader(io.StringIO("".join(edit(lines)))))


@pytest.mark.parametrize("name", READERS)
def test_reader_skips_comments_and_blank_lines_anywhere(name):
    def sprinkle(lines):
        out = ["# edmdkit=0.1.0 mode=test\n", "\n"]
        for line in lines:
            out += [line, "  # note\n", "\n"]
        return out

    assert _read(name, sprinkle) == _read(name)


def _last_cell_is(cell):
    return lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0] + f",{cell}\n"]


@pytest.mark.parametrize("edit", [
    lambda lines: ["wrong,header\n", *lines[1:]],
    lambda lines: [*lines[:-1], lines[-1].rstrip("\n") + ",0.5\n"],
    lambda lines: lines[:-1],
    lambda lines: lines[:1],
    # float() takes the first two spellings; a body cell is a float as loadtxt
    # spells it, and a comment fills a whole line
    *(_last_cell_is(cell) for cell in ["1_0", "\u0661", "0.25 # note"]),
], ids=["wrong-header", "wrong-field-count", "missing-row", "header-only",
        "digit-separator", "arabic-indic-digit", "trailing-comment"])
@pytest.mark.parametrize("name", READERS)
def test_reader_rejects_malformed_tables(name, edit):
    with pytest.raises(ValueError):
        _read(name, edit)


@pytest.mark.parametrize("column, cell", [
    ("dictionary", "legendre:x"), ("dictionary", "chebyshev:3"),
    # the size of legendre:4, on the box of the table's domain label
    ("dictionary", "fourier:2"),
    ("domain", "box:-1.0;1.0;0.0;2.0"), ("domain", "box:-1.0"), ("domain", "box:1.0;-1.0"),
    ("domain", "box:a;b"), ("domain", "sphere"),
])
def test_koopman_reader_rejects_malformed_metadata(column, cell):
    pair = generate_iid(parse_system("logistic"), parse_measure("uniform:-1,1"), 40, 0)
    header, meta, *body = _written(write_koopman_csv, fit_edmd(
        pair, parse_dictionary("legendre:4"))).splitlines(keepends=True)
    cells = meta.rstrip("\n").split(",")
    cells[header.rstrip("\n").split(",").index(column)] = cell
    with pytest.raises(ValueError, match="koopman table"):
        read_koopman_csv(io.StringIO("".join([header, ",".join(cells) + "\n", *body])))


@pytest.mark.parametrize("name, metadata_only", [
    ("snapshots", lambda lines: ["d,M,provenance\n", "1,3,iid:seed=0;M=3\n"]),
    ("koopman", lambda lines: lines[:2]),
])
def test_empty_body_is_a_value_error_without_warning(name, metadata_only):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            _read(name, metadata_only)
    assert not caught, [str(w.message) for w in caught]


def test_snapshot_inf_and_nan_round_trip():
    pair = SnapshotPair(np.array([[np.inf, -np.inf, np.nan]]),
                        np.array([[np.nan, np.inf, -np.inf]]), "iid:seed=0;M=3")
    back = read_snapshots_csv(io.StringIO(_written(write_snapshots_csv, pair)))
    assert back.X.tobytes() == pair.X.tobytes() and back.Y.tobytes() == pair.Y.tobytes()


def _written(writer, obj):
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def _pairs(z):
    """Rows of complex values as rows of their re, im floats."""
    return [[c for v in row for c in (v.real, v.imag)] for row in z.tolist()]


@pytest.mark.parametrize("m", [_ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS + 1])
def test_snapshot_blocks_match_per_row_writer(m):
    pair = _long_snapshots(m)
    text = _written(write_snapshots_csv, pair)
    assert text == (f"d,M,provenance\n1,{m},{pair.provenance}\n"
                    + per_row_lines(np.vstack([pair.X, pair.Y]).T.tolist()))
    back = read_snapshots_csv(io.StringIO(text))
    assert back.X.tobytes() == pair.X.tobytes() and back.Y.tobytes() == pair.Y.tobytes()


@pytest.mark.parametrize("imag", [True, False], ids=["complex", "real"])
def test_koopman_body_matches_per_row_writer(imag):
    a = _extreme((9, 18), 9).view(complex)
    k = KoopmanMatrix(a if imag else a.real, parse_dictionary("legendre:8"),
                      "analytic:order=1", 1e300, 5e-324)
    text = _written(write_koopman_csv, k)
    assert text.split("\n", 2)[2] == per_row_lines(_pairs(np.asarray(k.A, dtype=complex)))
    back = read_koopman_csv(io.StringIO(text))
    assert back.A.dtype == k.A.dtype and back.A.tobytes() == k.A.tobytes()
    assert (back.sigma_max, back.sigma_min) == (1e300, 5e-324)


def test_spectrum_blocks_match_per_row_writer():
    decomp = _long_spectrum(_ROWS + 1)
    text = _written(write_spectrum_csv, decomp)
    rows = [[v.real, v.imag, r] for v, r in zip(decomp.eigenvalues.tolist(),
                                                 decomp.residuals.tolist())]
    assert text == "re,im,residual\n" + per_row_lines(rows)
    assert read_spectrum_csv(io.StringIO(text)).tobytes() == decomp.eigenvalues.tobytes()


def test_eigenmeasure_blocks_match_per_row_writer():
    count = _ROWS + 1
    nu = Eigenmeasure(_extreme((1, count), 2), _extreme((count, 2), 3).view(complex)[:, 0],
                      0.5 + 0j, 0j)
    text = _written(write_eigenmeasure_csv, nu)
    columns = ["x_1", "re_weight", "im_weight"]
    rows = [[*x, w.real, w.imag] for x, w in zip(nu.atoms.T.tolist(), nu.weights.tolist())]
    assert text == ",".join(columns) + "\n" + per_row_lines(rows)
    # the library reads no eigenmeasure table; the table helpers still give its bits
    first, rest = read_table(io.StringIO(text), columns)
    back = float_rows(chain([",".join(first)], rest), (None, 3), "nu")
    assert back[:, :1].T.tobytes() == nu.atoms.tobytes()
    assert np.ascontiguousarray(back[:, 1:]).view(complex)[:, 0].tobytes() == nu.weights.tobytes()


def _short_then_long(body):
    short, long = body[5000].rsplit(",", 1)[0] + "\n", body[5001].rstrip("\n") + ",0.5\n"
    return [*body[:5000], short, long, *body[5002:]]


BODY_EDITS = {
    "extra-field-row-5000": lambda body: [*body[:5000], body[5000].rstrip("\n") + ",0.5\n",
                                          *body[5001:]],
    # the same cell count as the intact pair of rows: widths are checked per row
    "short-then-long-row": _short_then_long,
    "missing-last-row": lambda body: body[:-1],
    "extra-row": lambda body: [*body, body[-1]],
}

# writer, reader, a table of more than one row block, lines before its body
LONG_TABLES = {
    "snapshots-8193": (write_snapshots_csv, read_snapshots_csv, _long_snapshots, 2),
    "spectrum-8193": (write_spectrum_csv, read_spectrum_csv, _long_spectrum, 1),
}


@pytest.mark.parametrize("name, edit", [
    *(("snapshots-8193", edit) for edit in BODY_EDITS),
    # a spectrum carries no row count, so only its field counts can be wrong
    ("spectrum-8193", "extra-field-row-5000"),
    ("spectrum-8193", "short-then-long-row"),
])
def test_reader_rejects_defects_past_the_first_block(name, edit):
    writer, reader, make, head = LONG_TABLES[name]
    lines = _written(writer, make()).splitlines(keepends=True)
    with pytest.raises(ValueError):
        reader(io.StringIO("".join([*lines[:head], *BODY_EDITS[edit](lines[head:])])))


def test_row_count_beyond_memory_is_a_value_error():
    text = "d,M,provenance\n1,1000000000000000,iid:seed=0;M=1\n0.5,0.25\n"
    with pytest.raises(ValueError):
        read_snapshots_csv(io.StringIO(text))


def test_snapshot_round_trip_memory_is_bounded(tmp_path):
    # 100,000 pairs held as one list of strings per row peak at 14 MB to write
    # and 40 MB to read; a row block at a time holds about 2 and 3 MB
    pair = generate_iid(parse_system("logistic"), parse_measure("uniform:-1,1"), 100_000, 1)
    path = tmp_path / "snapshots.csv"
    peaks = []
    for mode, call in [("w", lambda f: write_snapshots_csv(pair, f)), ("r", read_snapshots_csv)]:
        with open(path, mode, encoding="utf-8") as f:
            tracemalloc.start()
            try:
                call(f)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) <= 6e6, peaks
