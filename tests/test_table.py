import io

import numpy as np
import pytest

from edmdkit import (
    KoopmanMatrix,
    eig,
    fit_edmd,
    generate_iid,
    parse_dictionary,
    parse_measure,
    parse_system,
    read_koopman_csv,
    read_snapshots_csv,
    read_spectrum_csv,
    write_koopman_csv,
    write_snapshots_csv,
    write_spectrum_csv,
)
from edmdkit._table import write_table


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


@pytest.mark.parametrize("edit", [
    lambda lines: ["wrong,header\n", *lines[1:]],
    lambda lines: [*lines[:-1], lines[-1].rstrip("\n") + ",0.5\n"],
    lambda lines: lines[:-1],
], ids=["wrong-header", "wrong-field-count", "missing-row"])
@pytest.mark.parametrize("name", READERS)
def test_reader_rejects_malformed_tables(name, edit):
    with pytest.raises(ValueError):
        _read(name, edit)
