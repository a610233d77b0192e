"""Snapshot generation, a pair's one least-squares reduction, the snapshot CSV format."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import systems
from ._table import float_rows, read_table, write_floats, write_table
from .dictionary import Dictionary, _reduce, evaluate_batch
from .systems import DynamicalSystem, Measure, as_state


@dataclass(frozen=True)
class SnapshotPair:
    """Data matrices X, Y of shape (1, M) with y_j = T(x_j) columnwise.

    X and Y are made read-only on construction, so the one slot holding the
    pair's least-squares reduction (:func:`_reduction`) can never go stale.
    """

    X: np.ndarray
    Y: np.ndarray
    provenance: str  # "iid:seed=<s>;M=<M>" | "trajectory:x0=<...>;M=<M>"
    _r: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = self.X.shape
        if len(shape) != 2 or shape != self.Y.shape or shape[0] != 1 or shape[1] < 1:
            raise ValueError(f"X and Y must be (1, M) arrays of one shape with M >= 1, "
                             f"got {self.X.shape} and {self.Y.shape}")
        self.X.setflags(write=False)
        self.Y.setflags(write=False)

    @property
    def count(self):
        return self.X.shape[1]

    @property
    def is_trajectory(self):
        return self.provenance.startswith("trajectory")


def _reduction(pair: SnapshotPair, dic: Dictionary) -> tuple[np.ndarray, float, float]:
    """The one pass over the pair's data, psi evaluated once per block of X and Y:
    the read-only 2N x 2N R of [psi(X)^H | psi(Y)^H] (``dictionary._reduce``),
    max|psi(X)| and max|psi(Y)|.  The pair's slot keeps them for ``dic``; a refill
    computes the same values, so concurrent callers are safe."""
    if pair._r is None or pair._r[0] != dic:
        r, *peaks = _reduce(dic, pair.X, lambda cols: evaluate_batch(dic, pair.Y[:, cols]))
        r.setflags(write=False)
        object.__setattr__(pair, "_r", (dic, r, *peaks))
    return pair._r[1:]


def generate_iid(system: DynamicalSystem, measure: Measure, count: int, seed: int) -> SnapshotPair:
    """Draw iid states from ``measure`` and pair them with their images.

    Deterministic given the seed.  The images are one ``systems.apply_batch``:
    escapes are reported by one DomainEscapeWarning, and a non-finite image
    raises the map's NonFiniteError.
    """
    X = systems.sample(measure, count, seed)
    Y = systems.apply_batch(system, X)
    return SnapshotPair(X, Y, f"iid:seed={seed};M={count}")


def generate_trajectory(system: DynamicalSystem, x0, count: int) -> SnapshotPair:
    """Snapshots along a single orbit: X = (x0, Tx0, ...), Y shifted by one.

    The states are the first ``count`` steps of ``systems._orbit`` from x0, so
    each escape is reported and a non-finite state raises NonFiniteError.
    Y[:, j] equals X[:, j+1] exactly for j < count-1 because both views come
    from one computed sequence.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    x = as_state(x0)[:, None]
    orbit = islice(systems._orbit(system, x), count)
    seq = np.concatenate([x, *(image for image, _ in orbit)], axis=1)
    return SnapshotPair(seq[:, :-1].copy(), seq[:, 1:].copy(),
                        f"trajectory:x0={float(x[0, 0])!r};M={count}")


# ---------------------------------------------------------------------------
# CSV wire format: header `d,M,provenance`, its row, then one row x,y per pair

_SNAPSHOT_COLUMNS = ("d", "M", "provenance")


def write_snapshots_csv(pair: SnapshotPair, f: io.TextIOBase):
    d, m = pair.X.shape
    write_table(f, _SNAPSHOT_COLUMNS, [[d, m, pair.provenance]])
    write_floats(f, np.vstack([pair.X, pair.Y]).T)


def read_snapshots_csv(f: io.TextIOBase) -> SnapshotPair:
    meta, body = read_table(f, _SNAPSHOT_COLUMNS)
    d, m = int(meta[0]), int(meta[1])
    xy = float_rows(body, (m, 2 * d), "snapshot table").T
    return SnapshotPair(xy[:d].copy(), xy[d:].copy(), meta[2])
