"""Snapshot generation, a pair's one dictionary evaluation, the snapshot CSV format."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import systems
from ._table import float_rows, read_table, write_table
from .dictionary import Dictionary, evaluate_batch
from .systems import DynamicalSystem, Measure, as_state


@dataclass(frozen=True)
class SnapshotPair:
    """Data matrices X, Y of shape (d, M) with y_j = T(x_j) columnwise.

    X and Y are made read-only on construction, so the one slot that holds
    psi(X), psi(Y) for the last dictionary (see :func:`_observable_matrices`)
    can never go stale.
    """

    X: np.ndarray
    Y: np.ndarray
    provenance: str  # "iid:seed=<s>;M=<M>" | "trajectory:x0=<...>;M=<M>"
    _psi: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.X.setflags(write=False)
        self.Y.setflags(write=False)

    @property
    def count(self):
        return self.X.shape[1]

    @property
    def dimension(self):
        return self.X.shape[0]

    @property
    def is_trajectory(self):
        return self.provenance.startswith("trajectory")


def _observable_matrices(pair: SnapshotPair, dic: Dictionary) -> tuple[np.ndarray, np.ndarray]:
    """Read-only psi(X), psi(Y) of ``pair``, the one evaluation of its data.

    The pair's slot keeps the dictionary and both matrices, 2 N M values; it
    is filled on first use and refilled when ``dic`` differs.  Refilling
    computes the same arrays, so concurrent callers are safe.
    """
    slot = pair._psi
    if slot is None or slot[0] != dic:
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        psix.setflags(write=False)
        psiy.setflags(write=False)
        slot = (dic, psix, psiy)
        object.__setattr__(pair, "_psi", slot)
    return slot[1], slot[2]


def generate_iid(system: DynamicalSystem, measure: Measure, count: int, seed: int) -> SnapshotPair:
    """Draw iid states from ``measure`` and pair them with their images.

    Deterministic given the seed; domain escapes of the images are reported
    through DomainEscapeWarning by the batch map.
    """
    X = systems.sample(measure, count, seed)
    if X.shape[0] != system.dimension:
        raise ValueError("measure dimension does not match system dimension")
    Y = systems.apply_batch(system, X)
    return SnapshotPair(X, Y, f"iid:seed={seed};M={count}")


def generate_trajectory(system: DynamicalSystem, x0, count: int) -> SnapshotPair:
    """Snapshots along a single orbit: X = (x0, Tx0, ...), Y shifted by one.

    Y[:, j] equals X[:, j+1] exactly for j < count-1 because both views come
    from one computed sequence.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    s = as_state(x0, system.dimension)
    seq = np.empty((system.dimension, count + 1))
    seq[:, 0] = s
    for j in range(count):
        seq[:, j + 1] = systems.apply(system, seq[:, j])
    x0_label = ";".join(repr(float(v)) for v in s)
    return SnapshotPair(
        seq[:, :-1].copy(), seq[:, 1:].copy(), f"trajectory:x0={x0_label};M={count}"
    )


# ---------------------------------------------------------------------------
# CSV wire format: header `d,M,provenance`, its row, then one row x,y per pair

_SNAPSHOT_COLUMNS = ("d", "M", "provenance")


def write_snapshots_csv(pair: SnapshotPair, f: io.TextIOBase):
    d, m = pair.X.shape
    write_table(f, _SNAPSHOT_COLUMNS,
                [[d, m, pair.provenance], *np.vstack([pair.X, pair.Y]).T.tolist()])


def read_snapshots_csv(f: io.TextIOBase) -> SnapshotPair:
    meta, *body = read_table(f, _SNAPSHOT_COLUMNS)
    d, m = int(meta[0]), int(meta[1])
    xy = float_rows(body, (m, 2 * d), "snapshot table").T
    return SnapshotPair(xy[:d].copy(), xy[d:].copy(), meta[2])
