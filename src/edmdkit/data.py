"""Snapshot generation and empirical least-squares projection."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import systems
from ._table import float_rows, read_table, write_table
from .dictionary import Dictionary, evaluate_batch
from .errors import RankDeficiencyError
from .systems import DynamicalSystem, Measure, as_points, as_state


@dataclass(frozen=True)
class SnapshotPair:
    """Data matrices X, Y of shape (d, M) with y_j = T(x_j) columnwise."""

    X: np.ndarray
    Y: np.ndarray
    provenance: str  # "iid:seed=<s>;M=<M>" | "trajectory:x0=<...>;M=<M>"

    @property
    def count(self):
        return self.X.shape[1]

    @property
    def dimension(self):
        return self.X.shape[0]

    @property
    def is_trajectory(self):
        return self.provenance.startswith("trajectory")


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


def empirical_project(dic: Dictionary, points, f_values, weights=None) -> np.ndarray:
    """Coefficients c of the weighted least-squares fit c^H psi ~ f.

    With the default uniform weights 1/M this is the projection in the
    empirical measure on the points; passing quadrature weights gives the
    projection in the quadrature-realized measure.  The residual is orthogonal
    to every dictionary element under the same weights.

    The Gram matrix (sum_k w_k psi(x_k) psi(x_k)^H) is inverted through its
    symmetric eigendecomposition with relative cutoff
    max(N, M) * eps * lambda_max; any eigenvalue at or below the cutoff raises
    RankDeficiencyError instead of silently pseudo-inverting.
    """
    pts = as_points(points)
    f = np.asarray(f_values)
    m = pts.shape[1]
    if f.shape != (m,):
        raise ValueError(f"f_values must have shape ({m},), got {f.shape}")
    if weights is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (m,):
            raise ValueError("weights length mismatch")
    psi = evaluate_batch(dic, pts)
    n = psi.shape[0]
    g = (psi * w) @ psi.conj().T
    g = 0.5 * (g + g.conj().T)
    b = (psi * w) @ np.conj(f)
    lam, v = np.linalg.eigh(g)
    cutoff = max(n, m) * np.finfo(float).eps * lam[-1]
    if lam[0] <= cutoff:
        cond = np.inf if lam[0] <= 0 else lam[-1] / lam[0]
        raise RankDeficiencyError("empirical Gram matrix", cond, cutoff)
    return v @ ((v.conj().T @ b) / lam)


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
