"""Spectral analysis of Koopman matrices and single-trajectory eigenmeasures.

Eigenvector convention
----------------------
Eigenfunctions come from *left* eigenvectors: w^H A = lambda w^H makes
phi = w^H psi satisfy  K phi = lambda phi  under the row-action convention of
:mod:`edmdkit.edmd`.  The reported spectrum is sigma(A).  The coefficient
update map c -> A^H c has spectrum conj(sigma(A)); the two coincide for real
A, and for complex A the eigenvalue attached to each eigenfunction is the
sigma(A) value.  This is spelled out here because conjugation slips are the
standard failure mode when mixing the two conventions.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import systems
from ._table import float_rows, read_table, write_floats, write_table
from .dictionary import derivative_batch, evaluate_batch
from .edmd import KoopmanMatrix
from .errors import EigensolverError, check_rank
from .data import SnapshotPair
from .systems import DynamicalSystem, QuadratureRule


_TIE = 1e-12  # relative gap in |lambda| below which eig orders by argument


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues (descending magnitude, ties within 1e-12 max|lambda| by
    ascending argument), the matrix of left eigenvectors (column j satisfies
    w_j^H A = lambda_j w_j^H), and the per-pair residuals
    ||A^H w_j - conj(lambda_j) w_j||_2."""

    eigenvalues: np.ndarray
    eigen_coeffs: np.ndarray
    residuals: np.ndarray

    @property
    def size(self):
        return self.eigenvalues.shape[0]


def eig(k: KoopmanMatrix) -> SpectralDecomp:
    """Full left eigendecomposition of a Koopman matrix.

    Left pairs of A are right pairs of A^H with conjugated eigenvalues, which
    is how they are computed.  Each eigenvector is normalized to unit length
    and its phase fixed so the largest-magnitude entry (first, on ties) is
    real positive, making repeated calls bit-identical.  A real A (every fit
    of a real dictionary) takes LAPACK's real solver: real eigenvalues come
    out with imaginary part exactly 0, complex ones in exact conjugate pairs.
    Eigenvalues and eigenvectors are complex128 for every A.
    """
    a = k.A
    try:
        conj_vals, w = np.linalg.eig(a.conj().T)
    except np.linalg.LinAlgError as exc:
        s = np.linalg.svd(a, compute_uv=False)
        cond = np.inf if s[-1] == 0 else float(s[0] / s[-1])
        raise EigensolverError("eigendecomposition did not converge", cond) from exc
    # complex even when numpy returns an all-real spectrum as real arrays; + 0j turns
    # the -0.0 conj gives a real eigenvalue's imaginary part into +0.0 (argument 0 or pi)
    lam, w = np.conj(conj_vals) + 0j, w.astype(complex)
    # normalize and phase-fix
    w = w / np.linalg.norm(w, axis=0, keepdims=True)
    pivot = np.argmax(np.abs(w), axis=0)
    phase = w[pivot, np.arange(w.shape[1])]
    w = w * (np.abs(phase) / phase)
    # magnitude-descending order; magnitudes within _TIE * max|lambda| of the
    # next larger one tie, and ties go by ascending argument, so roundoff in
    # |lambda| cannot reorder eigenvalues of one modulus
    by_mag = np.argsort(-np.abs(lam), kind="stable")
    mag = np.abs(lam[by_mag])
    tier = np.cumsum(np.concatenate(([0], mag[:-1] - mag[1:] > _TIE * mag[:1])))
    order = by_mag[np.lexsort((np.angle(lam[by_mag]), tier))]
    lam = lam[order]
    w = w[:, order]
    res = np.linalg.norm(a.conj().T @ w - w * np.conj(lam), axis=0)
    return SpectralDecomp(lam, w, res)


def hausdorff(spectrum_a, spectrum_b) -> float:
    """Hausdorff distance between two finite sets of complex numbers."""
    a = np.asarray(spectrum_a, dtype=complex).reshape(-1)
    b = np.asarray(spectrum_b, dtype=complex).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise ValueError("hausdorff distance requires nonempty sets")
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def eigenfunction_values(decomp: SpectralDecomp, j: int, dic, points) -> np.ndarray:
    """phi_j = w_j^H psi evaluated at each column of ``points``."""
    if not 0 <= j < decomp.size:
        raise IndexError(f"eigenpair index {j} out of range for size {decomp.size}")
    w = decomp.eigen_coeffs[:, j]
    return w.conj() @ evaluate_batch(dic, points)


def oscillation_seminorm(decomp: SpectralDecomp, j: int, dic, rule: QuadratureRule) -> float:
    """Quadrature value of the gradient energy of the normalized eigenfunction.

    Computes the integral of ||grad phi_j||^2 after scaling phi_j to unit L2
    norm in the same rule.  Highly oscillatory eigenfunctions score large;
    eigenvalues carried only by such eigenfunctions certify nothing about the
    true spectrum, so this is the practical spuriousness diagnostic.
    """
    phi = eigenfunction_values(decomp, j, dic, rule.nodes)
    w = decomp.eigen_coeffs[:, j]
    grads = np.einsum("n,ndm->dm", w.conj(), derivative_batch(dic, rule.nodes))
    energy = float(np.sum(rule.weights * np.sum(np.abs(grads) ** 2, axis=0)))
    norm_sq = float(np.sum(rule.weights * np.abs(phi) ** 2))
    if norm_sq == 0.0:
        raise ValueError("eigenfunction vanishes on the quadrature nodes")
    return energy / norm_sq


@dataclass(frozen=True)
class Eigenmeasure:
    """Atomic complex measure nu = phi d(empirical measure) from the M = N
    regime: atom weights are phi(x_i)/N with phi sup-normalized over the
    trajectory points.  ``tail_value`` is phi(T x_N), the one off-sample value
    the trajectory-shift identities need."""

    atoms: np.ndarray      # (1, N)
    weights: np.ndarray    # (N,) complex
    eigenvalue: complex
    tail_value: complex

    def __post_init__(self):
        if self.atoms.shape != (1, self.count):
            raise ValueError(f"atoms must be (1, {self.count}), got {self.atoms.shape}")

    @property
    def count(self):
        return self.weights.shape[0]


def eigenmeasure_extract(
    k: KoopmanMatrix, decomp: SpectralDecomp, j: int, snapshots: SnapshotPair
) -> Eigenmeasure:
    """Atomic eigenmeasure of eigenpair j on single-trajectory data with M = N.

    Requires trajectory provenance and a numerically invertible psi(X) (the
    exact-interpolation regime, judged on the fit's sigma); the sup-norm
    normalization of the paper is approximated by the max over the trajectory
    atoms, the only points where the downstream identities are evaluated.
    phi is evaluated here on the N atoms and the tail point T x_N.
    """
    if not snapshots.is_trajectory:
        raise ValueError("eigenmeasure extraction requires trajectory snapshots")
    n = k.size
    if snapshots.count != n:
        raise ValueError(
            f"eigenmeasure extraction requires M = N, got M={snapshots.count}, N={n}"
        )
    check_rank("psi(X) in the M = N regime", k.sigma_min, k.sigma_max, n, n)
    # phi at the atoms, then at T x_N, the last Y column: no re-application of the map
    phi = eigenfunction_values(decomp, j, k.dictionary,
                               np.hstack([snapshots.X, snapshots.Y[:, -1:]]))
    sup = float(np.max(np.abs(phi[:-1])))
    if sup == 0.0:
        raise ValueError("eigenfunction vanishes at every trajectory atom")
    return Eigenmeasure(
        atoms=snapshots.X.copy(),
        weights=(phi[:-1] / sup) / n,
        eigenvalue=complex(decomp.eigenvalues[j]),
        tail_value=complex(phi[-1] / sup),
    )


@dataclass(frozen=True)
class PFResidual:
    """Residuals of the trajectory-shift identity (r1) and the finite-N
    Perron-Frobenius defect (r2, None when skipped) for one test function."""

    r1: float
    r2: float | None


_ZERO_EIGENVALUE = 1e-12


def pf_check(nu: Eigenmeasure, system: DynamicalSystem, test_fns) -> list[PFResidual]:
    """Check the sample-identity and Perron-Frobenius defect against test functions.

    Each ``h`` in ``test_fns`` is a callable on a (1, M) point array returning
    M values.  Per function this reports

    * r1 = |(1/N) sum h(x_i) phi(x_{i+1}) - lambda (1/N) sum h(x_i) phi(x_i)|,
      an exact identity at finite N under exact interpolation, and
    * r2 = |integral of h o T dnu - (1/lambda) integral of h dnu|, the
      finite-N defect of the limiting Perron-Frobenius relation, whose size is
      the O(1/N) trajectory boundary term.

    r2 is skipped (None) when |lambda| is numerically zero, where the
    limiting relation is not defined.
    """
    n = nu.count
    lam = nu.eigenvalue
    phi = nu.weights * n
    phi_next = np.concatenate([phi[1:], [nu.tail_value]])
    t_atoms = systems.apply_batch(system, nu.atoms)
    out = []
    for h in test_fns:
        hx = np.asarray(h(nu.atoms)).reshape(-1)
        r1 = abs(np.mean(hx * phi_next) - lam * np.mean(hx * phi))
        if abs(lam) <= _ZERO_EIGENVALUE:
            out.append(PFResidual(float(r1), None))
            continue
        htx = np.asarray(h(t_atoms)).reshape(-1)
        r2 = abs(np.mean(htx * phi) - np.mean(hx * phi) / lam)
        out.append(PFResidual(float(r1), float(r2)))
    return out


# ---------------------------------------------------------------------------
# CSV wire formats


_SPECTRUM_COLUMNS = ("re", "im", "residual")


def write_spectrum_csv(decomp: SpectralDecomp, f: io.TextIOBase):
    eigenvalues = np.asarray(decomp.eigenvalues, dtype=complex)
    write_table(f, _SPECTRUM_COLUMNS, [])
    write_floats(f, np.column_stack([eigenvalues.real, eigenvalues.imag, decomp.residuals]))


def read_spectrum_csv(f: io.TextIOBase) -> np.ndarray:
    first, rest = read_table(f, _SPECTRUM_COLUMNS)
    rows = float_rows(chain([",".join(first)], rest), (None, 3), "spectrum table")
    re_im = rows[:, :2]
    # viewing re,im pairs as complex keeps every bit, signed zeros included
    return np.ascontiguousarray(re_im).view(complex)[:, 0]


def write_eigenmeasure_csv(nu: Eigenmeasure, f: io.TextIOBase):
    weights = np.asarray(nu.weights, dtype=complex)
    write_table(f, ("x_1", "re_weight", "im_weight"), [])
    write_floats(f, np.column_stack([nu.atoms[0], weights.real, weights.imag]))
