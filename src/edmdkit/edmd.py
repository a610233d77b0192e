"""Sampled EDMD: least-squares Koopman matrices from snapshot pairs.

Coefficient convention
----------------------
A function in the dictionary span is written phi = c^H psi with coefficient
vector c.  The fitted matrix A acts on *functions* through its rows,

    (K phi) = c^H A psi,

so the induced map on coefficient vectors is  c  ->  A^H c  (note the
Hermitian transpose).  Getting this transposition wrong is the classic bug in
EDMD implementations; every operation in this package fixes the convention
through :func:`apply_operator` and the left-eigenvector choice in
:mod:`edmdkit.spectral`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from ._table import float_rows, read_table, write_table
from .data import SnapshotPair
from .dictionary import Dictionary, evaluate_batch, parse_dictionary
from .errors import RankDeficiencyError
from .systems import Domain, box, circle

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class KoopmanMatrix:
    """N x N Koopman matrix with provenance and conditioning diagnostics.

    ``sigma_max``/``sigma_min`` are the extreme singular values of the object
    whose (pseudo)inversion produced A: the observable matrix psi(X) for
    sampled fits, the Gram matrix for analytic fits.
    """

    A: np.ndarray
    dictionary: Dictionary
    provenance: str  # "sampled:M=<M>;seed=<s>" | "analytic:order=<n>" | ...
    sigma_max: float
    sigma_min: float

    @property
    def size(self):
        return self.A.shape[0]

    @property
    def condition(self):
        if self.sigma_min == 0.0:
            return np.inf
        return self.sigma_max / self.sigma_min


def fit_edmd(snapshots: SnapshotPair, dic: Dictionary, tikhonov: float = 0.0) -> KoopmanMatrix:
    """Least-squares fit A = psi(Y) pinv(psi(X)).

    The Moore-Penrose pseudoinverse is taken through an SVD with relative
    cutoff max(N, M) * eps, so A is always defined and is a minimizer of
    ||A psi(X) - psi(Y)||_F even for rank-deficient data; near-rank-deficiency
    is recorded in the diagnostics rather than raised.  ``tikhonov`` > 0
    switches to the regularized normal equations for ill-conditioned user
    data; the default 0 keeps the exact pseudoinverse solution.
    """
    psix = evaluate_batch(dic, snapshots.X)
    psiy = evaluate_batch(dic, snapshots.Y)
    n, m = psix.shape
    u, s, vh = np.linalg.svd(psix, full_matrices=False)
    sig_max = float(s[0]) if s.size else 0.0
    sig_min = float(s[-1]) if s.size else 0.0
    if tikhonov > 0.0:
        g = psix @ psix.conj().T + tikhonov * np.eye(n)
        a = np.linalg.solve(g.conj().T, (psiy @ psix.conj().T).conj().T).conj().T
    else:
        cutoff = max(n, m) * _EPS * sig_max
        keep = s > cutoff
        a = (psiy @ vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
    prov_tail = snapshots.provenance.split(":", 1)[1]
    kind = "sampled" if not snapshots.is_trajectory else "sampled-trajectory"
    return KoopmanMatrix(
        A=np.ascontiguousarray(a, dtype=complex),
        dictionary=dic,
        provenance=f"{kind}:{prov_tail}",
        sigma_max=sig_max,
        sigma_min=sig_min,
    )


def apply_operator(k: KoopmanMatrix, c_phi) -> np.ndarray:
    """Coefficient vector of K phi for phi = c^H psi; returns A^H c."""
    c = np.asarray(c_phi)
    if c.shape != (k.size,):
        raise ValueError(f"coefficient vector must have shape ({k.size},), got {c.shape}")
    return k.A.conj().T @ c


def theorem1_residual(k: KoopmanMatrix, snapshots: SnapshotPair, dic: Dictionary) -> float:
    """Empirical orthogonality defect of the fitted operator.

    Returns max_{i,j} |(1/M) sum_k (psi_i(y_k) - (A psi(x_k))_i) conj(psi_j(x_k))|,
    which is zero exactly when K psi_i is the empirical projection of
    psi_i o T for every basis element.  Raises RankDeficiencyError when the
    empirical Gram is numerically singular, in which case the projection
    characterization does not pin down a unique minimizer.
    """
    psix = evaluate_batch(dic, snapshots.X)
    psiy = evaluate_batch(dic, snapshots.Y)
    n, m = psix.shape
    s = np.linalg.svd(psix, compute_uv=False)
    cutoff = max(n, m) * _EPS * s[0]
    if s[-1] <= cutoff:
        cond = np.inf if s[-1] == 0 else (s[0] / s[-1]) ** 2
        raise RankDeficiencyError("empirical Gram matrix", cond, cutoff**2)
    r = psiy - k.A @ psix
    d = (r * (1.0 / m)) @ psix.conj().T
    return float(np.max(np.abs(d)))


def residual_scale(snapshots: SnapshotPair, dic: Dictionary) -> float:
    """Natural magnitude of theorem1_residual terms: max|psi(Y)| * max|psi(X)|,
    floored at one."""
    psix = evaluate_batch(dic, snapshots.X)
    psiy = evaluate_batch(dic, snapshots.Y)
    return max(1.0, float(np.max(np.abs(psiy)) * np.max(np.abs(psix))))


# ---------------------------------------------------------------------------
# CSV wire format


def _domain_label(dom: Domain) -> str:
    if dom.kind == "circle":
        return "circle"
    return "box:" + ";".join(repr(float(v)) for pair in zip(dom.lower, dom.upper) for v in pair)


def _parse_domain_label(label: str) -> Domain:
    if label == "circle":
        return circle(1)
    kind, _, body = label.partition(":")
    if kind != "box":
        raise ValueError(f"unknown domain label {label!r}")
    vals = [float(v) for v in body.split(";")]
    return box(vals[0::2], vals[1::2])


_KOOPMAN_COLUMNS = ("N", "provenance", "dictionary", "domain", "sigma_max", "sigma_min")


def write_koopman_csv(k: KoopmanMatrix, f: io.TextIOBase):
    """Serialize with full-precision reprs so the reader round-trips bit-exactly:
    a metadata row, then row i of A as N re,im pairs."""
    meta = [k.size, k.provenance, k.dictionary.spec_string,
            _domain_label(k.dictionary.domain), k.sigma_max, k.sigma_min]
    write_table(f, _KOOPMAN_COLUMNS, [meta, *np.asarray(k.A, dtype=complex).tolist()])


def read_koopman_csv(f: io.TextIOBase) -> KoopmanMatrix:
    (n_s, provenance, dict_spec, dom_label, smax, smin), *body = read_table(f, _KOOPMAN_COLUMNS)
    n = int(n_s)
    dic = parse_dictionary(dict_spec, _parse_domain_label(dom_label))
    # viewing re,im pairs as complex keeps every bit, signed zeros included
    a = float_rows(body, (n, 2 * n), "koopman matrix").view(complex)
    return KoopmanMatrix(a, dic, provenance, float(smax), float(smin))
