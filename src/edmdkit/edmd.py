"""Sampled EDMD: least-squares Koopman matrices from snapshot pairs.

Coefficient convention
----------------------
A function in the dictionary span is written phi = c^H psi with coefficient
vector c.  The fitted matrix A acts on *functions* through its rows,

    (K phi) = c^H A psi,

so the induced map on coefficient vectors is  c  ->  A^H c  (note the
Hermitian transpose).  Getting this transposition wrong is the classic bug in
EDMD implementations.  ``predict._rollout`` fixes the convention for
predictions (psi -> A psi, so observable rows C give C A^i psi) and
:func:`edmdkit.spectral.eig` for spectra (left eigenvectors, phi = w^H psi).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from ._table import float_rows, read_table, write_floats, write_table
from .data import SnapshotPair, _reduction
from .dictionary import Dictionary, _solve, parse_dictionary
from .errors import ConfigError, check_rank
from .systems import Domain, box, circle


@dataclass(frozen=True)
class KoopmanMatrix:
    """N x N Koopman matrix with provenance and conditioning diagnostics.

    A must be N x N, N the dictionary's size, and finite (ValueError otherwise).  It is
    stored contiguous, as float64 when no entry has a nonzero imaginary part
    (every fit of a real dictionary, and its CSV read back), complex128
    otherwise: real dictionaries get real eigensolves and real products.

    ``sigma_max``/``sigma_min`` are the extreme singular values of R11, the
    block of the least-squares reduction whose (pseudo)inversion produced A:
    sigma(psi(X)) for sampled fits, the square roots of the quadrature Gram
    eigenvalues for analytic fits.  A sampled fit with fewer snapshots than
    dictionary elements (M < N) has ``sigma_min`` 0 and an infinite ``condition``.
    """

    A: np.ndarray
    dictionary: Dictionary
    # "sampled:seed=<s>;M=<M>" | "sampled-trajectory:x0=<x0>;M=<M>" | "analytic:order=<n>"
    provenance: str
    sigma_max: float
    sigma_min: float

    def __post_init__(self):
        a, n = np.asarray(self.A, dtype=complex), self.dictionary.size
        if a.shape != (n, n):
            raise ValueError(f"A is {a.shape}, not {n} x {n} for {self.dictionary.spec_string}")
        if not np.all(np.isfinite(a)):
            raise ValueError("A has non-finite entries")
        object.__setattr__(self, "A", np.ascontiguousarray(a if np.any(a.imag) else a.real))

    @property
    def size(self):
        return self.A.shape[0]

    @property
    def condition(self):
        return self.sigma_max / self.sigma_min if self.sigma_min != 0.0 else np.inf


def _check_dictionary(k: KoopmanMatrix, dic: Dictionary):
    """ValueError unless ``dic`` is the fit's own dictionary, domain included."""
    if dic != k.dictionary:
        raise ValueError(f"{dic.spec_string} is not the fit's dictionary "
                         f"{k.dictionary.spec_string} on its domain")


def fit_edmd(snapshots: SnapshotPair, dic: Dictionary, tikhonov: float = 0.0) -> KoopmanMatrix:
    """Least-squares fit A = psi(Y) pinv(psi(X)).

    A^H = pinv(R11) R12 from the pair's reduction R of [psi(X)^H | psi(Y)^H],
    through the SVD of R11 with relative cutoff max(N, M) * eps, so A is always
    defined and is the minimum-norm minimizer of ||A psi(X) - psi(Y)||_F even
    for rank-deficient data; near-rank-deficiency is recorded in the
    diagnostics, sigma(R11) = sigma(psi(X)), rather than raised.  ``tikhonov``
    = t > 0 filters the same SVD, each kept 1/s becoming s / (s^2 + t): the
    solution of the normal equations
    psi(Y) psi(X)^H (psi(X) psi(X)^H + t I)^{-1} on the unnormalized psi(X).
    The default 0 keeps the exact pseudoinverse solution; a negative or
    non-finite t raises ConfigError.
    """
    if not (np.isfinite(tikhonov) and tikhonov >= 0.0):
        raise ConfigError(f"tikhonov must be a finite nonnegative number, got {tikhonov!r}")
    return _sampled_fits(snapshots, [dic], tikhonov)[0]


def _sampled_fits(pair: SnapshotPair, dics, tikhonov=0.0) -> list[KoopmanMatrix]:
    """The one sampled fitter: fit_edmd's fit of each nested dictionary ``dics``,
    ascending, from the pair's one reduction R of [psi(X)^H | psi(Y)^H] at the
    largest, N: R11 = R[:n, :n] and R12 = R[:n, N:N + n] solve the n-fit."""
    r, _, _ = _reduction(pair, dics[-1])
    n_max = dics[-1].size
    kind = "sampled" if not pair.is_trajectory else "sampled-trajectory"
    provenance = f"{kind}:{pair.provenance.split(':', 1)[1]}"
    return [_koopman(*_solve(r[:n, :n], r[:n, n_max:n_max + n], pair.count, tikhonov), dic,
                     provenance) for dic in dics for n in [dic.size]]


def _koopman(x, s, dic: Dictionary, provenance: str) -> KoopmanMatrix:
    """The one constructor of a fit: A is the last N of the solved rows ``x``
    (``dictionary._solve``), sigma(R11) = ``s``."""
    return KoopmanMatrix(x[-dic.size:], dic, provenance, float(s[0]), float(s[-1]))


def apply_operator(k: KoopmanMatrix, c_phi) -> np.ndarray:
    """Coefficient vector of K phi for phi = c^H psi; returns A^H c."""
    c = np.asarray(c_phi)
    if c.shape != (k.size,):
        raise ValueError(f"coefficient vector must have shape ({k.size},), got {c.shape}")
    return k.A.conj().T @ c


def theorem1_residual(k: KoopmanMatrix, snapshots: SnapshotPair, dic: Dictionary) -> float:
    """Empirical orthogonality defect of the fitted operator, in moment form.

    Returns max_{i,j} |psi(Y) psi(X)^H - A G|_{ij} / M with the empirical Gram
    G = psi(X) psi(X)^H: the paper's A_M - K G_M, zero exactly when K psi_i is
    the empirical projection of psi_i o T for every basis element, with
    G = R11^H R11 and psi(X) psi(Y)^H = R11^H R12 from the pair's reduction.
    Raises RankDeficiencyError when sigma(R11) = sigma(psi(X)) is numerically
    singular (count max(N, M)): the projection then pins down no unique minimizer.
    ``dic`` must be the fit's own dictionary (ValueError otherwise).
    """
    _check_dictionary(k, dic)
    r, _, _ = _reduction(snapshots, dic)
    n, m = dic.size, snapshots.count
    s = np.linalg.svd(r[:n, :n], compute_uv=False)
    check_rank("psi(X) of the snapshot pair", s[-1], s[0], max(n, m))
    r11_h = r[:n, :n].conj().T
    return float(np.max(np.abs((r11_h @ r[:n, n:]).conj().T - k.A @ (r11_h @ r[:n, :n])))) / m


def residual_scale(snapshots: SnapshotPair, dic: Dictionary) -> float:
    """Natural magnitude of theorem1_residual terms: max|psi(Y)| * max|psi(X)|,
    floored at one, from the same pass over the pair as theorem1_residual's
    moments, so the two together evaluate the dictionary once."""
    _, peak_x, peak_y = _reduction(snapshots, dic)
    return max(1.0, peak_y * peak_x)


# ---------------------------------------------------------------------------
# CSV wire format


def _domain_label(dom: Domain) -> str:
    if dom.kind == "circle":
        return "circle"
    return f"box:{float(dom.lower)!r};{float(dom.upper)!r}"


def _parse_domain_label(label: str) -> Domain:
    if label == "circle":
        return circle()
    kind, _, body = label.partition(":")
    bounds = body.split(";")
    if kind != "box" or len(bounds) != 2:
        raise ValueError(f"domain label must be 'circle' or 'box:<lo>;<hi>', got {label!r}")
    return box(*map(float, bounds))


_KOOPMAN_COLUMNS = ("N", "provenance", "dictionary", "domain", "sigma_max", "sigma_min")


def write_koopman_csv(k: KoopmanMatrix, f: io.TextIOBase):
    """Serialize with full-precision reprs so the reader round-trips bit-exactly:
    a metadata row, then row i of A as N re,im pairs."""
    meta = [k.size, k.provenance, k.dictionary.spec_string,
            _domain_label(k.dictionary.domain), k.sigma_max, k.sigma_min]
    write_table(f, _KOOPMAN_COLUMNS, [meta])
    write_floats(f, k.A.astype(complex).view(float))


def read_koopman_csv(f: io.TextIOBase) -> KoopmanMatrix:
    (n_s, provenance, dict_spec, dom_label, smax, smin), body = read_table(f, _KOOPMAN_COLUMNS)
    n = int(n_s)
    try:
        dic = parse_dictionary(dict_spec, _parse_domain_label(dom_label))
    except (ConfigError, ValueError) as exc:
        raise ValueError(f"koopman table: {exc}") from exc
    # viewing re,im pairs as complex keeps every bit, signed zeros included
    a = float_rows(body, (n, 2 * n), "koopman matrix").view(complex)
    return KoopmanMatrix(a, dic, provenance, float(smax), float(smin))
