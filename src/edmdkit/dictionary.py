"""Finite dictionaries of observables spanning the approximation subspace.

Four one-dimensional families are shipped:

* ``legendre``  -- Legendre polynomials on the domain interval, scaled to be
  orthonormal with respect to the uniform measure there, signs fixed so that
  every element is positive at the right endpoint.  Evaluated by the
  three-term recurrence for stability up to degree 64.
* ``monomial``  -- 1, x, x^2, ...
* ``fourier``   -- complex exponentials e^{ikx} on the circle, mode order
  0, +1, -1, +2, -2, ...; orthonormal for the uniform circle measure.
* ``sine``      -- the single probe function sqrt(2) sin(2*pi*m*x) on [0, 1],
  used by the oscillation-seminorm diagnostic.

Dictionaries are immutable and evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError, check_rank
from .systems import Domain, QuadratureRule, as_points, as_state, box, circle

# Points per block of the least-squares reduction, whose psi and target are
# evaluated and folded as one (2N + _BLOCK) x 2N QR step that stays in cache: a
# legendre:64 fit at M = 1e5, one BLAS thread, took 0.63 s at 1024 rows per
# step, 0.61 s at 2048, 0.69 s at 4096 and 0.78 s at 8192 (medians).
_BLOCK = 2048


_DEFAULT_DOMAINS = {"legendre": box(-1.0, 1.0), "monomial": box(-1.0, 1.0),
                    "fourier": circle(), "sine": box(0.0, 1.0)}


@dataclass(frozen=True)
class Dictionary:
    family: str  # "legendre" | "monomial" | "fourier" | "sine"
    param: int   # max_degree / max_mode / mode
    domain: Domain

    def __post_init__(self):
        if self.family not in _DEFAULT_DOMAINS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "sine" and self.param < 1:
            raise ValueError("sine mode must be >= 1")
        if self.param < 0:
            raise ValueError("family parameter must be nonnegative")
        if self.family == "fourier" and self.domain.kind != "circle":
            raise ValueError("fourier dictionaries live on a circle domain")

    @property
    def size(self):
        if self.family == "fourier":
            return 2 * self.param + 1
        if self.family == "sine":
            return 1
        return self.param + 1

    @property
    def spec_string(self):
        return f"{self.family}:{self.param}"

    def fourier_modes(self):
        ks = [0]
        for k in range(1, self.param + 1):
            ks.extend((k, -k))
        return np.array(ks)


def parse_dictionary(spec: str, domain: Domain | None = None) -> Dictionary:
    """Build a dictionary from ``legendre:<max_degree>``, ``monomial:<max_degree>``,
    ``fourier:<max_mode>`` or ``sine:<mode>``.

    When ``domain`` is omitted, the family default is used: [-1, 1] for the
    polynomial families, the circle for fourier, [0, 1] for sine.
    """
    name, _, body = spec.partition(":")
    try:
        param = int(body)
    except ValueError:
        param = None
    # only the integer's own spelling: int() also takes "1_0", "+8", " 8" and "08"
    if param is None or str(param) != body:
        raise ConfigError(f"dictionary parameter must be an integer: {spec!r}")
    if name not in _DEFAULT_DOMAINS:
        raise ConfigError(f"unknown dictionary {spec!r}")
    try:
        return Dictionary(name, param, domain if domain is not None else _DEFAULT_DOMAINS[name])
    except ValueError as exc:
        raise ConfigError(f"invalid dictionary {spec!r}: {exc}") from exc


def _family_dictionary(family: str, n: int, domain) -> Dictionary:
    """The dictionary of ``family`` with exactly ``n`` elements on ``domain``;
    raises ConfigError for sizes and domains the family cannot take."""
    if family in ("legendre", "monomial"):
        return parse_dictionary(f"{family}:{n - 1}", domain)
    if family == "fourier":
        if n % 2 == 0:
            raise ConfigError("fourier dictionaries have odd size 2*max_mode+1")
        return parse_dictionary(f"fourier:{(n - 1) // 2}", domain)
    raise ConfigError(f"family {family!r} cannot be sized by N")


def _legendre(max_deg, t, want_deriv):
    """Legendre P_k on [-1, 1] by the three-term recurrence, and P_k' if wanted."""
    n = max_deg + 1
    P = np.empty((n, t.size))
    D = np.zeros((n, t.size)) if want_deriv else None
    P[0] = 1.0
    if n > 1:
        P[1] = t
    for k in range(1, n - 1):
        P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
    if want_deriv and n > 1:
        D[1] = 1.0
        for k in range(1, n - 1):
            D[k + 1] = ((2 * k + 1) * (P[k] + t * D[k]) - k * D[k - 1]) / (k + 1)
    return P, D


def _eval(dic: Dictionary, x, want_deriv):
    if dic.family == "legendre":
        lo, hi = dic.domain.lower, dic.domain.upper
        # affine map to the reference interval; orthonormal scale sqrt(2k+1)
        t = (2.0 * x - lo - hi) / (hi - lo)
        P, D = _legendre(dic.param, t, want_deriv)
        scale = np.sqrt(2.0 * np.arange(dic.param + 1) + 1.0)[:, None]
        P *= scale
        return P, D * scale * (2.0 / (hi - lo)) if want_deriv else None
    if dic.family == "monomial":
        ks = np.arange(dic.param + 1)
        vals = x[None, :] ** ks[:, None]
        if not want_deriv:
            return vals, None
        dv = np.zeros_like(vals)
        if dic.param >= 1:
            dv[1:] = ks[1:, None] * x[None, :] ** (ks[1:, None] - 1)
        return vals, dv
    if dic.family == "fourier":
        ks = dic.fourier_modes()[:, None]
        vals = np.exp(1j * ks * x[None, :])
        if not want_deriv:
            return vals, None
        return vals, 1j * ks * vals
    # sine probe
    m = dic.param
    arg = 2.0 * np.pi * m * x
    vals = np.sqrt(2.0) * np.sin(arg)[None, :]
    if not want_deriv:
        return vals, None
    return vals, (np.sqrt(2.0) * 2.0 * np.pi * m) * np.cos(arg)[None, :]


def evaluate_batch(dic: Dictionary, points) -> np.ndarray:
    """Observable matrix: column j holds the N dictionary values at state j.

    Returns an (N, M) array; complex for fourier, real otherwise.  An empty
    point list yields an (N, 0) matrix.  A non-finite value raises
    NonFiniteError.
    """
    vals, _ = _eval(dic, as_points(points)[0], want_deriv=False)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError(f"{dic.spec_string}: dictionary evaluation produced "
                             "non-finite values")
    return vals


def evaluate(dic: Dictionary, x) -> np.ndarray:
    """Dictionary values at a single state, as a length-N vector."""
    return evaluate_batch(dic, as_state(x)[:, None])[:, 0]


def derivative_batch(dic: Dictionary, points) -> np.ndarray:
    """Gradients at each state: (N, 1, M)."""
    _, der = _eval(dic, as_points(points)[0], want_deriv=True)
    return der[:, None, :]


def derivative(dic: Dictionary, x) -> np.ndarray:
    """Gradient rows at a single state: (N, 1)."""
    return derivative_batch(dic, as_state(x)[:, None])[:, :, 0]


def gram(dic: Dictionary, rule: QuadratureRule) -> np.ndarray:
    """Quadrature Gram matrix sum_k w_k psi(x_k) psi(x_k)^H, Hermitized."""
    psi = evaluate_batch(dic, rule.nodes)
    g = (psi * rule.weights) @ psi.conj().T
    return 0.5 * (g + g.conj().T)


def _reduce(dic: Dictionary, x, target, w=1.0):
    """R = [[R11, R12], [0, R22]] of the rows sqrt(w_k) [psi(x_k)^H | t_k^H] of
    min_A sum_k w_k ||A psi(x_k) - t_k||^2 over the columns x_k of ``x``, then
    max|psi(x)| and max|t|: one pass (TSQR) over ``_BLOCK``-column slices ``cols``
    of x in order, psi(x[:, cols]) and ``target(cols)`` (n, b) folded as one QR
    step of the R so far stacked on their rows in one reused Fortran buffer.
    ``w`` is 1.0 or one weight per column.  Zero rows pad R square.  R11^H R11 =
    sum_k w_k psi_k psi_k^H, the weighted Gram; R11^H R12 = sum_k w_k psi_k t_k^H."""
    r = buf = None
    peaks = (0.0, 0.0)
    for i in range(0, x.shape[1], _BLOCK):
        cols = slice(i, i + _BLOCK)
        psi, t = evaluate_batch(dic, x[:, cols]), target(cols)
        peaks = tuple(max(p, float(np.max(np.abs(v)))) for p, v in zip(peaks, (psi, t)))
        rows = np.concatenate([psi, t]).T  # C-ordered (n, b), so this is Fortran (b, n)
        del psi, t  # not held during the QR
        if np.iscomplexobj(rows):
            np.conjugate(rows, out=rows)
        if np.ndim(w):
            rows *= np.sqrt(w[cols]).reshape(-1, 1)
        if r is not None:
            if buf is None:
                buf = np.empty((r.shape[1] + _BLOCK, r.shape[1]), r.dtype, order="F")
            k = len(r)
            buf[:k], buf[k:k + len(rows)] = r, rows
            rows = buf[:k + len(rows)]
        r = np.linalg.qr(rows, mode="r")
    if r is None:
        raise ValueError("least-squares reduction of no rows")
    return np.concatenate([r, np.zeros((r.shape[1] - r.shape[0], r.shape[1]), r.dtype)]), *peaks


def _solve(r11, r12, count, tikhonov=0.0, what=None):
    """A^H = pinv(R11) R12 and sigma(R11), descending, by the SVD of the n x n R11:
    s <= max(n, count) eps s_max is dropped, each kept 1/s becomes s / (s^2 + tikhonov).
    Given ``what``, a numerically singular R11 raises RankDeficiencyError.  Both
    blocks may be views of a larger R (``studies._nested_fits``)."""
    n = len(r11)
    u, s, vh = np.linalg.svd(r11)
    if what is not None:
        check_rank(what, s[-1], s[0], max(n, count))
    k = s > max(n, count) * np.finfo(float).eps * s[0]
    a_h = (u[:, k].conj().T @ r12) / (s[k] + tikhonov / s[k])[:, None]
    return vh[k].conj().T @ a_h, s


def _project(dic: Dictionary, rule: QuadratureRule, target):
    """Rows C minimizing sum_k w_k ||C psi(x_k) - t_k||^2 over the K nodes of ``rule``,
    t = ``target(cols)`` per block, and sigma(R11), singular at max(N, K) eps sigma_max."""
    n = dic.size
    r, _, _ = _reduce(dic, rule.nodes, target, rule.weights)
    c_h, s = _solve(r[:n, :n], r[:n, n:], rule.size, what="psi on the rule's nodes")
    return c_h.conj().T, s
