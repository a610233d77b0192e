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
# evaluated and folded as one (N + _BLOCK) x (N + p) step that stays in cache: a
# legendre:64 fit at M = 1e5, one BLAS thread, took 0.63 s at 1024 rows per
# step, 0.61 s at 2048, 0.69 s at 4096 and 0.78 s at 8192 (medians, when each
# step still factored all 2N columns of the full 2N-row R).
_BLOCK = 2048

# Widest stack that a fold factors with one QR.  This is the crossover NX of
# LAPACK's xGEQRF: up to 128 columns the QR is unblocked and its bits do not
# depend on the BLAS thread count; from 129 on it is blocked and they do.  Wider
# stacks are folded by ``_fold``, whose products depend on the thread count too.
_NX = 128


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
    """[R11 R12], the leading N rows of the QR factor R of the rows
    sqrt(w_k) [psi(x_k)^H | t_k^H] of min_A sum_k w_k ||A psi(x_k) - t_k||^2 over
    the columns x_k of ``x``, then max|psi(x)| and max|t|: one pass (TSQR) over
    ``_BLOCK``-column slices ``cols`` of x in order, psi(x[:, cols]) and
    ``target(cols)`` (p, b) stacked below [R11 R12] in one reused Fortran buffer
    and folded.  The first block is one QR; so is a fold of a stack at most
    ``_NX`` columns wide, a wider one is ``_fold``.  R22 is never formed.  ``w``
    is 1.0 or one weight per column.  Zero rows pad fewer than N rows to N.
    R11^H R11 = sum_k w_k psi_k psi_k^H, the weighted Gram; R11^H R12 =
    sum_k w_k psi_k t_k^H."""
    n = dic.size
    r = buf = None
    peaks = (0.0, 0.0)
    for i in range(0, x.shape[1], _BLOCK):
        cols = slice(i, i + _BLOCK)
        psi, t = evaluate_batch(dic, x[:, cols]), target(cols)
        peaks = tuple(max(p, float(np.max(np.abs(v)))) for p, v in zip(peaks, (psi, t)))
        rows = np.concatenate([psi, t]).T  # C-ordered (n + p, b), so this is Fortran (b, n + p)
        del psi, t  # not held during the QR
        if np.iscomplexobj(rows):
            np.conjugate(rows, out=rows)
        if np.ndim(w):
            rows *= np.sqrt(w[cols]).reshape(-1, 1)
        if r is None:
            r = np.linalg.qr(rows, mode="r")[:n]
            r = np.concatenate([r, np.zeros((n - len(r), r.shape[1]), r.dtype)])
            continue
        if buf is None:
            buf = np.empty((n + _BLOCK, r.shape[1]), r.dtype, order="F")
        buf[:n], buf[n:n + len(rows)] = r, rows
        rows = buf[:n + len(rows)]
        r = np.linalg.qr(rows, mode="r")[:n] if rows.shape[1] <= _NX else _fold(rows, n)
    if r is None:
        raise ValueError("least-squares reduction of no rows")
    return r, *peaks


def _fold(stack, n):
    """The leading n rows of the QR factor R of ``stack`` (at least n rows),
    with only its first n columns factored: Householder reflectors
    H_j = I - tau_j v_j v_j^H from one ``np.linalg.qr(mode="raw")`` of them give
    [R11 R12'], where R12' is the leading n rows of Q^H C, C the other columns.
    Q = H_1 ... H_n = I - V T V^H in compact WY form, with
    T^-1 = diag(1/tau) + striu(V^H V) (Joffrain et al., ACM TOMS 32(2), 2006),
    so R12' = C[:n] - V[:n] T^H (V^H C).  A reflector with tau = 0 is the
    identity; its v is set to 0."""
    h, tau = np.linalg.qr(stack[:, :n], mode="raw")
    v = h.T  # qr's own copy: R11 on and above the diagonal, the v_j below
    r11 = np.triu(v[:n])
    v[:n][np.triu_indices(n, 1)] = 0.0
    diag, live = np.arange(n), tau != 0
    v[diag, diag] = live
    inv_tau = np.ones_like(tau)
    np.divide(1.0, tau, out=inv_tau, where=live)
    vh, c = v.conj().T, stack[:, n:]
    t_inv = np.triu(vh @ v, 1)
    t_inv[diag, diag] = inv_tau
    return np.concatenate([r11, c[:n] - v[:n] @ np.linalg.solve(t_inv.conj().T, vh @ c)], axis=1)


def _solve(r11, r12, count, tikhonov=0.0, what=None):
    """Rows X = (pinv(R11) R12)^H, the least-squares X psi ~ t of the reduction
    (``_reduce``), and sigma(R11), descending, by the SVD of the n x n R11:
    s at or below ``check_rank``'s cutoff is dropped, each kept 1/s becomes
    s / (s^2 + tikhonov).  Given ``what``, ``check_rank`` raises instead.  Both
    blocks may be views of a larger R: the leading blocks of a nested dictionary's
    R solve its own fit (``edmd._sampled_fits``, ``analytic._analytic_fits``)."""
    u, s, vh = np.linalg.svd(r11)
    k = s > check_rank(what, s[-1], s[0], len(r11), count)
    a_h = (u[:, k].conj().T @ r12) / (s[k] + tikhonov / s[k])[:, None]
    return (vh[k].conj().T @ a_h).conj().T, s


# what a singular R11 of a quadrature fit is, in its RankDeficiencyError
_ON_RULE = "psi on the rule's nodes"


def _project(dic: Dictionary, rule: QuadratureRule, target):
    """The one weighted projection: R = [R11 R12] of the rows
    sqrt(w_k) [psi(x_k)^H | t_k^H] over the K nodes of ``rule`` (``_reduce``),
    t = ``target(cols)`` per block, the rows X minimizing
    sum_k w_k ||X psi(x_k) - t_k||^2 and sigma(R11), singular at
    max(N, K) eps sigma_max."""
    n = dic.size
    r, _, _ = _reduce(dic, rule.nodes, target, rule.weights)
    return r, *_solve(r[:n, :n], r[:n, n:], rule.size, what=_ON_RULE)
