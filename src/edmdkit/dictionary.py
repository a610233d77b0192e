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
from .systems import Domain, Measure, QuadratureRule, as_points, as_state, box, circle, uniform


@dataclass(frozen=True)
class Dictionary:
    family: str  # "legendre" | "monomial" | "fourier" | "sine"
    param: int   # max_degree / max_mode / mode
    domain: Domain

    def __post_init__(self):
        if self.family not in ("legendre", "monomial", "fourier", "sine"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.domain.dimension != 1:
            raise ValueError("shipped dictionary families are one-dimensional")
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
    def is_complex(self):
        return self.family == "fourier"

    @property
    def orthonormal_wrt(self) -> Measure | None:
        """The measure this family is orthonormal under, if any."""
        if self.family in ("legendre", "fourier", "sine"):
            return uniform(self.domain)
        return None

    @property
    def spec_string(self):
        return f"{self.family}:{self.param}"

    def fourier_modes(self):
        ks = [0]
        for k in range(1, self.param + 1):
            ks.extend((k, -k))
        return np.array(ks)


_DEFAULT_DOMAINS = {"legendre": box(-1.0, 1.0), "monomial": box(-1.0, 1.0),
                    "fourier": circle(1), "sine": box(0.0, 1.0)}


def parse_dictionary(spec: str, domain: Domain | None = None) -> Dictionary:
    """Build a dictionary from ``legendre:<max_degree>``, ``monomial:<max_degree>``,
    ``fourier:<max_mode>`` or ``sine:<mode>``.

    When ``domain`` is omitted, the family default is used: [-1, 1] for the
    polynomial families, the circle for fourier, [0, 1] for sine.
    """
    name, _, body = spec.partition(":")
    try:
        param = int(body)
    except ValueError as exc:
        raise ConfigError(f"dictionary parameter must be an integer: {spec!r}") from exc
    if name not in _DEFAULT_DOMAINS:
        raise ConfigError(f"unknown dictionary {spec!r}")
    try:
        return Dictionary(name, param, domain if domain is not None else _DEFAULT_DOMAINS[name])
    except ValueError as exc:
        raise ConfigError(f"invalid dictionary {spec!r}: {exc}") from exc


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
        lo, hi = dic.domain.lower[0], dic.domain.upper[0]
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
    pts = as_points(points, 1)
    vals, _ = _eval(dic, pts[0], want_deriv=False)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError(f"{dic.spec_string}: dictionary evaluation produced "
                             "non-finite values")
    return vals


def evaluate(dic: Dictionary, x) -> np.ndarray:
    """Dictionary values at a single state, as a length-N vector."""
    return evaluate_batch(dic, as_state(x, 1)[:, None])[:, 0]


def derivative_batch(dic: Dictionary, points) -> np.ndarray:
    """Gradients at each state: (N, d, M) with d = 1 for the shipped families."""
    pts = as_points(points, 1)
    _, der = _eval(dic, pts[0], want_deriv=True)
    return der[:, None, :]


def derivative(dic: Dictionary, x) -> np.ndarray:
    """Gradient rows at a single state: (N, d)."""
    return derivative_batch(dic, as_state(x, 1)[:, None])[:, :, 0]


def gram(dic: Dictionary, rule: QuadratureRule) -> np.ndarray:
    """Quadrature Gram matrix sum_k w_k psi(x_k) psi(x_k)^H, Hermitized."""
    return _gram(evaluate_batch(dic, rule.nodes), rule.weights)


def _gram(psi, weights):
    g = (psi * weights) @ psi.conj().T
    return 0.5 * (g + g.conj().T)


def _gram_solve(what, g, b, count):
    """Solve G X = B, one column per right-hand side, for a Hermitian G through
    one eigendecomposition G = V diag(lam) V^H that also serves the rank rule
    with max(N, count).  Returns X and the ascending eigenvalues."""
    lam, v = np.linalg.eigh(g)
    check_rank(what, lam[0], lam[-1], max(g.shape[0], count))
    return v @ ((v.conj().T @ b) / lam[:, None]), lam
