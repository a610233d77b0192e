"""Dynamical systems, reference measures, and quadrature rules.

States are 1-D numpy arrays of length ``d``; collections of states are
``(d, M)`` arrays with one state per column.  All objects here are frozen
dataclasses and every operation is a pure function of its inputs, so values
can be shared freely across threads.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainEscapeWarning, NonFiniteError

TWO_PI = 2.0 * math.pi
_CONTAINS_TOL = 1e-9  # box-bound slack before a point counts as escaped


@dataclass(frozen=True)
class Domain:
    """State-space domain: an axis-aligned box or a periodic circle.

    Circle axes have period 2*pi; bounds are fixed to [0, 2*pi).
    """

    kind: str  # "box" | "circle"
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if self.kind not in ("box", "circle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper length mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"domain requires lower < upper, got [{lo}, {hi}]")

    @property
    def dimension(self):
        return len(self.lower)

    def contains(self, points):
        """Boolean mask over columns of ``points``; circle axes always match."""
        pts = as_points(points, self.dimension)
        if self.kind == "circle":
            return np.ones(pts.shape[1], dtype=bool)
        lo = np.asarray(self.lower)[:, None]
        hi = np.asarray(self.upper)[:, None]
        return np.all((pts >= lo - _CONTAINS_TOL) & (pts <= hi + _CONTAINS_TOL), axis=0)

    def wrap(self, points):
        """Reduce circle coordinates mod 2*pi; boxes pass through unchanged."""
        if self.kind != "circle":
            return points
        return np.mod(points, TWO_PI)


def box(lower, upper) -> Domain:
    lo = np.atleast_1d(np.asarray(lower, dtype=float))
    hi = np.atleast_1d(np.asarray(upper, dtype=float))
    return Domain("box", tuple(float(v) for v in lo), tuple(float(v) for v in hi))


def circle(dimension=1) -> Domain:
    return Domain("circle", (0.0,) * dimension, (TWO_PI,) * dimension)


@dataclass(frozen=True)
class DynamicalSystem:
    """Discrete-time map x+ = T(x) on a domain.

    ``forward_batch`` acts on a ``(d, M)`` array of states, one per column.
    ``forward`` acts on a single state (1-D array) and is used only when
    ``forward_batch`` is None, column by column.  ``polynomial_degree`` is the
    per-axis polynomial degree of T when T is polynomial; it drives exact
    quadrature order selection.
    """

    name: str
    domain: Domain
    forward: Callable
    forward_batch: Callable | None = None
    polynomial_degree: int | None = None

    @property
    def dimension(self):
        return self.domain.dimension


def as_state(x, dimension=None):
    """Coerce ``x`` to a finite 1-D state vector, checking the dimension."""
    s = np.atleast_1d(np.asarray(x, dtype=float))
    if s.ndim != 1:
        raise ValueError(f"state must be 1-D, got shape {s.shape}")
    if dimension is not None and s.size != dimension:
        raise ValueError(f"state has dimension {s.size}, expected {dimension}")
    if not np.all(np.isfinite(s)):
        raise ValueError("state has non-finite entries")
    return s


def as_points(points, dimension=None):
    """Coerce to a ``(d, M)`` array of column states."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ValueError(f"points must be (d, M), got shape {pts.shape}")
    if dimension is not None and pts.shape[0] != dimension:
        raise ValueError(f"points have dimension {pts.shape[0]}, expected {dimension}")
    return pts


def apply(system: DynamicalSystem, x) -> np.ndarray:
    """One step of the map on one state: ``apply_batch`` on one column."""
    return apply_batch(system, as_state(x, system.dimension)[:, None])[:, 0]


def apply_batch(system: DynamicalSystem, points) -> np.ndarray:
    """T on the columns of ``points``, one checked step (``_step``): images
    outside the domain are reported by one DomainEscapeWarning, not an error,
    so long-horizon studies keep running; a non-finite image raises
    NonFiniteError."""
    return _step(system, as_points(points, system.dimension))[0]


def _escape_message(system: DynamicalSystem, escaped, count):
    return f"{system.name}: {escaped} of {count} images left the domain"


def _map(system: DynamicalSystem, pts):
    """T on the columns of ``pts``, circle axes wrapped, and the number of
    images outside the domain (a non-finite image on a box among them); no
    report and no check."""
    if system.forward_batch is not None:
        out = np.asarray(system.forward_batch(pts), dtype=float)
    else:
        out = np.empty_like(pts)
        for j in range(pts.shape[1]):
            out[:, j] = system.forward(pts[:, j])
    out = system.domain.wrap(out)
    return out, int(np.sum(~system.domain.contains(out)))


def _step(system: DynamicalSystem, pts):
    """``_map`` checked: escapes are reported by one DomainEscapeWarning,
    attributed to the caller of ``apply_batch`` or of ``_orbit``, then a
    non-finite image raises NonFiniteError naming the first column it came
    from."""
    out, escaped = _map(system, pts)
    if escaped:
        warnings.warn(_escape_message(system, escaped, pts.shape[1]), DomainEscapeWarning,
                      stacklevel=3)
    finite = np.all(np.isfinite(out), axis=0)
    if not np.all(finite):
        raise NonFiniteError(f"{system.name}: the image of {pts[:, np.argmin(finite)]} "
                             "is not finite")
    return out, escaped


def _orbit(system: DynamicalSystem, points):
    """Yield (T^i points, number of them outside the domain) for i = 1, 2, ...:
    the one orbit loop, ``_step`` repeated, so each step issues at most one
    DomainEscapeWarning and a non-finite image raises NonFiniteError."""
    while True:
        points, escaped = _step(system, points)
        yield points, escaped


@dataclass(frozen=True)
class Measure:
    """Probability measure: uniform on a box/circle domain, or a Gaussian
    with diagonal covariance on full space (domain None)."""

    kind: str  # "uniform" | "gaussian"
    domain: Domain | None = None
    mean: tuple = ()
    var: tuple = ()

    def __post_init__(self):
        if self.kind == "uniform":
            if self.domain is None:
                raise ValueError("uniform measure requires a domain")
        elif self.kind == "gaussian":
            if len(self.mean) != len(self.var) or not self.mean:
                raise ValueError("gaussian measure requires mean/var of equal length")
            if any(v <= 0 for v in self.var):
                raise ValueError("gaussian variances must be positive")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @property
    def dimension(self):
        if self.kind == "uniform":
            return self.domain.dimension
        return len(self.mean)


def uniform(domain: Domain) -> Measure:
    return Measure("uniform", domain=domain)


def gaussian(mean, var) -> Measure:
    m = np.atleast_1d(np.asarray(mean, dtype=float))
    v = np.atleast_1d(np.asarray(var, dtype=float))
    return Measure("gaussian", mean=tuple(m), var=tuple(v))


def sample(measure: Measure, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` iid states as a ``(d, count)`` array.

    Uses numpy's seeded PCG64 generator (``default_rng``), drawing axis by
    axis in a fixed order, so identical (measure, count, seed) triples produce
    bit-identical output on any platform.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    d = measure.dimension
    out = np.empty((d, count))
    if measure.kind == "uniform":
        for i in range(d):
            out[i] = rng.uniform(measure.domain.lower[i], measure.domain.upper[i], count)
    else:
        for i in range(d):
            out[i] = measure.mean[i] + math.sqrt(measure.var[i]) * rng.standard_normal(count)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (d, K) and nonnegative weights (K,) summing to one, so the rule
    integrates against the normalized measure it was built for."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape[1] != self.weights.shape[0]:
            raise ValueError("node/weight count mismatch")

    @property
    def size(self):
        return self.weights.shape[0]


_STIELTJES_TERMS = 20  # truncation error below 2e-20 relative from node 11 on
_EDGE_NODES = 10  # nodes per end where the Stieltjes series is not accurate


def _stieltjes(theta, n):
    """P_n(cos theta) / C_n and its theta-derivative from the Stieltjes series

        sum_{m < M} h_m cos(alpha_m) / (2 sin theta)^(m + 1/2),
        alpha_m = (n + m + 1/2) theta - (m + 1/2) pi / 2,
        h_0 = 1,  h_m = h_{m-1} (m - 1/2)^2 / (m (n + m + 1/2)).
    """
    sin = np.sin(theta)
    two_sin = 2.0 * sin
    cot = np.cos(theta) / sin
    p = np.zeros_like(theta)
    dp = np.zeros_like(theta)
    term = 1.0 / np.sqrt(two_sin)  # h_m / (2 sin theta)^(m + 1/2)
    for m in range(_STIELTJES_TERMS):
        if m:
            term = term * ((m - 0.5) ** 2 / (m * (n + m + 0.5))) / two_sin
        alpha = (n + m + 0.5) * theta - (m + 0.5) * (0.5 * math.pi)
        cos_a = np.cos(alpha)
        p += term * cos_a
        dp -= term * ((n + m + 0.5) * np.sin(alpha) + (m + 0.5) * cot * cos_a)
    return p, dp


def _newton(evaluate, theta, steps):
    """``steps`` Newton steps on the roots of ``evaluate``; returns the roots
    and the derivative there."""
    for _ in range(steps):
        p, dp = evaluate(theta)
        theta = theta - p / dp
    return theta, evaluate(theta)[1]


@lru_cache(maxsize=64)
def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], ascending and read-only.

    One O(order) generator for every order: Newton steps in theta,
    x = cos(theta), from the Tricomi guesses theta_k = pi (4k - 1) / (4 order + 2)
    on the half theta in (0, pi/2]; the other half is the mirror image, so the
    rule is exactly symmetric and an odd order has a middle node of exactly 0.0.

    - Interior nodes: three steps on the Stieltjes series of ``_stieltjes``,
      P_n(cos t) = C_n * series, with
      C_n = (4/pi) prod_{j<=n} j/(j + 1/2) = (2/sqrt(pi)) Gamma(n+1)/Gamma(n+3/2)
      summed in logs, exp(fsum(log1p(-1/2 / (j + 1/2)))); ``lgamma`` is good
      to only about 4e-11 relative at n = 16384.
    - The ``_EDGE_NODES`` nodes nearest each end (all of the half up to 20
      nodes), where the series does not converge far enough: four steps on the
      exact cosine series P_n(cos t) = sum_k a_k a_{n-k} cos((n - 2k) t),
      a_k = (1/2)_k / k!, whose coefficients are positive and sum to 1.

    Both step counts are one more than the Tricomi guesses need at every
    order up to 16384.  The weights are 2 / (dP_n/dt)^2 at the nodes.  Against
    mpmath values the nodes are off by at most 2.8e-16 and the weights by
    7.5e-16 at every order from 1 to 128 (2.6e-16 from 22 nodes on; numpy's
    ``leggauss`` weights by up to 9.5e-15), and by 8.3e-17 and 1.3e-17 at 129,
    257 and 1000 nodes.  Newton on the three-term recurrence
    (``tests/_oracles.py``) agrees to 3.4e-16 and 1.4e-16 for orders 129 to
    4096.  The moments of x^0 ... x^40 are exact to 2e-15 at 16384 nodes.
    Cached and shared, hence read-only; ``_axis_rule`` rescales into new arrays.
    """
    n = order
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    j = np.arange(1, n + 1)
    c_n = 4.0 / math.pi * math.exp(math.fsum(np.log1p(-0.5 / (j + 0.5))))
    a = np.cumprod(np.concatenate(([1.0], (j - 0.5) / j)))
    coef, freq = a * a[::-1], n - 2.0 * np.arange(n + 1)

    def cosine_series(t):
        # numpy sums, not BLAS: the bits must not depend on the thread count
        arg = np.multiply.outer(t, freq)
        p = np.sum(np.cos(arg) * coef, axis=1)
        return p, -np.sum(np.sin(arg) * (coef * freq), axis=1)

    edge, d_edge = _newton(cosine_series, theta[:_EDGE_NODES], 4)
    inner, d_inner = _newton(lambda t: _stieltjes(t, n), theta[_EDGE_NODES:], 3)
    lower = -np.cos(np.concatenate((edge, inner)))  # ascending to the centre
    half_w = 2.0 / np.concatenate((d_edge, c_n * d_inner)) ** 2
    if n % 2:
        lower[-1] = 0.0
    x = np.concatenate((lower, -lower[: n // 2][::-1]))
    w = np.concatenate((half_w, half_w[: n // 2][::-1]))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _axis_rule(measure: Measure, axis: int, order: int):
    if measure.kind == "gaussian":
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t, w = np.polynomial.hermite.hermgauss(order)
        # numpy's hermgauss overflows from about 371 nodes on: its weights
        # come back all zero, then NaN
        if not (np.all(np.isfinite(w)) and np.sum(w) > 0):
            raise ConfigError(
                f"Gauss-Hermite rule of {order} nodes overflows in numpy: "
                "weights not finite or zero"
            )
        nodes = measure.mean[axis] + math.sqrt(2.0 * measure.var[axis]) * t
        return nodes, w / math.sqrt(math.pi)
    dom = measure.domain
    lo, hi = dom.lower[axis], dom.upper[axis]
    if dom.kind == "circle":
        # periodic trapezoid rule: exact for trigonometric polynomials of
        # frequency < order, which is what the fourier dictionaries need
        nodes = lo + (hi - lo) * np.arange(order) / order
        return nodes, np.full(order, 1.0 / order)
    t, w = _leggauss(order)
    nodes = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
    return nodes, w / 2.0


def gauss_rule(measure: Measure, order: int) -> QuadratureRule:
    """Tensorized quadrature exact to degree 2*order-1 per axis.

    Gauss-Legendre on boxes, Gauss-Hermite for Gaussians, the periodic
    trapezoid rule on circle axes.  Intended for d <= 3; the node count grows
    as order**d.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    d = measure.dimension
    if d > 3:
        raise ValueError("tensorized quadrature supports d <= 3")
    axes = [_axis_rule(measure, i, order) for i in range(d)]
    if d == 1:
        nodes, weights = axes[0]
        return QuadratureRule(nodes[None, :].copy(), weights.copy())
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    nodes = np.vstack([g.reshape(-1) for g in grids])
    weights = axes[0][1]
    for _, w in axes[1:]:
        weights = np.multiply.outer(weights, w)
    return QuadratureRule(nodes, weights.reshape(-1))


# ---------------------------------------------------------------------------
# registry: systems and measures selected by string identifiers


def _system(name, domain, step, degree=None):
    """A registered system: the one vectorized map ``step`` serves a single
    state and a batch alike."""
    return DynamicalSystem(name, domain, forward=step, forward_batch=step,
                           polynomial_degree=degree)


def _number(text, spec):
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"non-numeric value in {spec!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value in {spec!r}")
    return value


def _parse_kv(body, spec):
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ConfigError(f"malformed parameter {part!r} in {spec!r}")
        k, _, v = part.partition("=")
        out[k.strip()] = _number(v, spec)
    return out


def parse_system(spec: str) -> DynamicalSystem:
    """Build a registered system from its CLI identifier.

    Recognized: ``logistic``, ``identity``, ``rotation:omega=<float>``,
    ``affine:a=<float>,b=<float>``.
    """
    name, _, body = spec.partition(":")
    if name == "logistic":
        return _system("logistic", box(-1.0, 1.0), lambda x: 2.0 * x * x - 1.0, 2)
    if name == "identity":
        return _system("identity", box(-1.0, 1.0), lambda x: x, 1)
    if name == "rotation":
        kv = _parse_kv(body, spec)
        if set(kv) != {"omega"}:
            raise ConfigError(f"rotation takes omega=<float>, got {spec!r}")
        omega = kv["omega"]
        return _system(f"rotation:omega={omega!r}", circle(1), lambda x: x + omega)
    if name == "affine":
        kv = _parse_kv(body, spec)
        if set(kv) != {"a", "b"}:
            raise ConfigError(f"affine takes a=<float>,b=<float>, got {spec!r}")
        a, b = kv["a"], kv["b"]
        return _system(f"affine:a={a!r},b={b!r}", box(-1.0, 1.0), lambda x: a * x + b, 1)
    raise ConfigError(f"unknown system {spec!r}")


def parse_measure(spec: str) -> Measure:
    """Build a measure from ``uniform:<lo>,<hi>`` or ``gaussian:<mean>,<var>``."""
    name, _, body = spec.partition(":")
    parts = body.split(",") if body else []
    if name not in ("uniform", "gaussian"):
        raise ConfigError(f"unknown measure {spec!r}")
    if len(parts) != 2:
        form = "<lo>,<hi>" if name == "uniform" else "<mean>,<var>"
        raise ConfigError(f"{name} takes {form}, got {spec!r}")
    a, b = (_number(v, spec) for v in parts)
    # Domain and Measure own the lo < hi and var > 0 rules
    try:
        return uniform(box(a, b)) if name == "uniform" else gaussian(a, b)
    except ValueError as exc:
        raise ConfigError(f"invalid measure {spec!r}: {exc}") from exc
