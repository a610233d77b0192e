"""Dynamical systems, reference measures, and quadrature rules.

The state space is one axis: every domain is an interval or the circle, and
every measure lives on one of them or on the real line, so no domain or
measure of more than one axis can be built.  A state is a length-1 numpy
array; a collection of states is a ``(1, M)`` array with one state per
column.  All objects here are frozen dataclasses and every operation is a
pure function of its inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainEscapeWarning, NonFiniteError, warn

TWO_PI = 2.0 * math.pi
_CONTAINS_TOL = 1e-9  # box-bound slack before a point counts as escaped


def _scalar(value, what) -> float:
    """``value``, a number or a sequence of one number, as a float."""
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape != (1,):
        raise ValueError(f"{what} must be one number, got shape {v.shape}")
    return float(v[0])


@dataclass(frozen=True)
class Domain:
    """State-space domain: an interval (box) or the periodic circle.

    Circle bounds are fixed to [0, 2*pi), its period.
    """

    kind: str  # "box" | "circle"
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in ("box", "circle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        # a finite width also keeps rng.uniform and the Gauss rule's scale finite
        if not (self.lower < self.upper and math.isfinite(self.upper - self.lower)):
            raise ValueError(f"domain requires lower < upper with a finite width, "
                             f"got [{self.lower}, {self.upper}]")


def box(lower, upper) -> Domain:
    return Domain("box", _scalar(lower, "box lower bound"), _scalar(upper, "box upper bound"))


def circle() -> Domain:
    return Domain("circle", 0.0, TWO_PI)


@dataclass(frozen=True)
class DynamicalSystem:
    """Discrete-time map x+ = T(x) on a domain.

    ``forward_batch`` and ``forward`` each map a ``(1, M)`` array of states,
    one per column, to their ``(1, M)`` array of images; an image of any
    other shape is a ValueError.  ``forward`` takes the place of a missing
    ``forward_batch``.  ``polynomial_degree`` is the polynomial degree of T
    when T is polynomial; it drives exact quadrature order selection.
    """

    name: str
    domain: Domain
    forward: Callable
    forward_batch: Callable | None = None
    polynomial_degree: int | None = None


def as_state(x):
    """Coerce ``x``, one finite number or a sequence of one, to a state vector."""
    s = np.array([_scalar(x, "a state")])
    if not np.isfinite(s[0]):
        raise ValueError("state has non-finite entries")
    return s


def as_points(points):
    """Coerce to a ``(1, M)`` array of column states; a 1-D array is one row."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[0] != 1:
        raise ValueError(f"points must be (1, M), got shape {pts.shape}")
    return pts


def apply(system: DynamicalSystem, x) -> np.ndarray:
    """One step of the map on one state: ``apply_batch`` on one column."""
    return apply_batch(system, as_state(x)[:, None])[:, 0]


def apply_batch(system: DynamicalSystem, points) -> np.ndarray:
    """T on the columns of ``points``, one checked step (``_step``): images
    outside the domain are reported by one DomainEscapeWarning, not an error,
    so long-horizon studies keep running; a non-finite image raises
    NonFiniteError."""
    return _step(system, as_points(points))[0]


def _escape_message(system: DynamicalSystem, escaped, count):
    return f"{system.name}: {escaped} of {count} images left the domain"


def _map(system: DynamicalSystem, pts):
    """T on the columns of ``pts`` and the number of images outside the
    domain, with no report and no check: circle images are wrapped mod 2*pi
    and never count; a box image counts unless it is within [lower, upper]
    widened by ``_CONTAINS_TOL``, so a non-finite one does.  An image not
    shaped like ``pts`` is a ValueError.  numpy's overflow and invalid-value
    warnings are off: a non-finite image is the caller's."""
    domain = system.domain
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray((system.forward_batch or system.forward)(pts), dtype=float)
        if out.shape != pts.shape:
            raise ValueError(f"{system.name}: the map image has shape {out.shape}, "
                             f"not the points' shape {pts.shape}")
        if domain.kind == "circle":
            return np.mod(out, TWO_PI), 0
    inside = (out >= domain.lower - _CONTAINS_TOL) & (out <= domain.upper + _CONTAINS_TOL)
    return out, out.size - int(np.count_nonzero(inside))


def _step(system: DynamicalSystem, pts, before=None):
    """``_map`` checked: escapes are reported by one DomainEscapeWarning,
    attributed to the caller of the library (``errors.warn``), then a
    non-finite image raises NonFiniteError naming the first column it came
    from.  A box step with no escape skips the finiteness pass: every image
    inside a box is finite.  ``before()``, when given, runs first at a step
    that reports, one with an escape or a non-finite image: the rollout checks
    its truth up to the step before there."""
    out, escaped = _map(system, pts)
    if not escaped and system.domain.kind != "circle":
        return out, escaped
    finite = np.all(np.isfinite(out), axis=0)
    if escaped or not finite.all():
        if before is not None:
            before()
        if escaped:
            warn(_escape_message(system, escaped, pts.shape[1]), DomainEscapeWarning)
        if not finite.all():
            raise NonFiniteError(f"{system.name}: the image of {pts[:, np.argmin(finite)]} "
                                 "is not finite")
    return out, escaped


@dataclass(frozen=True)
class Measure:
    """Probability measure: uniform on a box/circle domain, or a Gaussian
    of finite mean and finite variance > 0 on the real line (domain None)."""

    kind: str  # "uniform" | "gaussian"
    domain: Domain | None = None
    mean: float | None = None
    var: float | None = None

    def __post_init__(self):
        if self.kind == "uniform":
            if self.domain is None:
                raise ValueError("uniform measure requires a domain")
        elif self.kind == "gaussian":
            if self.mean is None or self.var is None or not (
                    math.isfinite(self.mean) and math.isfinite(self.var) and self.var > 0):
                raise ValueError("gaussian measure requires a finite mean and a finite "
                                 f"variance > 0, got {self.mean} and {self.var}")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")


def uniform(domain: Domain) -> Measure:
    return Measure("uniform", domain=domain)


def gaussian(mean, var) -> Measure:
    return Measure("gaussian", mean=_scalar(mean, "gaussian mean"),
                   var=_scalar(var, "gaussian variance"))


def sample(measure: Measure, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` iid states as a ``(1, count)`` array.

    One draw from numpy's seeded PCG64 generator (``default_rng``), so
    identical (measure, count, seed) triples produce bit-identical output on
    any platform.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    if measure.kind == "uniform":
        x = rng.uniform(measure.domain.lower, measure.domain.upper, count)
    else:
        x = measure.mean + math.sqrt(measure.var) * rng.standard_normal(count)
    return x[None, :]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (1, K) and nonnegative weights (K,) summing to one, so the rule
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
_ASYMPTOTIC_NODES = 256  # from this order on one Newton step, two below
# the first _EDGE_NODES zeros of the Bessel function J_0
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
             14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
             27.493479132040253, 30.634606468431976)


def _stieltjes(theta, n):
    """P_n(cos theta) / C_n and its theta-derivative from the Stieltjes series

        sum_{m < M} h_m cos(alpha_m) / (2 sin theta)^(m + 1/2),
        alpha_m = (n + m + 1/2) theta - (m + 1/2) pi / 2,
        h_0 = 1,  h_m = h_{m-1} (m - 1/2)^2 / (m (n + m + 1/2)).

    Only alpha_0 takes a cosine and a sine; each later alpha_m comes from
    alpha_{m-1} by the rotation through theta - pi/2.
    """
    sin, cos = np.sin(theta), np.cos(theta)
    two_sin = 2.0 * sin
    cot = cos / sin
    p = np.zeros_like(theta)
    dp = np.zeros_like(theta)
    term = 1.0 / np.sqrt(two_sin)  # h_m / (2 sin theta)^(m + 1/2)
    alpha = (n + 0.5) * theta - 0.25 * math.pi
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    for m in range(_STIELTJES_TERMS):
        if m:
            term = term * ((m - 0.5) ** 2 / (m * (n + m + 0.5))) / two_sin
            # alpha_m = alpha_{m-1} + theta - pi/2: rotate by (sin theta, -cos theta)
            cos_a, sin_a = cos_a * sin + sin_a * cos, sin_a * sin - cos_a * cos
        p += term * cos_a
        dp -= term * ((n + m + 0.5) * sin_a + (m + 0.5) * cot * cos_a)
    return p, dp


def _cosine_coefficients(n):
    """The coefficients a_k a_{n-k} and frequencies n - 2k, k = 0..n, of the
    cosine series of P_n (``_cosine_series``), a_k = (1/2)_k / k!."""
    j = np.arange(1, n + 1)
    a = np.cumprod(np.concatenate(([1.0], (j - 0.5) / j)))
    return a * a[::-1], n - 2.0 * np.arange(n + 1)


def _cosine_series(theta, coef, freq):
    """P_n(cos theta) and its theta-derivative from the exact cosine series

        P_n(cos theta) = sum_{k <= n} a_k a_{n-k} cos((n - 2k) theta),
        a_k = (1/2)_k / k!,

    whose coefficients ``coef`` and frequencies ``freq`` come from
    ``_cosine_coefficients(n)``; they are positive and sum to 1.  The phases
    e^{i(n-2k) theta} come in blocks: with k = qB + r and B = isqrt(n) + 1,
    e^{i(n-2k) theta} = e^{i(n-2qB) theta} e^{-2ir theta}, so each node takes
    about 2 sqrt(n) complex exponentials instead of n + 1 cosines and n + 1
    sines.  The sums are numpy's pairwise sums over the full row, not BLAS:
    the bits must not depend on the thread count.
    """
    n = len(coef) - 1
    b = math.isqrt(n) + 1
    outer = np.exp(1j * np.multiply.outer(theta, n - 2.0 * b * np.arange(-(-(n + 1) // b))))
    inner = np.exp(-2j * np.multiply.outer(theta, np.arange(b)))
    phase = (outer[:, :, None] * inner[:, None, :]).reshape(theta.size, -1)[:, : n + 1]
    return np.sum(phase.real * coef, axis=1), -np.sum(phase.imag * (coef * freq), axis=1)


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

    One O(order) scheme for every order: Newton steps in theta,
    x = cos(theta), on the half theta in (0, pi/2]; the other half is the
    mirror image, so the rule is exactly symmetric and an odd order has a
    middle node of exactly 0.0.  The weights are 2 / (dP_n/dt)^2 at the nodes.

    - Interior nodes: the Stieltjes series of ``_stieltjes``,
      P_n(cos t) = C_n * series, with
      C_n = (4/pi) prod_{j<=n} j/(j + 1/2) = (2/sqrt(pi)) Gamma(n+1)/Gamma(n+3/2)
      summed in logs, exp(fsum(log1p(-1/2 / (j + 1/2)))); ``lgamma`` is good
      to only about 4e-11 relative at n = 16384.
    - The ``_EDGE_NODES`` nodes nearest each end (all of the half up to 20
      nodes), where the series does not converge far enough: the exact cosine
      series of ``_cosine_series``.

    The first guesses are those of Hale & Townsend (2013) and Bogaert (2014):
    theta_k = j_{0,k} / sqrt((n + 1/2)^2 + 1/12) at the edges, j_{0,k} the
    zeros of J_0, and theta_k = arccos((1 - 1/(8n^2) + 1/(8n^3)) cos(t_k))
    inside, t_k = pi (4k - 1) / (4n + 2) the Tricomi guess.  The order sets
    only the step count: one from ``_ASYMPTOTIC_NODES`` (256) on, two below,
    where one step leaves errors up to 4.3e-11 (at 20 nodes).  Each series
    is evaluated once per step and once more for the weights.

    Against 40-digit mpmath values at every order from 1 to 255, the nodes
    are off by at most 3.9e-16 and the weights by 2.2e-16; at 256, 257, 300,
    1000 and 4096 nodes by 3.0e-16 and 2.0e-17.  At 16384 nodes, checked at
    every 97th node and the 40 nearest the end, they are off by 2.3e-16 and
    2.6e-19.  Newton on the three-term recurrence (``tests/_oracles.py``)
    agrees to 1e-15 at every order from 1 to 300 and at 1000, 2048, 4096,
    8192 and 16384.  The moments of x^0 ... x^40 are exact to 2e-15 at 16384
    nodes.  Cached and shared, hence read-only; ``gauss_rule`` rescales into
    new arrays.
    """
    n = order
    tricomi = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    theta = np.arccos((1.0 - 1.0 / (8.0 * n**2) + 1.0 / (8.0 * n**3)) * np.cos(tricomi))
    edges = min(_EDGE_NODES, theta.size)
    theta[:edges] = np.array(_J0_ZEROS[:edges]) / math.sqrt((n + 0.5) ** 2 + 1.0 / 12.0)
    steps = 1 if n >= _ASYMPTOTIC_NODES else 2
    j = np.arange(1, n + 1)
    c_n = 4.0 / math.pi * math.exp(math.fsum(np.log1p(-0.5 / (j + 0.5))))
    coef, freq = _cosine_coefficients(n)
    edge, d_edge = _newton(lambda t: _cosine_series(t, coef, freq), theta[:edges], steps)
    inner, d_inner = _newton(lambda t: _stieltjes(t, n), theta[edges:], steps)
    lower = -np.cos(np.concatenate((edge, inner)))  # ascending to the centre
    half_w = 2.0 / np.concatenate((d_edge, c_n * d_inner)) ** 2
    if n % 2:
        lower[-1] = 0.0
    x = np.concatenate((lower, -lower[: n // 2][::-1]))
    w = np.concatenate((half_w, half_w[: n // 2][::-1]))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_rule(measure: Measure, order: int) -> QuadratureRule:
    """Quadrature on the measure's one axis, exact to degree 2*order-1.

    Gauss-Legendre on boxes, Gauss-Hermite for Gaussians, the periodic
    trapezoid rule on circles.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if measure.kind == "gaussian":
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t, w = np.polynomial.hermite.hermgauss(order)
            nodes = measure.mean + math.sqrt(2.0 * measure.var) * t
        # numpy's hermgauss overflows from about 371 nodes on: its weights
        # come back all zero, then NaN; a variance above about 9e307
        # overflows the scale of the nodes
        if not (np.all(np.isfinite(w)) and np.sum(w) > 0 and np.all(np.isfinite(nodes))):
            raise ConfigError(
                f"Gauss-Hermite rule of {order} nodes for variance {measure.var:g} "
                "overflows: weights or nodes not finite, or weights zero"
            )
        return QuadratureRule(nodes[None, :], w / math.sqrt(math.pi))
    lo, hi = measure.domain.lower, measure.domain.upper
    if measure.domain.kind == "circle":
        # periodic trapezoid rule: exact for trigonometric polynomials of
        # frequency < order, which is what the fourier dictionaries need
        nodes = lo + (hi - lo) * np.arange(order) / order
        return QuadratureRule(nodes[None, :], np.full(order, 1.0 / order))
    t, w = _leggauss(order)
    return QuadratureRule((0.5 * (hi - lo) * t + 0.5 * (hi + lo))[None, :], w / 2.0)


# ---------------------------------------------------------------------------
# registry: systems and measures selected by string identifiers


def _system(name, domain, step, degree=None):
    """A registered system: the one vectorized map ``step`` serves a single
    state and a batch alike."""
    return DynamicalSystem(name, domain, forward=step, forward_batch=step,
                           polynomial_degree=degree)


def _number(text, spec):
    if text != text.strip():  # float() reads past blanks; the output header splits on them
        raise ConfigError(f"identifiers take no blanks, got {spec!r}")
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"non-numeric value in {spec!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"non-finite value in {spec!r}")
    return value


def _parse_kv(body, spec, *names):
    """The values of exactly ``names``, in that order, from ``body``: comma-separated
    ``name=<float>`` parts, each name given once; an empty body gives no parameters."""
    out = {}
    for part in body.split(",") if body else []:
        k, eq, v = part.partition("=")
        if not eq or k in out:
            raise ConfigError(f"malformed or repeated parameter {part!r} in {spec!r}")
        out[k] = _number(v, spec)
    if set(out) != set(names):
        form = ",".join(f"{n}=<float>" for n in names) or "no parameters"
        raise ConfigError(f"{spec.partition(':')[0]} takes {form}, got {spec!r}")
    return [out[n] for n in names]


def parse_system(spec: str) -> DynamicalSystem:
    """Build a registered system from its CLI identifier.

    Recognized: ``logistic``, ``identity``, ``rotation:omega=<float>``,
    ``affine:a=<float>,b=<float>``.
    """
    name, _, body = spec.partition(":")
    if name == "logistic":
        _parse_kv(body, spec)
        return _system("logistic", box(-1.0, 1.0), lambda x: 2.0 * x * x - 1.0, 2)
    if name == "identity":
        _parse_kv(body, spec)
        return _system("identity", box(-1.0, 1.0), lambda x: x, 1)
    if name == "rotation":
        omega, = _parse_kv(body, spec, "omega")
        return _system(f"rotation:omega={omega!r}", circle(), lambda x: x + omega)
    if name == "affine":
        a, b = _parse_kv(body, spec, "a", "b")
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
