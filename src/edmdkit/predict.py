"""Finite-horizon prediction of observables and its L2(mu) error.

The observable is f = C psi with C an (n, N) matrix; the step-i prediction
from x0 is C A^i psi(x0), the truth f(T^i x0).  The studies, which project a
function f onto the span to get C, take f itself as the truth
(``_predict``, ``_l2_error``), so their errors are against f o T^i, not
against (C psi) o T^i.  Powers of A are applied by repeated
matrix-vector products, never through an eigendecomposition, and truth
trajectories always come from direct iteration of the map, keeping the ground
truth independent of every Koopman object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import systems
from .dictionary import Dictionary, _project, evaluate_batch
from .edmd import KoopmanMatrix, _check_dictionary
from .errors import NonFiniteError
from .systems import DynamicalSystem, QuadratureRule, as_state


@dataclass(frozen=True)
class PredictionResult:
    """Per-step predictions C A^i psi(x0) against the iterated truth, as complex arrays."""

    horizon: int
    predicted: np.ndarray  # (horizon, n) complex
    truth: np.ndarray      # (horizon, n) complex
    errors: np.ndarray     # (horizon,) Euclidean error per step


def _as_observable_rows(c, n_dict):
    c = np.asarray(c)
    if c.ndim == 1:
        c = c[None, :]
    if c.ndim != 2 or c.shape[1] != n_dict:
        raise ValueError(f"observable matrix must be (n, {n_dict}), got {c.shape}")
    return c


_TRUTH_BLOCK = 1 << 16  # dictionary values per block of rollout steps


def _values(f, points, name="points") -> np.ndarray:
    """f(points) as an (n, P) array for the P columns of ``points``: another
    shape is a ValueError, a value that is not finite a NonFiniteError naming
    the first point where f has one.  ``name`` names the points in the first."""
    values = np.atleast_2d(f(points))
    if values.ndim != 2 or values.shape[1] != points.shape[1]:
        raise ValueError(f"f({name}) must be (n, {points.shape[1]}), got {values.shape}")
    finite = np.all(np.isfinite(values), axis=0)
    if not np.all(finite):
        raise NonFiniteError(f"the observable at {points[:, np.argmin(finite)]} is not finite")
    return values


def _rollout(k: KoopmanMatrix, cmat, system: DynamicalSystem, points, horizon: int, f=None):
    """Yield (C A^i psi(points), f(T^i points)) for i = 1 .. horizon, each
    (n, M): the Koopman prediction and the truth at every column of ``points``,
    the truth along the orbit of checked map steps (``systems._step``).  The
    truth observable f defaults to C psi, the observable that C states.

    Steps go in blocks of at most ``_TRUTH_BLOCK`` dictionary values, one step
    when a single step has more.  A block first advances A^i psi, up to its
    first non-finite step.  The orbit is stepped only up to the step before,
    and f is evaluated once on the stacked orbit points of the steps between
    two reports of a step (an escape or a non-finite image), before the second
    report, and at the block's end (``_values``).  So the NonFiniteError raised
    and the DomainEscapeWarnings issued are those of stepping and evaluating
    one step at a time, the prediction check of a step before its truth.  Only
    the A z recurrence is sequential.  psi is the fit's own dictionary.
    """
    dic = k.dictionary
    if f is None:
        def f(pts):
            return cmat @ evaluate_batch(dic, pts)
    z = evaluate_batch(dic, points)
    m, n = points.shape[1], cmat.shape[0]
    block = max(1, _TRUTH_BLOCK // (dic.size * m))
    for start in range(0, horizon, block):
        planned, powers = min(block, horizon - start), []
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(planned):
                z = k.A @ z
                if not np.isfinite(z).all():
                    break
                powers.append(z)
        steps = len(powers)
        # C A^i psi outside the errstate, so that its overflow still warns
        predicted = np.array([cmat @ p for p in powers], dtype=complex)
        stacked, truth, done = np.empty((1, steps * m)), np.empty((n, steps * m), complex), 0

        def evaluate(upto):
            nonlocal done
            if upto > done:
                cols = slice(done * m, upto * m)
                truth[:, cols] = _values(f, stacked[:, cols])
                done = upto
        for j in range(1, steps + 1):
            points, _ = systems._step(system, points, lambda: evaluate(j - 1))
            stacked[:, (j - 1) * m:j * m] = points
        evaluate(steps)
        yield from ((predicted[j], truth[:, j * m:(j + 1) * m]) for j in range(steps))
        if steps < planned:
            raise NonFiniteError(f"the Koopman prediction A^{start + steps + 1} psi is not finite")


def predict(k: KoopmanMatrix, c, x0, horizon: int, dic: Dictionary,
            system: DynamicalSystem) -> PredictionResult:
    """Iterate the Koopman prediction and the true dynamics side by side: the
    rollout of ``l2_error`` from the one point x0.

    ``system``, the map the matrix was fitted to, supplies the truth trajectory;
    ``dic`` must be the fit's own dictionary (ValueError otherwise).
    """
    _check_dictionary(k, dic)
    return _predict(k, _as_observable_rows(c, dic.size), x0, horizon, system)


def _predict(k, cmat, x0, horizon, system, f=None) -> PredictionResult:
    """``predict`` against the truth f o T^i (``_rollout``)."""
    _check_horizon(horizon)
    x = as_state(x0)
    predicted = np.empty((horizon, cmat.shape[0]), dtype=complex)
    truth = np.empty_like(predicted)
    for i, (pred, true) in enumerate(_rollout(k, cmat, system, x[:, None], horizon, f)):
        predicted[i], truth[i] = pred[:, 0], true[:, 0]
    errors = np.linalg.norm(predicted - truth, axis=1)
    return PredictionResult(horizon, predicted, truth, errors)


def l2_error(k: KoopmanMatrix, c, dic: Dictionary, system: DynamicalSystem,
             rule: QuadratureRule, horizon: int) -> np.ndarray:
    """Per-step root integrals (int ||C A^i psi - f o T^i||^2 dmu)^(1/2) for
    f = C psi, the integrals taken with ``rule``: a Gauss rule of the measure,
    or M samples of it with weights 1/M for Monte Carlo.  Horizon 0 returns an
    empty vector; a negative horizon or a ``dic`` not the fit's is a ValueError.
    """
    _check_dictionary(k, dic)
    return _l2_error(k, _as_observable_rows(c, dic.size), system, rule, horizon)


def _l2_error(k, cmat, system, rule, horizon, f=None) -> np.ndarray:
    """``l2_error`` against the truth f o T^i (``_rollout``)."""
    _check_horizon(horizon)
    out = np.empty(horizon)
    for i, (pred, true) in enumerate(_rollout(k, cmat, system, rule.nodes, horizon, f)):
        out[i] = np.sqrt(float(np.sum(rule.weights * np.sum(np.abs(pred - true) ** 2, axis=0))))
    return out


def _check_horizon(horizon):
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")


def observable_matrix(f, dic: Dictionary, rule) -> np.ndarray:
    """Rows of coefficients c_i with c_i psi ~ f_i, the weighted least-squares
    projection of each row f_i of f(rule.nodes), one call on all the nodes, in
    the measure the rule realizes (weights 1/M on M sample points: the empirical
    projection), exact whenever f_i lies in the span.  Values not shaped (n, K)
    for the rule's K nodes raise ValueError; ``dictionary._project`` raises
    RankDeficiencyError."""
    values = _values(f, rule.nodes, "rule.nodes")
    return np.ascontiguousarray(_project(dic, rule, lambda cols: values[:, cols])[1])
