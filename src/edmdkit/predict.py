"""Finite-horizon prediction of observables and L2 prediction-error studies.

The observable is f = C psi with C an (n, N) matrix; the step-i prediction
from x0 is C A^i psi(x0).  Powers of A are applied by repeated
matrix-vector products, never through an eigendecomposition, and truth
trajectories always come from direct iteration of the map, keeping the ground
truth independent of every Koopman object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import systems
from .data import generate_iid
from .dictionary import Dictionary, _gram, _gram_solve, evaluate_batch, parse_dictionary
from .edmd import KoopmanMatrix, fit_edmd
from .errors import ConfigError
from .spectral import eig
from .systems import DynamicalSystem, Measure, as_state


@dataclass(frozen=True)
class QuadratureEval:
    """Evaluate L2(mu) integrals with a Gauss rule of the given order."""

    order: int


@dataclass(frozen=True)
class MonteCarloEval:
    """Evaluate L2(mu) integrals by seeded Monte Carlo averaging."""

    count: int
    seed: int


@dataclass(frozen=True)
class PredictionResult:
    """Per-step predictions C A^i psi(x0) against the iterated truth."""

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


def _rollout(k: KoopmanMatrix, cmat, dic: Dictionary, system: DynamicalSystem, points,
             horizon: int):
    """Yield (C A^i psi(points), C psi(T^i points)) for i = 1 .. horizon, each
    (n, M): the Koopman prediction and the truth at every column of
    ``points``, the truth by direct iteration of the batch map."""
    z = evaluate_batch(dic, points).astype(complex)
    for _ in range(horizon):
        z = k.A @ z
        points = systems.apply_batch(system, points)
        yield cmat @ z, cmat @ evaluate_batch(dic, points)


def predict(k: KoopmanMatrix, c, x0, horizon: int, dic: Dictionary,
            system: DynamicalSystem) -> PredictionResult:
    """Iterate the Koopman prediction and the true dynamics side by side: the
    rollout of ``l2_error`` from the one point x0.

    ``system`` supplies the truth trajectory; it must be the map the matrix
    was fitted to for the error column to mean anything.
    """
    cmat = _as_observable_rows(c, dic.size)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    x = as_state(x0, system.dimension)
    predicted = np.empty((horizon, cmat.shape[0]), dtype=complex)
    truth = np.empty_like(predicted)
    for i, (pred, true) in enumerate(_rollout(k, cmat, dic, system, x[:, None], horizon)):
        predicted[i], truth[i] = pred[:, 0], true[:, 0]
    errors = np.linalg.norm(predicted - truth, axis=1)
    return PredictionResult(horizon, predicted, truth, errors)


def l2_error(
    k: KoopmanMatrix,
    c,
    dic: Dictionary,
    system: DynamicalSystem,
    measure: Measure,
    horizon: int,
    eval_spec,
) -> np.ndarray:
    """Per-step root integrals (int ||C A^i psi - f o T^i||^2 dmu)^(1/2).

    ``eval_spec`` selects the integration path: QuadratureEval(order) or
    MonteCarloEval(count, seed).  Horizon 0 returns an empty vector.
    """
    cmat = _as_observable_rows(c, dic.size)
    if isinstance(eval_spec, QuadratureEval):
        rule = systems.gauss_rule(measure, eval_spec.order)
        pts, w = rule.nodes, rule.weights
    elif isinstance(eval_spec, MonteCarloEval):
        pts = systems.sample(measure, eval_spec.count, eval_spec.seed)
        w = np.full(eval_spec.count, 1.0 / eval_spec.count)
    else:
        raise TypeError(f"unsupported eval spec {eval_spec!r}")
    out = np.empty(horizon)
    for i, (pred, true) in enumerate(_rollout(k, cmat, dic, system, pts, horizon)):
        out[i] = np.sqrt(float(np.sum(w * np.sum(np.abs(pred - true) ** 2, axis=0))))
    return out


def observable_matrix(f, dic: Dictionary, rule) -> np.ndarray:
    """Rows of coefficients representing f in the dictionary, by quadrature
    projection; exact whenever f lies in the span.  Row i is the conjugate of
    empirical_project(dic, rule.nodes, f_i, rule.weights)."""
    vals = np.asarray(f(rule.nodes))
    if vals.ndim == 1:
        vals = vals[None, :]
    psi = evaluate_batch(dic, rule.nodes)
    b = (psi * rule.weights) @ vals.conj().T
    c, _ = _gram_solve("empirical Gram matrix", _gram(psi, rule.weights), b, rule.size)
    return np.ascontiguousarray(c.conj().T)


@dataclass(frozen=True)
class SweepRow:
    """One (dictionary size, data source, seed, step) cell of a convergence study."""

    N: int
    m_or_analytic: str
    seed: int | None
    step: int
    l2_error: float
    frob_gap: float | None
    spectrum_file: str


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


def convergence_sweep(
    system: DynamicalSystem,
    measure: Measure,
    family: str,
    n_list,
    m_list,
    horizon: int,
    f,
    seeds,
    eval_spec=None,
    spectrum_writer=None,
) -> list[SweepRow]:
    """Prediction-error table over dictionary sizes and sample counts.

    ``m_list`` may be empty for analytic-only studies; the analytic matrix is
    always built (it anchors the Frobenius gap column).  ``spectrum_writer``,
    when given, is called as spectrum_writer(label, decomp) -> filename for
    each cell so the CLI can drop spectrum files next to the table.  Rows come
    back in deterministic (N, source, seed, step) order.
    """
    from .analytic import fit_analytic

    if sorted(n_list) != list(n_list):
        raise ConfigError("N list must be ascending")
    rows = []
    for n in n_list:
        dic = _family_dictionary(family, n, system.domain)
        k_an = fit_analytic(system, dic, measure)
        ev = eval_spec if eval_spec is not None else QuadratureEval(max(128, 2 * n))
        cmat = observable_matrix(f, dic, systems.gauss_rule(measure, max(64, 2 * n)))
        fname = spectrum_writer(f"analytic_N{n}", eig(k_an)) if spectrum_writer else ""
        errs = l2_error(k_an, cmat, dic, system, measure, horizon, ev)
        for step, e in enumerate(errs, start=1):
            rows.append(SweepRow(n, "analytic", None, step, float(e), None, fname))
        for m in m_list:
            for seed in seeds:
                pair = generate_iid(system, measure, m, seed)
                k_s = fit_edmd(pair, dic)
                gap = float(np.linalg.norm(k_s.A - k_an.A))
                fname = (
                    spectrum_writer(f"sampled_N{n}_M{m}_seed{seed}", eig(k_s))
                    if spectrum_writer
                    else ""
                )
                errs = l2_error(k_s, cmat, dic, system, measure, horizon, ev)
                for step, e in enumerate(errs, start=1):
                    rows.append(SweepRow(n, str(m), seed, step, float(e), gap, fname))
    return rows
