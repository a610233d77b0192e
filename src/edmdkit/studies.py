"""Convergence studies: the paper's statements as tables of study cells.

A sampled cell is one fit K_{N,M} of the pair generate_iid(system, measure,
M, seed) per (M, seed); ``_draws`` is the one loop that draws the pairs, M
outer and seeds inner, so every study samples its cells the same way.  Each
study returns its rows in column order; the CLI writes them as they come.

* ``spectra_study``: sigma(K_{N,M}) against sigma(K_N) as M grows;
* ``prediction_study``: predictions of K_{N,M} against K_N as M grows;
* ``mc_rate_study``: the Monte-Carlo rate of ||A_{N,M} - A_N||_F in M;
* ``convergence_sweep``: prediction errors as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import systems
from .analytic import _escalated, fit_analytic
from .data import _reduction, generate_iid
from .dictionary import Dictionary, _family_dictionary, _solve
from .edmd import KoopmanMatrix, fit_edmd
from .errors import ConfigError
from .predict import _l2_error, _predict, _values, observable_matrix
from .spectral import eig, hausdorff
from .systems import DynamicalSystem, Measure


def _draws(system: DynamicalSystem, measure: Measure, m_list, seeds):
    """Yield (M, seed, snapshot pair) for every cell; ``seeds`` is a sequence."""
    for m in m_list:
        for seed in seeds:
            yield m, seed, generate_iid(system, measure, m, seed)


def _sampled_fits(system: DynamicalSystem, dic: Dictionary, measure: Measure, m_list, seeds):
    """Yield (M, seed, K_{N,M}) for every cell."""
    for m, seed, pair in _draws(system, measure, m_list, seeds):
        yield m, seed, fit_edmd(pair, dic)


def _default_observable(system: DynamicalSystem):
    """State coordinate on boxes, the first harmonic on circles."""
    if system.domain.kind == "circle":
        return lambda pts: np.exp(1j * pts[0])
    return lambda pts: pts[0]


def _observable(f, dic: Dictionary, measure: Measure) -> np.ndarray:
    """Coefficients of f, projected with a Gauss rule of at least twice the
    dictionary size."""
    return observable_matrix(f, dic, systems.gauss_rule(measure, max(64, 2 * dic.size)))


def spectra_study(system: DynamicalSystem, dic: Dictionary, measure: Measure, m_list, seeds,
                  quad_order: int | None = None):
    """Hausdorff distance between sigma(K_{N,M}) and sigma(K_N) per cell.

    Returns (sigma(K_N), {M: sigma(K_{N,M}) of the first seed}, rows) with
    rows (M, seed, hausdorff); ``quad_order`` goes to ``fit_analytic``.
    """
    spec_an = eig(fit_analytic(system, dic, measure, quad_order=quad_order)).eigenvalues
    first, rows = {}, []
    for m, seed, k in _sampled_fits(system, dic, measure, m_list, seeds):
        spec = eig(k).eigenvalues
        first.setdefault(m, spec)
        rows.append((m, seed, hausdorff(spec, spec_an)))
    return spec_an, first, rows


def prediction_study(system: DynamicalSystem, dic: Dictionary, measure: Measure, m_list,
                     seed: int, x0, horizon: int) -> list:
    """Predictions of the default observable f (the state coordinate, or
    e^{ix} on a circle) from x0 by K_N and by K_{N,M} for each M, against the
    truth f(T^i x0) of the iterated map.

    Rows (step, truth, analytic, one prediction per M), complex values.
    """
    f = _default_observable(system)
    cmat = _observable(f, dic, measure)
    res_an = _predict(fit_analytic(system, dic, measure), cmat, x0, horizon, dic, system, f)
    sampled = [_predict(k, cmat, x0, horizon, dic, system, f)
               for _, _, k in _sampled_fits(system, dic, measure, m_list, [seed])]
    return list(zip(range(1, horizon + 1), res_an.truth[:, 0].tolist(),
                    res_an.predicted[:, 0].tolist(),
                    *(r.predicted[:, 0].tolist() for r in sampled)))


def _median(values):
    """The middle of the sorted floats, or the mean of the two middles: the
    same float as np.median, whose first call imports numpy.ma."""
    v = sorted(values)
    half = len(v) // 2
    return v[half] if len(v) % 2 else (v[half - 1] + v[half]) / 2


def mc_rate_study(system: DynamicalSystem, dic: Dictionary, measure: Measure, m_list, seeds):
    """Frobenius gap ||A_{N,M} - A_N||_F per cell, and the log-log slope of
    its per-M medians against M (0.0 for a single M; near -1/2 at the
    Monte-Carlo rate).

    Returns (rows, slope) with rows (M, seed, frob_gap).
    """
    a_n = fit_analytic(system, dic, measure).A
    rows = [(m, seed, float(np.linalg.norm(k.A - a_n)))
            for m, seed, k in _sampled_fits(system, dic, measure, m_list, seeds)]
    medians = [_median([gap for m_row, _, gap in rows if m_row == m]) for m in m_list]
    slope = float(np.polyfit(np.log(m_list), np.log(medians), 1)[0]) if len(m_list) > 1 else 0.0
    return rows, slope


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


def convergence_sweep(
    system: DynamicalSystem,
    measure: Measure,
    family: str,
    n_list,
    m_list,
    horizon: int,
    f,
    seeds,
    spectrum_writer=None,
) -> list[SweepRow]:
    """Prediction-error table over dictionary sizes and sample counts.

    Each cell predicts f from its projection C psi onto the span of its N
    elements and is scored against f o T^i, the truth of the paper's
    finite-horizon statement, with a Gauss rule of max(128, 2N) nodes.
    ``m_list`` may be empty for analytic-only studies; the analytic matrix is
    always built (it anchors the Frobenius gap column).

    The families' dictionaries are nested, so every data source is reduced
    once, at N_max = max(n_list), and each N takes its fit from the leading
    blocks of that R (``_nested_fits``).  The analytic source is one
    reduction of [psi | f | psi o T] on the Gauss rule ``fit_analytic`` takes
    at N_max, which gives A and f's projection C at every N: f is projected,
    and every fit made, on the N_max rule.  For a map that escalates,
    agreement between orders is judged at N_max only.  Each sampled pair is
    drawn once, M outer and seeds inner, and only its R is kept.

    ``spectrum_writer``, when given, is called as spectrum_writer(label,
    decomp) -> filename for each cell so the CLI can drop spectrum files next
    to the table.  Per N the analytic cell comes first, then the sampled
    cells; rows come in (N, source, seed, step) order.
    """
    if sorted(n_list) != list(n_list):
        raise ConfigError("N list must be ascending")
    rows = []
    for n, cmat, cells in _nested_fits(system, measure, family, n_list, m_list, seeds, f):
        rule = systems.gauss_rule(measure, max(128, 2 * n))
        k_an = cells[0][2]
        for m, seed, k in cells:
            gap = None if k is k_an else float(np.linalg.norm(k.A - k_an.A))
            label = f"analytic_N{n}" if k is k_an else f"sampled_N{n}_M{m}_seed{seed}"
            fname = spectrum_writer(label, eig(k)) if spectrum_writer else ""
            errs = _l2_error(k, cmat, k.dictionary, system, rule, horizon, f)
            rows.extend(SweepRow(n, str(m), seed, step, float(e), gap, fname)
                        for step, e in enumerate(errs, start=1))
    return rows


def _nested_fits(system, measure, family, n_list, m_list, seeds, f):
    """[(N, C, cells)] for every N of the ascending ``n_list``: C projects f
    onto the span, cells are ("analytic", None, K_N) and then (M, seed,
    K_{N,M}) per draw, all taken from one reduction per data source at N_max.

    W^(1/2) [psi_n(x)^H | t^H] = Q R[:, S] for the columns S of the nested
    psi_n and of its targets t, so R11 = R[:n, :n] and R12 = R[:n, S minus
    psi_n] solve the n-fit as its own reduction would, at the rank count
    max(n, K) for the K nodes of the rule or max(n, M).  Every fit is made
    here, so that no R is held while the caller rolls the fits out.
    """
    if not n_list:
        return []
    n_max = n_list[-1]
    dics = {n: _family_dictionary(family, n, system.domain) for n in n_list}
    r_an, order, top, s_top = _escalated(system, dics[n_max], measure,
                                         f=lambda pts: _values(f, pts))
    n_f = r_an.shape[1] - 2 * n_max
    sampled = [(m, seed, _reduction(pair, dics[n_max])[0])
               for m, seed, pair in _draws(system, measure, m_list, seeds)]
    fits = []
    for n in n_list:
        c_h, s = (top, s_top) if n == n_max else _solve(
            r_an[:n, :n], r_an[:n, n_max:n_max + n_f + n], order, what="psi on the rule's nodes")
        cells = [("analytic", None, _koopman(c_h[:, n_f:], s, dics[n], f"analytic:order={order}"))]
        cells += [(m, seed, _koopman(*_solve(r[:n, :n], r[:n, n_max:n_max + n], m), dics[n],
                                     f"sampled:seed={seed};M={m}"))
                  for m, seed, r in sampled]
        fits.append((n, np.ascontiguousarray(c_h[:, :n_f].conj().T), cells))
    return fits


def _koopman(a_h, s, dic, provenance):
    """The KoopmanMatrix of A^H = ``a_h`` and sigma(R11) = ``s``."""
    return KoopmanMatrix(a_h.conj().T, dic, provenance, float(s[0]), float(s[-1]))
