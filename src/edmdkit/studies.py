"""Convergence studies: the paper's statements as tables of study cells.

A sampled cell is one fit K_{N,M} = fit_edmd(generate_iid(system, measure,
M, seed)) per (M, seed); ``_sampled_fits`` is the one loop that makes them,
M outer and seeds inner, so every study fits its cells the same way.  Each
study returns its rows in column order; the CLI writes them as they come.

* ``spectra_study``: sigma(K_{N,M}) against sigma(K_N) as M grows;
* ``prediction_study``: predictions of K_{N,M} against K_N as M grows;
* ``mc_rate_study``: the Monte-Carlo rate of ||A_{N,M} - A_N||_F in M;
* ``convergence_sweep``: prediction errors as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import systems
from .analytic import fit_analytic
from .data import generate_iid
from .dictionary import Dictionary, _family_dictionary
from .edmd import fit_edmd
from .errors import ConfigError
from .predict import l2_error, observable_matrix, predict
from .spectral import eig, hausdorff
from .systems import DynamicalSystem, Measure


def _sampled_fits(system: DynamicalSystem, dic: Dictionary, measure: Measure, m_list, seeds):
    """Yield (M, seed, K_{N,M}) for every cell; ``seeds`` is a sequence."""
    for m in m_list:
        for seed in seeds:
            yield m, seed, fit_edmd(generate_iid(system, measure, m, seed), dic)


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
    """Predictions of the default observable (the state coordinate, or e^{ix}
    on a circle) from x0 by K_N and by K_{N,M} for each M, against the
    iterated truth.

    Rows (step, truth, analytic, one prediction per M), complex values.
    """
    cmat = _observable(_default_observable(system), dic, measure)
    res_an = predict(fit_analytic(system, dic, measure), cmat, x0, horizon, dic, system)
    sampled = [predict(k, cmat, x0, horizon, dic, system)
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

    ``m_list`` may be empty for analytic-only studies; the analytic matrix is
    always built (it anchors the Frobenius gap column).  Errors are integrated
    with a Gauss rule of max(128, 2N) nodes.  ``spectrum_writer``, when given,
    is called as spectrum_writer(label, decomp) -> filename for each cell so
    the CLI can drop spectrum files next to the table.  Per N the analytic
    cell comes first, then the sampled cells, each fitted only after the cell
    before it is written; rows come in (N, source, seed, step) order.
    """
    if sorted(n_list) != list(n_list):
        raise ConfigError("N list must be ascending")
    rows = []
    for n in n_list:
        dic = _family_dictionary(family, n, system.domain)
        k_an = fit_analytic(system, dic, measure)
        rule = systems.gauss_rule(measure, max(128, 2 * n))
        cmat = _observable(f, dic, measure)
        for m, seed, k in chain([("analytic", None, k_an)],
                                _sampled_fits(system, dic, measure, m_list, seeds)):
            gap = None if k is k_an else float(np.linalg.norm(k.A - k_an.A))
            label = f"analytic_N{n}" if k is k_an else f"sampled_N{n}_M{m}_seed{seed}"
            fname = spectrum_writer(label, eig(k)) if spectrum_writer else ""
            errs = l2_error(k, cmat, dic, system, rule, horizon)
            rows.extend(SweepRow(n, str(m), seed, step, float(e), gap, fname)
                        for step, e in enumerate(errs, start=1))
    return rows
