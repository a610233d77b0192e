"""Convergence studies: the paper's statements as tables of study cells.

Every study takes its cells from one cell builder, ``_nested_fits``: the
analytic cell K_N, and one sampled cell K_{N,M} of the pair
generate_iid(system, measure, M, seed) per (M, seed), M outer and seeds
inner.  Each data source is fitted for every N at once by its one fitter.
Each study returns its rows in column order; the CLI writes them as they come.

* ``spectra_study``: sigma(K_{N,M}) against sigma(K_N) as M grows;
* ``prediction_study``: predictions of K_{N,M} against K_N as M grows;
* ``mc_rate_study``: the Monte-Carlo rate of ||A_{N,M} - A_N||_F in M;
* ``convergence_sweep``: prediction errors as N grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import systems
from .analytic import _analytic_fits
from .data import generate_iid
from .dictionary import Dictionary, _family_dictionary
from .edmd import _sampled_fits
from .errors import ConfigError
from .predict import _l2_error, _predict
from .spectral import eig, hausdorff
from .systems import DynamicalSystem, Measure


def _default_observable(system: DynamicalSystem):
    """State coordinate on boxes, the first harmonic on circles."""
    if system.domain.kind == "circle":
        return lambda pts: np.exp(1j * pts[0])
    return lambda pts: pts[0]


def spectra_study(system: DynamicalSystem, dic: Dictionary, measure: Measure, m_list, seeds,
                  quad_order: int | None = None):
    """Hausdorff distance between sigma(K_{N,M}) and sigma(K_N) per cell.

    Returns (sigma(K_N), {M: sigma(K_{N,M}) of the first seed}, rows) with
    rows (M, seed, hausdorff); K_N is made on a rule of ``quad_order`` nodes
    when given, as ``fit_analytic`` makes it.
    """
    [(_, _, ((_, _, k_an), *sampled))] = _nested_fits(system, measure, [dic], m_list, seeds,
                                                      quad_order=quad_order)
    spec_an = eig(k_an).eigenvalues
    first, rows = {}, []
    for m, seed, k in sampled:
        spec = eig(k).eigenvalues
        first.setdefault(m, spec)
        rows.append((m, seed, hausdorff(spec, spec_an)))
    return spec_an, first, rows


def prediction_study(system: DynamicalSystem, dic: Dictionary, measure: Measure, m_list,
                     seed: int, x0, horizon: int) -> list:
    """Predictions of the default observable f (the state coordinate, or
    e^{ix} on a circle) from x0 by K_N and by K_{N,M} for each M, against the
    truth f(T^i x0) of the iterated map.  Every cell predicts from the C that
    projects f on the rule of the analytic cell, from the same reduction as K_N.

    Rows (step, truth, analytic, one prediction per M), complex values.
    """
    f = _default_observable(system)
    [(_, cmat, cells)] = _nested_fits(system, measure, [dic], m_list, [seed], f)
    res_an, *sampled = (_predict(k, cmat, x0, horizon, system, f) for _, _, k in cells)
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
    [(_, _, ((_, _, k_an), *sampled))] = _nested_fits(system, measure, [dic], m_list, seeds)
    rows = [(m, seed, float(np.linalg.norm(k.A - k_an.A))) for m, seed, k in sampled]
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

    The families' dictionaries are nested, so the cell builder
    (``_nested_fits``) reduces every data source once, at N_max = max(n_list):
    f is projected, and every fit made, on the Gauss rule ``fit_analytic``
    takes at N_max.  For a map that escalates, agreement between orders is
    judged at N_max only.

    ``spectrum_writer``, when given, is called as spectrum_writer(label,
    decomp) -> filename for each cell so the CLI can drop spectrum files next
    to the table.  Per N the analytic cell comes first, then the sampled
    cells; rows come in (N, source, seed, step) order.
    """
    if sorted(n_list) != list(n_list):
        raise ConfigError("N list must be ascending")
    rows = []
    dics = [_family_dictionary(family, n, system.domain) for n in n_list]
    for n, cmat, cells in _nested_fits(system, measure, dics, m_list, seeds, f):
        rule = systems.gauss_rule(measure, max(128, 2 * n))
        k_an = cells[0][2]
        for m, seed, k in cells:
            gap = None if k is k_an else float(np.linalg.norm(k.A - k_an.A))
            label = f"analytic_N{n}" if k is k_an else f"sampled_N{n}_M{m}_seed{seed}"
            fname = spectrum_writer(label, eig(k)) if spectrum_writer else ""
            errs = _l2_error(k, cmat, system, rule, horizon, f)
            rows.extend(SweepRow(n, str(m), seed, step, float(e), gap, fname)
                        for step, e in enumerate(errs, start=1))
    return rows


def _nested_fits(system: DynamicalSystem, measure: Measure, dics, m_list, seeds, f=None,
                 quad_order: int | None = None):
    """The one cell builder: [(N, C, cells)] for each of the nested
    dictionaries ``dics``, ascending.  Cells are ("analytic", None, K_N) and
    then (M, seed, K_{N,M}) per pair, M outer and the sequence ``seeds``
    inner; C projects f onto the span, with no rows without ``f``.

    Here the pairs are drawn and the cells grouped by N; the fitters
    ``analytic._analytic_fits`` (at ``quad_order`` nodes when given) and
    ``edmd._sampled_fits`` make every fit, so no R is held while the caller
    rolls the fits out.
    """
    if not dics:
        return []
    analytic = _analytic_fits(system, dics, measure, quad_order, f)
    sampled = [(m, seed, _sampled_fits(generate_iid(system, measure, m, seed), dics))
               for m in m_list for seed in seeds]
    return [(dic.size, cmat, [("analytic", None, k_an)]
             + [(m, seed, fits[i]) for m, seed, fits in sampled])
            for i, (dic, (cmat, k_an)) in enumerate(zip(dics, analytic))]
