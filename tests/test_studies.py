import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edmdkit import (
    DynamicalSystem,
    apply_batch,
    box,
    convergence_sweep,
    default_quad_order,
    eig,
    evaluate_batch,
    fit_analytic,
    fit_edmd,
    gauss_rule,
    generate_iid,
    hausdorff,
    l2_error,
    mc_rate_study,
    observable_matrix,
    parse_dictionary,
    parse_measure,
    parse_system,
    predict,
    prediction_study,
    spectra_study,
    uniform,
)
from edmdkit.studies import _median

LOGISTIC = parse_system("logistic")
UNIFORM11 = parse_measure("uniform:-1,1")
LEGENDRE4 = parse_dictionary("legendre:4")


def sampled_fit(m, seed, dic=LEGENDRE4):
    return fit_edmd(generate_iid(LOGISTIC, UNIFORM11, m, seed), dic)


def coordinate_observable(dic, measure):
    return observable_matrix(lambda p: p[0], dic, gauss_rule(measure, 64))


class TestSpectraStudy:
    def test_cell_matches_direct_fit(self):
        spec_an, sampled, rows = spectra_study(LOGISTIC, LEGENDRE4, UNIFORM11, [50, 200],
                                               [0, 1], quad_order=64)
        direct_an = eig(fit_analytic(LOGISTIC, LEGENDRE4, UNIFORM11, quad_order=64)).eigenvalues
        assert spec_an.tobytes() == direct_an.tobytes()
        assert [row[:2] for row in rows] == [(50, 0), (50, 1), (200, 0), (200, 1)]
        assert rows[3][2] == hausdorff(eig(sampled_fit(200, 1)).eigenvalues, direct_an)
        # the plotted sampled spectrum of each M is its first seed's
        assert list(sampled) == [50, 200]
        assert sampled[200].tobytes() == eig(sampled_fit(200, 0)).eigenvalues.tobytes()


class TestMcRateStudy:
    def test_cell_and_slope_match_direct_computation(self):
        m_list = [50, 200, 800]
        rows, slope = mc_rate_study(LOGISTIC, LEGENDRE4, UNIFORM11, m_list, range(3))
        a_n = fit_analytic(LOGISTIC, LEGENDRE4, UNIFORM11).A
        assert [row[:2] for row in rows] == [(m, s) for m in m_list for s in range(3)]
        assert rows[4][2] == float(np.linalg.norm(sampled_fit(200, 1).A - a_n))
        medians = [np.median([gap for m, _, gap in rows if m == m_cell]) for m_cell in m_list]
        assert slope == np.polyfit(np.log(m_list), np.log(medians), 1)[0]
        assert slope < 0

    def test_single_sample_count_has_zero_slope(self):
        rows, slope = mc_rate_study(LOGISTIC, LEGENDRE4, UNIFORM11, [100], [0, 1])
        assert len(rows) == 2 and slope == 0.0

    @pytest.mark.parametrize("seeds", [1, 2, 3, 4])
    def test_medians_are_numpys(self, seeds):
        # an even seed count takes the mean of the two middle gaps
        m_list = [50, 200]
        rows, slope = mc_rate_study(LOGISTIC, LEGENDRE4, UNIFORM11, m_list, range(seeds))
        gaps = [[gap for m, _, gap in rows if m == m_cell] for m_cell in m_list]
        medians = [float(np.median(g)) for g in gaps]
        assert [_median(g) for g in gaps] == medians
        assert slope == float(np.polyfit(np.log(m_list), np.log(medians), 1)[0])

    def test_study_imports_no_masked_arrays(self, tmp_path):
        # np.median imports numpy.ma on its first call, 13 ms per process
        code = ("import sys; from edmdkit.cli import main; "
                "assert main(sys.argv[1:]) == 0; print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code, "study", "mc-rate", "--system", "logistic",
             "--dict", "legendre:4", "--measure", "uniform:-1,1", "--M", "100,200",
             "--seeds", "2", "--outdir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


class TestPredictionStudy:
    def test_cell_matches_direct_predict(self):
        dic = parse_dictionary("legendre:8")
        rows = prediction_study(LOGISTIC, dic, UNIFORM11, [100, 1000], 3, [0.3], 4)
        c = coordinate_observable(dic, UNIFORM11)  # max(64, 2N) = 64 nodes
        analytic = predict(fit_analytic(LOGISTIC, dic, UNIFORM11), c, [0.3], 4, dic, LOGISTIC)
        sampled = predict(sampled_fit(1000, 3, dic), c, [0.3], 4, dic, LOGISTIC)
        assert [row[0] for row in rows] == [1, 2, 3, 4]
        # the truth is x o T^i, the iterated map itself, not C psi(T^i x0)
        orbit = [np.array([[0.3]])]
        for _ in range(4):
            orbit.append(apply_batch(LOGISTIC, orbit[-1]))
        assert [row[1] for row in rows] == [complex(x[0, 0]) for x in orbit[1:]]
        assert np.max(np.abs(np.array([row[1] for row in rows]) - analytic.truth[:, 0])) <= 1e-14
        assert [row[2] for row in rows] == analytic.predicted[:, 0].tolist()
        assert [row[4] for row in rows] == sampled.predicted[:, 0].tolist()
        assert all(len(row) == 5 for row in rows)


class TestConvergenceSweep:
    def test_single_analytic_cell_matches_l2_error(self):
        rows = convergence_sweep(LOGISTIC, UNIFORM11, "legendre", [9], [], 3,
                                 lambda p: p[0], [])
        dic = parse_dictionary("legendre:8")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        direct = l2_error(k, coordinate_observable(dic, UNIFORM11), dic, LOGISTIC,
                          gauss_rule(UNIFORM11, 128), 3)
        assert [r.l2_error for r in rows] == pytest.approx(direct, abs=1e-13)
        assert all(r.m_or_analytic == "analytic" and r.frob_gap is None for r in rows)

    def test_row_ordering_and_gap_column(self):
        rows = convergence_sweep(LOGISTIC, UNIFORM11, "legendre", [3, 5], [50], 2,
                                 lambda p: p[0], [0, 1])
        key = [(r.N, r.m_or_analytic, -1 if r.seed is None else r.seed, r.step) for r in rows]
        assert key == sorted(key, key=lambda t: (t[0], t[1] != "analytic", t[1], t[2], t[3]))
        sampled = [r for r in rows if r.m_or_analytic != "analytic"]
        assert all(r.frob_gap is not None and r.frob_gap >= 0 for r in sampled)

    def test_sampled_aggregate_error_comparable_to_analytic(self):
        # root-mean over steps: predictions from a thousand samples track the
        # sampling-free operator within a factor of two
        rows = convergence_sweep(LOGISTIC, UNIFORM11, "legendre", [9], [1000], 5,
                                 lambda p: p[0], [0])
        analytic = np.array([r.l2_error for r in rows if r.m_or_analytic == "analytic"])
        sampled = np.array([r.l2_error for r in rows if r.m_or_analytic == "1000"])
        rms_an = np.sqrt(np.mean(analytic**2))
        rms_s = np.sqrt(np.mean(sampled**2))
        assert rms_s <= 2.0 * rms_an


STUDIES = importlib.import_module("edmdkit.studies")
ROTATION = parse_system("rotation:omega=0.9")
CIRCLE = uniform(ROTATION.domain)
EPS = np.finfo(float).eps
# the bench's soft-cosine map at shift 0.5: non-polynomial, so its analytic
# fits escalate
SOFT_COSINE = DynamicalSystem("soft-cosine", box(-1.0, 1.0), forward=lambda x: np.cos(x) - 0.5,
                              forward_batch=lambda x: np.cos(x) - 0.5)
# (system, measure, family, N list, f); the soft-cosine N_max fit escalates
# to 128 nodes, and every smaller N is solved on that rule
NESTED = {"legendre": (LOGISTIC, UNIFORM11, "legendre", [3, 5, 9, 17], lambda p: p[0]),
          "monomial": (LOGISTIC, UNIFORM11, "monomial", [3, 5, 9], lambda p: np.exp(p[0])),
          "fourier": (ROTATION, CIRCLE, "fourier", [1, 3, 7, 11], lambda p: np.exp(1j * p[0])),
          "soft-cosine": (SOFT_COSINE, UNIFORM11, "legendre", [3, 5, 9, 17],
                          lambda p: np.exp(p[0]))}


def nested(system, family, n_list):
    return [STUDIES._family_dictionary(family, n, system.domain) for n in n_list]


def relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestNestedFits:
    """Each N's fit from the one reduction at N_max against the direct fit of
    its own dictionary: fit_analytic on the same Gauss rule, fit_edmd on the
    same pair, within kappa(R11) N eps relative."""

    @pytest.mark.parametrize("case", sorted(NESTED))
    def test_analytic_fits_match_fit_analytic_on_the_same_rule(self, case):
        system, measure, family, n_list, f = NESTED[case]
        fits = STUDIES._nested_fits(system, measure, nested(system, family, n_list), [], [], f)
        assert [n for n, _, _ in fits] == n_list
        # the rule the N_max fit took: the exact order, or the escalation's last
        order = int(fits[-1][2][0][2].provenance.removeprefix("analytic:order="))
        if case == "soft-cosine":
            assert default_quad_order(system, fits[-1][2][0][2].dictionary) is None
            assert order == 128
        rule = gauss_rule(measure, order)
        for n, cmat, cells in fits:
            assert [cell[:2] for cell in cells] == [("analytic", None)]
            k = cells[0][2]
            assert k.provenance == f"analytic:order={order}"
            direct = fit_analytic(system, k.dictionary, measure, quad_order=order)
            bound = k.condition * n * EPS
            assert relative_gap(k.A, direct.A) <= bound
            assert relative_gap(cmat, observable_matrix(f, k.dictionary, rule)) <= bound
            assert (k.sigma_max, k.sigma_min) == pytest.approx(
                (direct.sigma_max, direct.sigma_min), rel=bound)

    @pytest.mark.parametrize("case", sorted(NESTED))
    def test_sampled_fits_match_fit_edmd_on_the_same_pair(self, case):
        system, measure, family, n_list, f = NESTED[case]
        fits = STUDIES._nested_fits(system, measure, nested(system, family, n_list), [40, 300],
                                    [0, 1], f)
        for n, _, cells in fits:
            assert [cell[:2] for cell in cells[1:]] == [(40, 0), (40, 1), (300, 0), (300, 1)]
            for m, seed, k in cells[1:]:
                direct = fit_edmd(generate_iid(system, measure, m, seed), k.dictionary)
                assert k.provenance == direct.provenance
                assert relative_gap(k.A, direct.A) <= k.condition * n * EPS

    def test_one_dictionary_at_a_fixed_order_is_fit_analytic(self):
        # the single-N studies pass --order through the cell builder
        [(n, cmat, cells)] = STUDIES._nested_fits(LOGISTIC, UNIFORM11, [LEGENDRE4], [50], [0],
                                                  quad_order=20)
        assert n == 5 and cmat.shape == (0, 5)
        k, direct = cells[0][2], fit_analytic(LOGISTIC, LEGENDRE4, UNIFORM11, quad_order=20)
        assert k.A.tobytes() == direct.A.tobytes()
        assert k.provenance == direct.provenance == "analytic:order=20"
        assert (k.sigma_max, k.sigma_min) == (direct.sigma_max, direct.sigma_min)
        assert cells[1][2].A.tobytes() == sampled_fit(50, 0).A.tobytes()

    def test_each_pair_drawn_once(self, monkeypatch):
        drawn = []

        def recording(system, measure, count, seed):
            drawn.append((count, seed))
            return generate_iid(system, measure, count, seed)

        monkeypatch.setattr(STUDIES, "generate_iid", recording)
        rows = convergence_sweep(LOGISTIC, UNIFORM11, "legendre", [3, 5, 9], [50, 80], 2,
                                 lambda p: p[0], [0, 1, 2])
        assert drawn == [(m, seed) for m in (50, 80) for seed in (0, 1, 2)]
        assert len(rows) == 3 * (1 + 6) * 2


def quadrature_errors(system, measure, family, n, order, f, horizon):
    """(int |C A^i psi - f o T^i|^2 dmu)^(1/2) for i = 1 .. horizon, from the
    direct fit and projection of f on the N_max rule of ``order`` nodes,
    integrated on the sweep's max(128, 2N) nodes along the iterated map."""
    dic = parse_dictionary(f"{family}:{n - 1}", system.domain)
    a = fit_analytic(system, dic, measure, quad_order=order).A
    c = observable_matrix(f, dic, gauss_rule(measure, order))
    rule = gauss_rule(measure, max(128, 2 * n))
    z, x, out = evaluate_batch(dic, rule.nodes), rule.nodes, []
    for _ in range(horizon):
        z, x = a @ z, apply_batch(system, x)
        out.append(np.sqrt(np.sum(rule.weights * np.abs(c @ z - f(x)) ** 2)))
    return np.array(out)


class TestSweepTruth:
    """The sweep scores each prediction against f o T^i, not (C psi) o T^i."""

    @pytest.mark.parametrize("system", [parse_system("affine:a=0.5,b=0"), SOFT_COSINE],
                             ids=["affine", "soft-cosine"])
    @pytest.mark.parametrize("f", [lambda p: np.abs(p[0]), lambda p: np.exp(p[0])],
                             ids=["abs", "exp"])
    def test_errors_match_direct_quadrature(self, system, f):
        n_list, horizon = [3, 5, 9, 17], 3
        rows = convergence_sweep(system, UNIFORM11, "legendre", n_list, [], horizon, f, [])
        k = fit_analytic(system, parse_dictionary("legendre:16"), UNIFORM11)
        order = int(k.provenance.rsplit("=", 1)[1])
        rule = gauss_rule(UNIFORM11, 128)
        scale = np.sqrt(np.sum(rule.weights * np.abs(f(rule.nodes)) ** 2))  # ||f||
        for n in n_list:
            swept = np.array([r.l2_error for r in rows if r.N == n])
            ref = quadrature_errors(system, UNIFORM11, "legendre", n, order, f, horizon)
            assert np.all(np.abs(swept - ref) <= 1e-12 * np.maximum(ref, scale))
        # outside the span the truth is not the projection: the error is not roundoff
        assert min(r.l2_error for r in rows if r.N == 3) > 1e-3

    def test_rotation_outside_every_span_reports_one(self):
        # fourier:0 holds only the constant: C = 0 predicts 0 against |e^{i(x+i omega)}| = 1
        rows = convergence_sweep(ROTATION, CIRCLE, "fourier", [1, 3], [], 2,
                                 lambda p: np.exp(1j * p[0]), [])
        assert [r.l2_error for r in rows if r.N == 1] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert max(r.l2_error for r in rows if r.N == 3) <= 1e-12

    @pytest.mark.parametrize("system", [LOGISTIC, SOFT_COSINE], ids=["logistic", "soft-cosine"])
    def test_exp_step1_error_falls_strictly(self, system):
        # the paper's second limit on an observable in no span: e^x o T
        n_list = [3, 5, 9, 17]
        rows = convergence_sweep(system, UNIFORM11, "legendre", n_list, [], 1,
                                 lambda p: np.exp(p[0]), [])
        step1 = [r.l2_error for r in rows]
        assert all(a > b for a, b in zip(step1, step1[1:])), step1
        assert step1[-1] < 1e-8
