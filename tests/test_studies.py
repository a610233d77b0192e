import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edmdkit import (
    convergence_sweep,
    eig,
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
        assert [row[1] for row in rows] == analytic.truth[:, 0].tolist()
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
