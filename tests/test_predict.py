import math

import numpy as np
import pytest

from edmdkit import (
    MonteCarloEval,
    QuadratureEval,
    apply_operator,
    convergence_sweep,
    empirical_project,
    evaluate,
    fit_analytic,
    fit_edmd,
    gauss_rule,
    generate_iid,
    l2_error,
    observable_matrix,
    parse_dictionary,
    parse_measure,
    parse_system,
    predict,
    sample,
    uniform,
)

LOGISTIC = parse_system("logistic")
UNIFORM11 = parse_measure("uniform:-1,1")


def coordinate_observable(dic, measure):
    return observable_matrix(lambda p: p[0], dic, gauss_rule(measure, 64))


class TestPredict:
    def test_identity_every_step_exact(self):
        system = parse_system("identity")
        dic = parse_dictionary("legendre:4")
        k = fit_edmd(generate_iid(system, UNIFORM11, 60, seed=1), dic)
        c = coordinate_observable(dic, UNIFORM11)
        res = predict(k, c, [0.37], 12, dic, system)
        assert np.max(np.abs(res.predicted - 0.37)) <= 1e-10
        assert np.max(res.errors) <= 1e-10

    def test_rotation_first_harmonic_exact(self):
        omega = 0.9
        system = parse_system(f"rotation:omega={omega}")
        dic = parse_dictionary("fourier:2", system.domain)
        k = fit_edmd(generate_iid(system, uniform(system.domain), 150, seed=4), dic)
        c = np.zeros(dic.size, dtype=complex)
        c[np.where(dic.fourier_modes() == 1)[0][0]] = 1.0
        x0 = 0.4
        res = predict(k, np.conj(c), [x0], 20, dic, system)
        steps = np.arange(1, 21)
        expected = np.exp(1j * (x0 + steps * omega))
        assert np.max(np.abs(res.predicted[:, 0] - expected)) <= 1e-10
        assert np.max(res.errors) <= 1e-10

    def test_logistic_truth_by_direct_iteration(self):
        dic = parse_dictionary("legendre:8")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        c = coordinate_observable(dic, UNIFORM11)
        res = predict(k, c, [0.3], 2, dic, LOGISTIC)
        assert res.truth[:, 0] == pytest.approx([-0.82, 0.3448], abs=1e-12)
        assert np.all(np.isfinite(res.errors))

    def test_horizon_one_consistency_with_apply_operator(self):
        dic = parse_dictionary("legendre:8")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        c = coordinate_observable(dic, UNIFORM11)
        res = predict(k, c, [0.3], 1, dic, LOGISTIC)
        via_op = np.conj(apply_operator(k, np.conj(c[0]))) @ evaluate(dic, [0.3])
        assert abs(res.predicted[0, 0] - via_op) <= 1e-12

    def test_semigroup_powers(self):
        k = fit_analytic(LOGISTIC, parse_dictionary("legendre:8"), UNIFORM11)
        a = k.A
        for i, j in [(1, 1), (3, 5), (10, 10), (7, 13)]:
            left = np.linalg.matrix_power(a, i + j)
            right = np.linalg.matrix_power(a, i) @ np.linalg.matrix_power(a, j)
            assert np.linalg.norm(left - right) <= 1e-10 * max(1.0, np.linalg.norm(left))

    def test_zero_horizon(self):
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        res = predict(k, coordinate_observable(dic, UNIFORM11), [0.3], 0, dic, LOGISTIC)
        assert res.predicted.shape == (0, 1)
        assert res.errors.shape == (0,)


class TestL2Error:
    def test_invariant_subspace_all_steps_tiny(self):
        system = parse_system("identity")
        dic = parse_dictionary("legendre:4")
        k = fit_edmd(generate_iid(system, UNIFORM11, 80, seed=3), dic)
        errs = l2_error(k, coordinate_observable(dic, UNIFORM11), dic, system,
                        UNIFORM11, 6, QuadratureEval(64))
        assert np.max(errs) <= 1e-10

    def test_zero_horizon_empty(self):
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        errs = l2_error(k, coordinate_observable(dic, UNIFORM11), dic, LOGISTIC,
                        UNIFORM11, 0, QuadratureEval(32))
        assert errs.shape == (0,)

    def test_quadrature_and_monte_carlo_agree(self):
        # two independent integration paths act as mutual oracles; steps with
        # nothing but roundoff are compared absolutely
        dic = parse_dictionary("legendre:8")
        k = fit_edmd(generate_iid(LOGISTIC, UNIFORM11, 1000, seed=0), dic)
        c = coordinate_observable(dic, UNIFORM11)
        quad = l2_error(k, c, dic, LOGISTIC, UNIFORM11, 5, QuadratureEval(128))
        mc = l2_error(k, c, dic, LOGISTIC, UNIFORM11, 5, MonteCarloEval(10**5, 42))
        for q, m in zip(quad, mc):
            if q < 1e-12 and m < 1e-12:
                continue
            assert abs(q - m) / q <= 0.03

    @pytest.mark.parametrize("spec", ["legendre", "fourier"])
    def test_one_point_monte_carlo_is_predict(self, spec):
        # predict is the one-column case of the rollout l2_error integrates
        if spec == "legendre":
            system, measure, dic = LOGISTIC, UNIFORM11, parse_dictionary("legendre:8")
            k = fit_edmd(generate_iid(system, measure, 500, seed=2), dic)
            c = coordinate_observable(dic, measure)
        else:
            system = parse_system("rotation:omega=0.8378")
            measure, dic = uniform(system.domain), parse_dictionary("fourier:3", system.domain)
            # the span is invariant: a Tikhonov-shrunk fit keeps the errors off roundoff
            k = fit_edmd(generate_iid(system, measure, 500, seed=2), dic, tikhonov=0.05)
            c = observable_matrix(lambda p: np.exp(1j * p[0]) + np.cos(2.0 * p[0]), dic,
                                  gauss_rule(measure, 64))
        for seed in (0, 5, 9):
            x0 = sample(measure, 1, seed)[:, 0]
            res = predict(k, c, x0, 8, dic, system)
            errs = l2_error(k, c, dic, system, measure, 8, MonteCarloEval(1, seed))
            assert np.all(np.abs(res.errors - errs) <= 1e-14 * np.abs(errs))
            assert np.max(errs) > 1e-6


class TestObservableMatrix:
    def test_coordinate_in_legendre(self):
        dic = parse_dictionary("legendre:8")
        c = coordinate_observable(dic, UNIFORM11)
        expected = np.zeros(9)
        expected[1] = 1.0 / math.sqrt(3.0)
        assert np.max(np.abs(c[0] - expected)) <= 1e-14

    def test_exact_on_span_members(self):
        dic = parse_dictionary("monomial:3")
        rule = gauss_rule(UNIFORM11, 32)
        c = observable_matrix(lambda p: np.vstack([2.0 * p[0] ** 3 - p[0], p[0] ** 2]),
                              dic, rule)
        assert c[0] == pytest.approx([0.0, -1.0, 0.0, 2.0], abs=1e-12)
        assert c[1] == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-12)
        # one solve for all rows gives the per-row projections
        x = rule.nodes[0]
        rows = [np.conj(empirical_project(dic, rule.nodes, f, weights=rule.weights))
                for f in (2.0 * x**3 - x, x**2)]
        assert np.max(np.abs(c - np.vstack(rows))) <= 1e-13


class TestConvergenceSweep:
    def test_single_analytic_cell_matches_l2_error(self):
        rows = convergence_sweep(LOGISTIC, UNIFORM11, "legendre", [9], [], 3,
                                 lambda p: p[0], [], eval_spec=QuadratureEval(128))
        dic = parse_dictionary("legendre:8")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        direct = l2_error(k, coordinate_observable(dic, UNIFORM11), dic, LOGISTIC,
                          UNIFORM11, 3, QuadratureEval(128))
        assert [r.l2_error for r in rows] == pytest.approx(direct, abs=1e-13)
        assert all(r.m_or_analytic == "analytic" and r.frob_gap is None for r in rows)

    def test_row_ordering_and_gap_column(self):
        rows = convergence_sweep(LOGISTIC, UNIFORM11, "legendre", [3, 5], [50], 2,
                                 lambda p: p[0], [0, 1],
                                 eval_spec=QuadratureEval(64))
        key = [(r.N, r.m_or_analytic, -1 if r.seed is None else r.seed, r.step) for r in rows]
        assert key == sorted(key, key=lambda t: (t[0], t[1] != "analytic", t[1], t[2], t[3]))
        sampled = [r for r in rows if r.m_or_analytic != "analytic"]
        assert all(r.frob_gap is not None and r.frob_gap >= 0 for r in sampled)

    def test_sampled_aggregate_error_comparable_to_analytic(self):
        # root-mean over steps: predictions from a thousand samples track the
        # sampling-free operator within a factor of two
        rows = convergence_sweep(LOGISTIC, UNIFORM11, "legendre", [9], [1000], 5,
                                 lambda p: p[0], [0], eval_spec=QuadratureEval(128))
        analytic = np.array([r.l2_error for r in rows if r.m_or_analytic == "analytic"])
        sampled = np.array([r.l2_error for r in rows if r.m_or_analytic == "1000"])
        rms_an = np.sqrt(np.mean(analytic**2))
        rms_s = np.sqrt(np.mean(sampled**2))
        assert rms_s <= 2.0 * rms_an
