import dataclasses
import math

import numpy as np
import pytest

from edmdkit import (
    MonteCarloEval,
    NonFiniteError,
    QuadratureEval,
    QuadratureRule,
    RankDeficiencyError,
    apply_operator,
    evaluate,
    evaluate_batch,
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

from _oracles import quadrature_projection

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

    def test_non_finite_prediction_raises(self):
        # a spectral radius of 1e100 overflows A^i psi at the fourth step
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        k = dataclasses.replace(k, A=1e100 * np.eye(dic.size))
        with pytest.raises(NonFiniteError, match=r"A\^4 psi"):
            predict(k, coordinate_observable(dic, UNIFORM11), [0.3], 5, dic, LOGISTIC)


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


def _project(dic, pts, f, weights=None):
    """Coefficients c with c^H psi ~ f: one observable_matrix row, weights 1/M
    unless given."""
    w = np.full(pts.shape[1], 1.0 / pts.shape[1]) if weights is None else weights
    return np.conj(observable_matrix(lambda p: f, dic, QuadratureRule(pts, w)))[0]


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
        # one solve for all rows gives the per-row normal-equation solutions
        x = rule.nodes[0]
        rows = [np.conj(quadrature_projection(dic, rule, f)) for f in (2.0 * x**3 - x, x**2)]
        assert np.max(np.abs(c - np.vstack(rows))) <= 1e-13

    def test_basis_element_projects_to_coordinate(self):
        dic = parse_dictionary("legendre:5")
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (1, 200))
        f = evaluate_batch(dic, pts)[2]
        c = _project(dic, pts, f)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.max(np.abs(c - expected)) <= 1e-10

    def test_mean_onto_constant_span(self):
        dic = parse_dictionary("monomial:0")
        pts = np.array([[-1.0, 0.0, 1.0]])
        c = _project(dic, pts, pts[0] ** 2)
        assert c[0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_monte_carlo_matches_quadrature_oracle(self):
        dic = parse_dictionary("legendre:8")
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1, 1, (1, 10**4))
        c_mc = _project(dic, pts, pts[0] ** 4)
        rule = gauss_rule(uniform(dic.domain), 64)
        c_quad = quadrature_projection(dic, rule, rule.nodes[0] ** 4)
        assert np.max(np.abs(c_mc - c_quad)) <= 5e-2

    def test_idempotence(self):
        dic = parse_dictionary("legendre:6")
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, (1, 300))
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        f = c.conj() @ evaluate_batch(dic, pts)
        back = _project(dic, pts, f)
        assert np.max(np.abs(back - c)) <= 1e-10

    def test_residual_orthogonality(self):
        dic = parse_dictionary("legendre:5")
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, (1, 500))
        f = np.sin(3 * pts[0])
        c = _project(dic, pts, f)
        psi = evaluate_batch(dic, pts)
        resid = c.conj() @ psi - f
        defect = np.abs(psi.conj() @ resid) / pts.shape[1]
        scale = max(1.0, float(np.max(np.abs(f))))
        assert np.max(defect) <= 1e-10 * scale

    def test_rank_deficiency_raises_with_condition(self):
        dic = parse_dictionary("legendre:4")
        pts = np.array([[0.3, 0.3, 0.3]])  # repeated atom: Gram has rank one
        with pytest.raises(RankDeficiencyError) as info:
            _project(dic, pts, np.ones(3))
        assert info.value.condition > 1e8

    def test_quadrature_weights_variant(self):
        dic = parse_dictionary("legendre:4")
        rule = gauss_rule(uniform(dic.domain), 16)
        c = _project(dic, rule.nodes, rule.nodes[0] ** 2, weights=rule.weights)
        oracle = quadrature_projection(dic, rule, rule.nodes[0] ** 2)
        assert np.max(np.abs(c - oracle)) <= 1e-13
