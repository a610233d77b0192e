import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest

from edmdkit import (
    DomainEscapeWarning,
    DynamicalSystem,
    NonFiniteError,
    QuadratureRule,
    RankDeficiencyError,
    apply_batch,
    apply_operator,
    box,
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
PREDICT = importlib.import_module("edmdkit.predict")


def coordinate_observable(dic, measure):
    return observable_matrix(lambda p: p[0], dic, gauss_rule(measure, max(64, 2 * dic.size)))


def monte_carlo(measure, count, seed):
    """The Monte-Carlo integral as a rule: weights 1/M on M seeded samples."""
    return QuadratureRule(sample(measure, count, seed), np.full(count, 1.0 / count))


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

    @pytest.mark.parametrize("c, horizon, message", [
        (np.ones(6), 2, r"observable matrix must be \(n, 5\), got \(1, 6\)"),
        (np.ones(5), -1, "horizon must be nonnegative"),
    ], ids=["observable-width", "negative-horizon"])
    def test_malformed_input_is_value_error(self, c, horizon, message):
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        with pytest.raises(ValueError, match=message):
            predict(k, c, [0.3], horizon, dic, LOGISTIC)

    def test_non_finite_prediction_raises(self):
        # a spectral radius of 1e100 overflows A^i psi at the fourth step
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        k = dataclasses.replace(k, A=1e100 * np.eye(dic.size))
        with pytest.raises(NonFiniteError, match=r"A\^4 psi"):
            predict(k, coordinate_observable(dic, UNIFORM11), [0.3], 5, dic, LOGISTIC)

    def test_foreign_dictionary_raises(self):
        # monomial:4 has the fit's size, so only the check tells it apart: it
        # would predict psi_1 with step errors 0.336 and 0.505
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        c = np.eye(dic.size)[1]
        with pytest.raises(ValueError, match="not the fit's dictionary"):
            predict(k, c, [0.3], 2, parse_dictionary("monomial:4"), LOGISTIC)
        with pytest.raises(ValueError, match="not the fit's dictionary"):
            predict(k, c, [0.3], 0, parse_dictionary("legendre:4", box(-1.0, 2.0)), LOGISTIC)
        assert np.max(predict(k, c, [0.3], 2, dic, LOGISTIC).errors) <= 1e-14


class TestL2Error:
    def test_invariant_subspace_all_steps_tiny(self):
        system = parse_system("identity")
        dic = parse_dictionary("legendre:4")
        k = fit_edmd(generate_iid(system, UNIFORM11, 80, seed=3), dic)
        errs = l2_error(k, coordinate_observable(dic, UNIFORM11), dic, system,
                        gauss_rule(UNIFORM11, 64), 6)
        assert np.max(errs) <= 1e-10

    def test_zero_horizon_empty(self):
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        errs = l2_error(k, coordinate_observable(dic, UNIFORM11), dic, LOGISTIC,
                        gauss_rule(UNIFORM11, 32), 0)
        assert errs.shape == (0,)

    def test_foreign_dictionary_raises(self):
        dic = parse_dictionary("legendre:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        c = coordinate_observable(dic, UNIFORM11)
        with pytest.raises(ValueError, match="not the fit's dictionary"):
            l2_error(k, c, parse_dictionary("monomial:4"), LOGISTIC, gauss_rule(UNIFORM11, 32), 3)

    def test_quadrature_and_monte_carlo_agree(self):
        # two independent integration paths act as mutual oracles; steps with
        # nothing but roundoff are compared absolutely
        dic = parse_dictionary("legendre:8")
        k = fit_edmd(generate_iid(LOGISTIC, UNIFORM11, 1000, seed=0), dic)
        c = coordinate_observable(dic, UNIFORM11)
        quad = l2_error(k, c, dic, LOGISTIC, gauss_rule(UNIFORM11, 128), 5)
        mc = l2_error(k, c, dic, LOGISTIC, monte_carlo(UNIFORM11, 10**5, 42), 5)
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
            errs = l2_error(k, c, dic, system, monte_carlo(measure, 1, seed), 8)
            assert np.all(np.abs(res.errors - errs) <= 1e-14 * np.abs(errs))
            assert np.max(errs) > 1e-6


def stepwise_rollout(k, cmat, dic, system, points, horizon):
    """(C A^i psi(points), C psi(T^i points)) for i = 1 .. horizon, one map step
    and one dictionary evaluation per step: the reference for the blocked
    rollout, raising what it must raise, in the same order.  Like the blocked
    rollout it steps a real A z in real products and hands predictions out as
    complex arrays."""
    z = evaluate_batch(dic, points)
    for i in range(1, horizon + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            z = k.A @ z
        if not np.all(np.isfinite(z)):
            raise NonFiniteError(f"the Koopman prediction A^{i} psi is not finite")
        points = apply_batch(system, points)
        yield (cmat @ z).astype(complex), cmat @ evaluate_batch(dic, points)


def outcome(run):
    """(steps yielded, error message, DomainEscapeWarnings issued) of ``run()``."""
    steps = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            for _ in run():
                steps += 1
            message = None
        except NonFiniteError as exc:
            message = str(exc)
    return steps, message, sum(issubclass(w.category, DomainEscapeWarning) for w in caught)


# x -> 3x: registered on [-1, 1], so every image from x0 > 1/3 escapes, and
# on a box so wide that no image before the overflow does
TRIPLING = {"escaping": parse_system("affine:a=3,b=0"),
            "inside": DynamicalSystem("tripling", box(-1e300, 1e300), forward=lambda x: 3.0 * x,
                                      forward_batch=lambda x: 3.0 * x)}


class TestBlockedRollout:
    def test_matches_stepwise_rollout(self):
        # one block of 1000 steps: predictions bit for bit, the truth up to the
        # reassociation of one product C psi for the block
        dic = parse_dictionary("legendre:64")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        c = coordinate_observable(dic, UNIFORM11)
        res = predict(k, c, [0.3], 1000, dic, LOGISTIC)
        ref = list(stepwise_rollout(k, c, dic, LOGISTIC, np.array([[0.3]]), 1000))
        assert res.predicted.tobytes() == np.array([p[:, 0] for p, _ in ref]).tobytes()
        assert np.max(np.abs(res.truth - np.array([t[:, 0] for _, t in ref]))) <= 1e-15

    @pytest.mark.parametrize("order", [16, 256])
    def test_l2_error_matches_stepwise_rollout(self, order):
        # 17 x 16 values a step put all 40 steps in one block, 17 x 256 put 15
        dic = parse_dictionary("legendre:16")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        c = coordinate_observable(dic, UNIFORM11)
        rule = gauss_rule(UNIFORM11, order)
        errs = l2_error(k, c, dic, LOGISTIC, rule, 40)
        ref = [math.sqrt(float(np.sum(rule.weights * np.sum(np.abs(p - t) ** 2, axis=0))))
               for p, t in stepwise_rollout(k, c, dic, LOGISTIC, rule.nodes, 40)]
        assert np.max(np.abs(errs - ref)) <= 1e-15

    @pytest.mark.parametrize("name", sorted(TRIPLING))
    @pytest.mark.parametrize("lead", [-20, 0, 20])
    def test_failure_precedence(self, name, lead):
        # psi of x0 3^j overflows at a step j near 160; A = c I overflows at
        # step p = j + lead.  Both fall in one block of 13107 steps.  The
        # prediction check at a step comes before that step's truth, so the
        # prediction wins for p <= j and the truth for p > j; either way with
        # the message, and the DomainEscapeWarnings, of stepping one at a time
        system = TRIPLING[name]
        dic = parse_dictionary("legendre:4")
        x0 = np.random.default_rng(3).uniform(0.4, 0.9)
        cmat = np.ones((1, dic.size))
        identity = fit_analytic(LOGISTIC, dic, UNIFORM11)
        identity = dataclasses.replace(identity, A=np.eye(dic.size))
        j = 1 + outcome(lambda: stepwise_rollout(identity, cmat, dic, system,
                                                 np.array([[x0]]), 400))[0]
        p = j + lead
        scale = (1e308 / np.max(np.abs(evaluate(dic, [x0])))) ** (1.0 / (p - 0.5))
        k = dataclasses.replace(identity, A=scale * np.eye(dic.size))
        steps, message, escapes = outcome(lambda: stepwise_rollout(
            k, cmat, dic, system, np.array([[x0]]), 400))
        assert steps == min(p, j) - 1
        if lead <= 0:
            assert message == f"the Koopman prediction A^{p} psi is not finite"
        else:
            assert message == "legendre:4: dictionary evaluation produced non-finite values"
        assert escapes == (steps + (lead > 0) if name == "escaping" else 0)
        blocked = outcome(lambda: [predict(k, cmat, [x0], 400, dic, system)])
        assert blocked[1:] == (message, escapes)

    def test_non_finite_image_raises_the_maps_error(self):
        # legendre:1 is finite at 5e199, so the orbit's own check names the map
        system = DynamicalSystem("grow", box(-1.0, 1.0), forward=lambda x: 1e200 * x,
                                 forward_batch=lambda x: 1e200 * x)
        dic = parse_dictionary("legendre:1")
        k = dataclasses.replace(fit_analytic(LOGISTIC, dic, UNIFORM11), A=np.eye(dic.size))
        with pytest.warns(DomainEscapeWarning), np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match=r"grow: the image of \[5.e\+199\]"):
            predict(k, np.ones((1, dic.size)), [0.5], 10, dic, system)

    def test_truth_evaluated_per_block(self, monkeypatch):
        # at most 2^16 dictionary values per truth evaluation, and one step
        # per evaluation when a step alone has more
        sizes = []

        def recording(dic, points):
            sizes.append(points.shape[1])
            return evaluate_batch(dic, points)

        fits = {n: fit_analytic(LOGISTIC, parse_dictionary(f"legendre:{n - 1}"), UNIFORM11)
                for n in (65, 9)}
        rows = {n: coordinate_observable(k.dictionary, UNIFORM11) for n, k in fits.items()}
        monkeypatch.setattr(PREDICT, "evaluate_batch", recording)
        k = fits[65]
        predict(k, rows[65], [0.3], 1000, k.dictionary, LOGISTIC)
        assert sizes == [1, 1000]
        k = fits[9]
        for count, horizon, expected in [(8000, 5, [8000] * 6), (1000, 10, [1000, 7000, 3000])]:
            sizes.clear()
            l2_error(k, rows[9], k.dictionary, LOGISTIC, monte_carlo(UNIFORM11, count, 1),
                     horizon)
            assert sizes == expected


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

    @pytest.mark.parametrize("order", [32, 4096])
    def test_exact_on_span_members(self, order):
        dic = parse_dictionary("monomial:3")
        rule = gauss_rule(UNIFORM11, order)
        c = observable_matrix(lambda p: np.vstack([2.0 * p[0] ** 3 - p[0], p[0] ** 2]),
                              dic, rule)
        assert c[0] == pytest.approx([0.0, -1.0, 0.0, 2.0], abs=1e-12)
        assert c[1] == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-12)
        # one solve for all rows gives the per-row normal-equation solutions
        x = rule.nodes[0]
        rows = [np.conj(quadrature_projection(dic, rule, f)) for f in (2.0 * x**3 - x, x**2)]
        assert np.max(np.abs(c - np.vstack(rows))) <= 1e-13
        # values at more points than the rule has nodes are refused, on one
        # reduction block of nodes as on two
        with pytest.raises(ValueError, match=rf"^f\(rule.nodes\) must be \(n, {order}\), "
                                             rf"got \(1, {order + 5}\)$"):
            observable_matrix(lambda p: np.concatenate([p[0], np.zeros(5)]), dic, rule)

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
