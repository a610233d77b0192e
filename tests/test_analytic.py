import math
import warnings

import numpy as np
import pytest

from edmdkit import (
    DomainEscapeError,
    DomainEscapeWarning,
    QuadratureSaturationWarning,
    RankDeficiencyError,
    default_quad_order,
    evaluate_batch,
    fit_analytic,
    fit_edmd,
    gauss_rule,
    generate_iid,
    gram,
    parse_dictionary,
    parse_measure,
    parse_system,
    transfer_matrix,
    uniform,
)
from edmdkit.systems import DynamicalSystem, box

from _oracles import quadrature_projection

LOGISTIC = parse_system("logistic")
UNIFORM11 = parse_measure("uniform:-1,1")


class TestTransferMatrix:
    def test_identity_reduces_to_gram(self):
        dic = parse_dictionary("legendre:6")
        rule = gauss_rule(UNIFORM11, 32)
        m = transfer_matrix(parse_system("identity"), dic, rule)
        assert np.max(np.abs(m - np.eye(7))) <= 1e-12

    def test_logistic_row_two_spot_values(self):
        # second basis element composed with the map expands over exactly two
        # even-degree elements; the coefficients fall out of the three-term
        # normalization
        dic = parse_dictionary("legendre:8")
        rule = gauss_rule(UNIFORM11, 64)
        m = transfer_matrix(LOGISTIC, dic, rule)
        assert m[1, 0] == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)
        assert m[1, 2] == pytest.approx(4.0 / math.sqrt(15.0), abs=1e-12)
        others = np.delete(m[1], [0, 2])
        assert np.max(np.abs(others)) <= 1e-12

    def test_rotation_fourier_diagonal(self):
        omega = 0.9
        system = parse_system(f"rotation:omega={omega}")
        dic = parse_dictionary("fourier:2", system.domain)
        rule = gauss_rule(uniform(system.domain), 32)
        m = transfer_matrix(system, dic, rule)
        expected = np.diag(np.exp(1j * dic.fourier_modes() * omega))
        assert np.max(np.abs(m - expected)) <= 1e-12


class TestFitAnalytic:
    def test_orthonormal_dict_equals_transfer(self):
        dic = parse_dictionary("legendre:8")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        rule = gauss_rule(UNIFORM11, 64)
        # the Gram solve of an orthonormal dictionary leaves only roundoff
        assert np.max(np.abs(k.A - transfer_matrix(LOGISTIC, dic, rule))) <= 1e-14
        assert k.provenance == "analytic:order=64"

    def test_monomial_rows(self):
        dic = parse_dictionary("monomial:2")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        # rows expand 1 o T and x o T exactly inside the span
        assert np.max(np.abs(k.A[0] - [1.0, 0.0, 0.0])) <= 1e-13
        assert np.max(np.abs(k.A[1] - [-1.0, 0.0, 2.0])) <= 1e-13
        # x^2 o T leaves the span; its projection comes from the oracle
        rule = gauss_rule(UNIFORM11, 64)
        composed = (2.0 * rule.nodes[0] ** 2 - 1.0) ** 2
        oracle = np.conj(quadrature_projection(dic, rule, composed))
        assert np.max(np.abs(k.A[2] - oracle)) <= 1e-12

    # worst seen: 5.0e-14, 3.2e-11, 2.2e-9, 7.9e-7; a solve through G (cond(G)
    # 3e5 at d = 8) loses the square of the condition and raises at d = 20
    @pytest.mark.parametrize("degree, bound", [(8, 1e-12), (12, 1e-9), (16, 1e-7), (20, 1e-5)])
    def test_monomial_in_span_rows(self, degree, bound):
        # x^k o T = (2x^2 - 1)^k lies in the span for 2k <= degree, so row k
        # holds its exact integer coefficients
        k = fit_analytic(LOGISTIC, parse_dictionary(f"monomial:{degree}"), UNIFORM11)
        for row in range(degree // 2 + 1):
            exact = np.zeros(degree + 1)
            coef = np.polynomial.polynomial.polypow([-1.0, 0.0, 2.0], row)
            exact[:coef.size] = coef
            assert np.max(np.abs(k.A[row] - exact)) <= bound

    @pytest.mark.parametrize("spec", ["legendre:8", "monomial:4"])
    def test_one_dictionary_pass_per_point_set(self, monkeypatch, spec):
        # psi on the nodes serves both G and M_T; the images need the other pass
        import edmdkit.analytic
        import edmdkit.dictionary

        original, calls = edmdkit.dictionary.evaluate_batch, []

        def counted(dic, points):
            calls.append(np.shape(points))
            return original(dic, points)

        for module in (edmdkit.analytic, edmdkit.dictionary):
            monkeypatch.setattr(module, "evaluate_batch", counted)
        fit_analytic(LOGISTIC, parse_dictionary(spec), UNIFORM11, quad_order=64)
        assert calls == [(1, 64), (1, 64)]

    def test_quadrature_saturation_between_orders(self):
        dic = parse_dictionary("legendre:8")
        a64 = fit_analytic(LOGISTIC, dic, UNIFORM11, quad_order=64).A
        a128 = fit_analytic(LOGISTIC, dic, UNIFORM11, quad_order=128).A
        assert np.linalg.norm(a64 - a128) <= 1e-12

    def test_default_order_formula(self):
        assert default_quad_order(LOGISTIC, parse_dictionary("legendre:8")) == 64
        big = parse_dictionary("legendre:40")
        assert default_quad_order(LOGISTIC, big) == 82
        rot = parse_system("rotation:omega=0.2")
        assert default_quad_order(rot, parse_dictionary("fourier:2", rot.domain)) == 64

    @pytest.mark.parametrize("spec", ["legendre:4", "monomial:4"])
    def test_escalation_for_nonpolynomial_map(self, spec):
        system = DynamicalSystem(
            name="soft-cosine",
            domain=box(-1.0, 1.0),
            forward=lambda x: np.cos(x) - 0.5,
            forward_batch=lambda p: np.cos(p) - 0.5,
        )
        dic = parse_dictionary(spec)
        k = fit_analytic(system, dic, UNIFORM11)
        k_ref = fit_analytic(system, dic, UNIFORM11, quad_order=256)
        assert np.linalg.norm(k.A - k_ref.A) <= 1e-11
        # the escalated fit is the fit at the order it reports, bit for bit
        order = int(k.provenance.split("=")[1])
        k_at = fit_analytic(system, dic, UNIFORM11, quad_order=order)
        assert k.A.tobytes() == k_at.A.tobytes()
        assert (k.sigma_max, k.sigma_min) == (k_at.sigma_max, k_at.sigma_min)

    def test_saturation_warning_on_cap(self):
        # a map so rough the escalation cannot settle before the node cap
        system = DynamicalSystem(
            name="rough",
            domain=box(-1.0, 1.0),
            forward=lambda x: np.sin(1.0 / (np.abs(x) + 1e-3)) * 0.9,
            forward_batch=lambda p: np.sin(1.0 / (np.abs(p) + 1e-3)) * 0.9,
        )
        dic = parse_dictionary("legendre:3")
        with pytest.warns(QuadratureSaturationWarning):
            fit_analytic(system, dic, UNIFORM11)

    # a rule with fewer nodes than N leaves the Gram singular, orthonormal
    # dictionary or not
    @pytest.mark.parametrize("spec, order", [("monomial:3", 1), ("legendre:8", 4)])
    def test_singular_gram_raises(self, spec, order):
        dic = parse_dictionary(spec)
        with pytest.raises(RankDeficiencyError):
            fit_analytic(LOGISTIC, dic, UNIFORM11, quad_order=order)

    def test_consistency_with_sampling(self):
        dic = parse_dictionary("legendre:8")
        k_an = fit_analytic(LOGISTIC, dic, UNIFORM11)
        gaps = [
            np.linalg.norm(fit_edmd(generate_iid(LOGISTIC, UNIFORM11, 10**5, s), dic).A - k_an.A)
            for s in range(5)
        ]
        assert np.median(gaps) <= 0.05

    def test_galerkin_identity_per_basis_row(self):
        # each operator image matches the quadrature projection of the
        # composed basis element
        dic = parse_dictionary("legendre:8")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        rule = gauss_rule(UNIFORM11, 64)
        psi_t = evaluate_batch(dic, 2.0 * rule.nodes**2 - 1.0)
        for i in range(dic.size):
            oracle = quadrature_projection(dic, rule, psi_t[i])
            row_as_coeffs = np.conj(k.A[i])
            assert np.max(np.abs(row_as_coeffs - oracle)) <= 1e-10

    def test_gram_diagnostics_recorded(self):
        dic = parse_dictionary("monomial:4")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        g = gram(dic, gauss_rule(UNIFORM11, 64))
        lam = np.linalg.eigvalsh(g)
        assert k.sigma_max == pytest.approx(lam[-1])
        assert k.sigma_min == pytest.approx(lam[0])


class TestDomainEscape:
    """Quadrature nodes mapped outside the domain make the integrals meaningless:
    DomainEscapeError, no DomainEscapeWarning, whatever the caller's filters."""

    AFFINE = parse_system("affine:a=2,b=0")
    DIC = parse_dictionary("legendre:4")

    @pytest.mark.parametrize("action", ["ignore", "always"])
    @pytest.mark.parametrize("call", ["fit_analytic", "transfer_matrix"])
    def test_escape_raises_without_warning(self, call, action):
        def run():
            if call == "fit_analytic":
                return fit_analytic(self.AFFINE, self.DIC, UNIFORM11)
            return transfer_matrix(self.AFFINE, self.DIC, gauss_rule(UNIFORM11, 64))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(DomainEscapeError) as info:
                run()
        assert str(info.value) == "affine:a=2.0,b=0.0: 42 of 64 images left the domain"
        assert not [w for w in caught if issubclass(w.category, DomainEscapeWarning)]

    def test_caller_filters_unchanged_inside_the_map(self):
        # the map runs under the caller's warning filters, as any other thread sees them
        seen = []

        def step(x):
            seen.append(list(warnings.filters))
            return 2.0 * x * x - 1.0

        system = DynamicalSystem("recorded", box(-1.0, 1.0), forward=step, forward_batch=step,
                                 polynomial_degree=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DomainEscapeWarning)
            expected = list(warnings.filters)
            fit_analytic(system, self.DIC, UNIFORM11)
        assert seen and all(filters == expected for filters in seen)
