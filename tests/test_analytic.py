import math
import tracemalloc
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
    observable_matrix,
    parse_dictionary,
    parse_measure,
    parse_system,
    transfer_matrix,
    uniform,
)
from edmdkit.dictionary import _BLOCK
from edmdkit.systems import DynamicalSystem, box, circle

from _oracles import quadrature_projection

LOGISTIC = parse_system("logistic")
UNIFORM11 = parse_measure("uniform:-1,1")
SOFT_COSINE = DynamicalSystem(  # no exact Gauss rule: fit_analytic escalates
    name="soft-cosine",
    domain=box(-1.0, 1.0),
    forward=lambda x: np.cos(x) - 0.5,
    forward_batch=lambda p: np.cos(p) - 0.5,
)
ROTATION = parse_system("rotation:omega=0.9")
CIRCLE = uniform(ROTATION.domain)
# psi_k o T has mode 5k: a periodic rule sized by the dictionary alone aliases it
QUINTUPLE = DynamicalSystem("quintuple", circle(), forward=lambda x: 5.0 * x,
                            forward_batch=lambda x: 5.0 * x)


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

    def test_fit_memory_does_not_grow_with_nodes(self):
        # psi and psi o T are evaluated one _BLOCK of nodes at a time, so the
        # traced peak is a few QR steps of (2N + _BLOCK) x 2N doubles whatever
        # the order, never a psi of all the nodes (seen: 3.0 and 3.1 steps, 6.9
        # and 7.1 MB at N = 65)
        dic = parse_dictionary("legendre:64")
        step = (2 * dic.size + _BLOCK) * 2 * dic.size * 8
        peaks = []
        for order in [4 * _BLOCK, 8 * _BLOCK]:
            gauss_rule(UNIFORM11, order)  # the cached rule is not the fit's memory
            tracemalloc.start()
            try:
                fit_analytic(LOGISTIC, dic, UNIFORM11, quad_order=order)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.05 * peaks[0]
        assert max(peaks) <= 4 * step

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
        assert default_quad_order(rot, parse_dictionary("fourier:2", rot.domain)) is None
        # a declared polynomial degree makes no Gauss rule exact on the circle,
        # where the wrapped image of a polynomial is not a polynomial
        doubling = DynamicalSystem("doubling", circle(), forward=lambda x: 2.0 * x,
                                   forward_batch=lambda x: 2.0 * x, polynomial_degree=1)
        assert default_quad_order(doubling, parse_dictionary("legendre:8", circle())) is None

    @pytest.mark.parametrize("spec", ["legendre:8", "monomial:6"])
    def test_circle_polynomial_dictionary_escalates_to_the_cap(self, spec):
        # cut at the wrap, psi o T is discontinuous: no rule agrees to 1e-12
        with pytest.warns(QuadratureSaturationWarning):
            k = fit_analytic(ROTATION, parse_dictionary(spec, ROTATION.domain), CIRCLE)
        assert k.provenance == "analytic:order=16384"

    def test_circle_fourier_fit_of_an_aliasing_map(self):
        dic = parse_dictionary("fourier:20", QUINTUPLE.domain)
        k = fit_analytic(QUINTUPLE, dic, CIRCLE)
        k_ref = fit_analytic(QUINTUPLE, dic, CIRCLE, quad_order=4096)
        assert np.max(np.abs(k.A - k_ref.A)) <= 1e-12

    # a rotation keeps every Fourier mode: the first two escalation orders
    # are both exact and agree
    @pytest.mark.parametrize("spec, order", [("fourier:2", 128), ("fourier:40", 256)])
    def test_rotation_fourier_fit_is_diagonal(self, spec, order):
        dic = parse_dictionary(spec, ROTATION.domain)
        k = fit_analytic(ROTATION, dic, CIRCLE)
        assert k.provenance == f"analytic:order={order}"
        expected = np.diag(np.exp(0.9j * dic.fourier_modes()))
        assert np.max(np.abs(k.A - expected)) <= 1e-12

    @pytest.mark.parametrize("spec", ["legendre:4", "monomial:4"])
    def test_escalation_for_nonpolynomial_map(self, spec):
        dic = parse_dictionary(spec)
        k = fit_analytic(SOFT_COSINE, dic, UNIFORM11)
        k_ref = fit_analytic(SOFT_COSINE, dic, UNIFORM11, quad_order=256)
        assert np.linalg.norm(k.A - k_ref.A) <= 1e-11
        # the escalated fit is the fit at the order it reports, bit for bit
        order = int(k.provenance.split("=")[1])
        k_at = fit_analytic(SOFT_COSINE, dic, UNIFORM11, quad_order=order)
        assert k.A.tobytes() == k_at.A.tobytes()
        assert (k.sigma_max, k.sigma_min) == (k_at.sigma_max, k_at.sigma_min)

    # worst seen against the 1024-node oracle: 1.9e-15
    @pytest.mark.parametrize("spec, orders", [("legendre:99", [128, 256]),
                                              ("legendre:129", [256, 512]),
                                              ("legendre:8", [64, 128]),
                                              ("legendre:32", [64, 128]),
                                              ("legendre:64", [128, 256])])
    def test_escalation_starts_at_n_nodes(self, monkeypatch, spec, orders):
        # the first rule doubles from 64 until it has N nodes (more than 64
        # elements start above 64); the orders visited and reported are pinned
        # on both sides of the asymptotic Gauss-Legendre threshold of 256 nodes
        import edmdkit.systems

        original, seen = edmdkit.systems.gauss_rule, []

        def recorded(measure, order):
            seen.append(order)
            return original(measure, order)

        monkeypatch.setattr(edmdkit.systems, "gauss_rule", recorded)
        dic = parse_dictionary(spec)
        k = fit_analytic(SOFT_COSINE, dic, UNIFORM11)
        assert seen == orders
        assert k.provenance == f"analytic:order={orders[-1]}"
        rule = original(UNIFORM11, 1024)
        psi_t = evaluate_batch(dic, np.cos(rule.nodes) - 0.5)
        for i in range(dic.size):
            oracle = quadrature_projection(dic, rule, psi_t[i])
            assert np.max(np.abs(np.conj(k.A[i]) - oracle)) <= 1e-13

    # R11 counts as singular at max(N, K) eps sigma_max for K nodes, in
    # fit_analytic as in observable_matrix: logistic monomial:37 fits on its
    # default 76 nodes (cond 4.9e13) and raises on 128, and soft-cosine
    # monomial:32 (cond 6.2e11) fits on 4096 nodes and raises on 8192
    @pytest.mark.parametrize("system, spec, order, singular", [
        (LOGISTIC, "monomial:3", 3, True),  # fewer nodes than N
        (LOGISTIC, "monomial:3", 4, False),
        (LOGISTIC, "monomial:20", 64, False),
        (LOGISTIC, "monomial:37", 76, False),
        (LOGISTIC, "monomial:37", 128, True),
        (LOGISTIC, "monomial:38", 76, True),
        (SOFT_COSINE, "monomial:32", 4096, False),
        (SOFT_COSINE, "monomial:32", 8192, True),
    ], ids=lambda v: getattr(v, "name", v))
    def test_one_rank_rule_with_observable_matrix(self, system, spec, order, singular):
        dic = parse_dictionary(spec)
        rule = gauss_rule(UNIFORM11, order)

        def composed(nodes):
            return evaluate_batch(dic, system.forward_batch(nodes))

        if singular:
            with pytest.raises(RankDeficiencyError):
                fit_analytic(system, dic, UNIFORM11, quad_order=order)
            with pytest.raises(RankDeficiencyError):
                observable_matrix(composed, dic, rule)
        else:
            # one projection: the rows of A are those of psi o T, bit for bit
            k = fit_analytic(system, dic, UNIFORM11, quad_order=order)
            assert k.A.tobytes() == observable_matrix(composed, dic, rule).tobytes()

    def test_escalation_to_a_singular_rule_raises(self):
        # soft-cosine monomial:32 escalates past 4096 nodes without 1e-12
        # agreement; the 8192-node rule is singular at max(N, K) eps, where
        # a count of N let it saturate at 16384 nodes
        with pytest.raises(RankDeficiencyError):
            fit_analytic(SOFT_COSINE, parse_dictionary("monomial:32"), UNIFORM11)

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
        # sigma(R11) squared are the eigenvalues of the quadrature Gram matrix
        assert k.sigma_max**2 == pytest.approx(lam[-1])
        assert k.sigma_min**2 == pytest.approx(lam[0])


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
