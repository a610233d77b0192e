import numpy as np
import pytest

from edmdkit import (
    Dictionary,
    box,
    circle,
    derivative,
    evaluate,
    evaluate_batch,
    gauss_rule,
    gram,
    parse_dictionary,
    uniform,
)

SQRT3 = 1.7320508075688772


def legendre(max_deg):
    return Dictionary("legendre", max_deg, box(-1.0, 1.0))


class TestEvaluate:
    def test_constant_component(self):
        dic = legendre(8)
        for x in [-1.0, -0.3, 0.0, 0.77, 1.0]:
            assert evaluate(dic, [x])[0] == pytest.approx(1.0, abs=1e-15)

    def test_linear_component_at_one(self):
        # orthonormality under the uniform measure forces sqrt(3) * x
        assert evaluate(legendre(8), [1.0])[1] == pytest.approx(SQRT3, abs=1e-15)

    def test_positive_at_right_endpoint(self):
        vals = evaluate(legendre(12), [1.0])
        assert np.all(vals > 0)

    def test_fourier_at_zero(self):
        dic = parse_dictionary("fourier:1")
        assert evaluate(dic, [0.0]) == pytest.approx([1.0, 1.0, 1.0])

    def test_monomial(self):
        dic = parse_dictionary("monomial:3")
        assert evaluate(dic, [2.0]) == pytest.approx([1.0, 2.0, 4.0, 8.0])

    def test_sine_probe(self):
        dic = parse_dictionary("sine:2")
        assert dic.size == 1
        x = 0.23
        assert evaluate(dic, [x])[0] == pytest.approx(
            np.sqrt(2.0) * np.sin(2 * np.pi * 2 * x)
        )


class TestEvaluateBatch:
    def test_empty_points(self):
        out = evaluate_batch(legendre(4), np.empty((1, 0)))
        assert out.shape == (5, 0)

    def test_monomial_pair(self):
        out = evaluate_batch(parse_dictionary("monomial:1"), np.array([[1.0, -1.0]]))
        assert out == pytest.approx(np.array([[1.0, 1.0], [1.0, -1.0]]))

    def test_columns_match_single_evaluation(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1, 1, (1, 50))
        for spec in ["legendre:6", "monomial:4", "sine:3"]:
            dic = parse_dictionary(spec)
            batch = evaluate_batch(dic, pts)
            for j in range(50):
                assert batch[:, j].tobytes() == evaluate(dic, pts[:, j]).tobytes()

    def test_fourier_columns_match(self):
        rng = np.random.default_rng(18)
        pts = rng.uniform(0, 2 * np.pi, (1, 50))
        dic = parse_dictionary("fourier:3")
        batch = evaluate_batch(dic, pts)
        for j in range(50):
            assert batch[:, j].tobytes() == evaluate(dic, pts[:, j]).tobytes()


class TestDerivative:
    def test_constant_row_is_zero(self):
        assert derivative(legendre(5), [0.4])[0] == pytest.approx([0.0])

    def test_monomial_square(self):
        d = derivative(parse_dictionary("monomial:3"), [3.0])
        assert d[2, 0] == pytest.approx(6.0)

    def test_legendre_matches_finite_differences(self):
        dic = legendre(8)
        rng = np.random.default_rng(4)
        h = 1e-5
        for x in rng.uniform(-0.9, 0.9, 20):
            exact = derivative(dic, [x])[:, 0]
            approx = (evaluate(dic, [x + h]) - evaluate(dic, [x - h])) / (2 * h)
            denom = np.maximum(np.abs(exact), 1.0)
            assert np.max(np.abs(exact - approx) / denom) <= 1e-6

    def test_fourier_matches_finite_differences(self):
        dic = parse_dictionary("fourier:3")
        h = 1e-6
        for x in np.linspace(0.1, 6.0, 9):
            exact = derivative(dic, [x])[:, 0]
            approx = (evaluate(dic, [x + h]) - evaluate(dic, [x - h])) / (2 * h)
            assert np.max(np.abs(exact - approx)) <= 1e-6


class TestGram:
    def test_legendre_orthonormal(self):
        dic = legendre(8)
        g = gram(dic, gauss_rule(uniform(dic.domain), 64))
        assert np.max(np.abs(g - np.eye(9))) <= 1e-12

    def test_monomial_moments(self):
        dic = parse_dictionary("monomial:1")
        g = gram(dic, gauss_rule(uniform(dic.domain), 16))
        assert g == pytest.approx(np.array([[1.0, 0.0], [0.0, 1.0 / 3.0]]), abs=1e-14)

    def test_fourier_trapezoid_identity(self):
        dic = parse_dictionary("fourier:2")
        g = gram(dic, gauss_rule(uniform(circle(1)), 16))
        assert np.max(np.abs(g - np.eye(5))) <= 1e-14

    def test_orthonormal_families_near_identity(self):
        cases = [
            (legendre(8), 17),
            (parse_dictionary("fourier:3"), 16),
            (parse_dictionary("sine:2"), 32),
        ]
        for dic, order in cases:
            g = gram(dic, gauss_rule(uniform(dic.domain), order))
            assert np.linalg.norm(g - np.eye(dic.size)) <= 1e-10

    def test_linear_independence_proxy(self):
        # smallest Gram eigenvalue stays well clear of zero for every family
        cases = [
            legendre(10),
            parse_dictionary("monomial:6"),
            parse_dictionary("fourier:4"),
            parse_dictionary("sine:5"),
        ]
        for dic in cases:
            g = gram(dic, gauss_rule(uniform(dic.domain), 64))
            assert np.linalg.eigvalsh(g)[0] > 1e-10


class TestValidation:
    def test_fourier_requires_circle(self):
        with pytest.raises(ValueError):
            Dictionary("fourier", 2, box(-1.0, 1.0))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Dictionary("chebyshev", 3, box(-1.0, 1.0))

    def test_sizes(self):
        assert parse_dictionary("legendre:8").size == 9
        assert parse_dictionary("fourier:2").size == 5
        assert parse_dictionary("sine:7").size == 1
