import numpy as np
import pytest

from edmdkit import (
    ConfigError,
    Dictionary,
    RankDeficiencyError,
    apply_batch,
    box,
    circle,
    data,
    derivative,
    evaluate,
    evaluate_batch,
    gauss_rule,
    generate_iid,
    gram,
    parse_dictionary,
    parse_measure,
    parse_system,
    uniform,
)
from edmdkit.dictionary import _BLOCK, _fold, _project, _reduce, _solve

from _oracles import quadrature_projection, weighted_lstsq, weighted_moments

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
        g = gram(dic, gauss_rule(uniform(circle()), 16))
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


def _gauss_case(m, max_deg=8):
    """legendre:<max_deg>, the m-node Gauss rule and the target psi o T on its
    nodes, as ``analytic._analytic_fits`` hands them over."""
    dic, rule = legendre(max_deg), gauss_rule(parse_measure("uniform:-1,1"), m)
    images = apply_batch(parse_system("logistic"), rule.nodes)
    return dic, rule, images, lambda cols: evaluate_batch(dic, images[:, cols])


def _reduction_case(name, m):
    """(R, psi, t, w) for m rows, reduced the way the library's callers hand
    them over: a snapshot pair through ``data._reduction``, a Gauss rule with
    its weights and a lazy target as in ``analytic._analytic_fits``."""
    family, size = name.split()[1].split(":")
    if name.startswith("gauss"):
        dic, rule, images, target = _gauss_case(m, int(size))
        r, _, _ = _reduce(dic, rule.nodes, target, rule.weights)
        return r, evaluate_batch(dic, rule.nodes), evaluate_batch(dic, images), rule.weights
    if name.startswith("rotation"):
        system = parse_system("rotation:omega=0.8378")
        dic, measure = parse_dictionary(f"fourier:{size}", system.domain), uniform(system.domain)
    else:  # logistic legendre: psi_0(X) = psi_0(Y) = 1, so [psi(X)^H | psi(Y)^H] is singular
        system, dic = parse_system("logistic"), legendre(int(size))
        measure = parse_measure("uniform:-1,1")
    pair = generate_iid(system, measure, m, seed=3)
    r, _, _ = data._reduction(pair, dic)
    return r, evaluate_batch(dic, pair.X), evaluate_batch(dic, pair.Y), np.ones(m)


class TestReduceSeams:
    """The blocked QR of dictionary._reduce against plain-numpy moments and
    lstsq on either side of each _BLOCK seam, with stacks of at most _NX
    columns (one QR per fold) and wider (``_fold``); M < N is the
    rank-deficient short input, and every case has an exactly singular
    [psi(X)^H | psi(Y)^H] (psi_0 = 1 on both sides; rotation only multiplies
    fourier modes)."""

    CASES = [(name, m) for name in ["logistic legendre:8", "rotation fourier:5",
                                    "gauss legendre:8"]
             for m in [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]]
    WIDE = [(name, m) for name in ["logistic legendre:64", "rotation fourier:32",
                                   "gauss legendre:64"]
            for m in [_BLOCK + 1, 3 * _BLOCK + 7]]

    @pytest.mark.parametrize("name, m", [*CASES, *WIDE, ("logistic legendre:8", 5)],
                             ids=str)
    def test_moments_and_fit_match_references(self, name, m):
        # seen: G within 2.7e-15, B within 1.2e-14 of max|G|; A within 3.4e-15
        # relative; row 0 of A within 1.3e-14 of e_0
        r, psi, t, w = _reduction_case(name, m)
        n = len(psi)
        assert r.shape == (n, n + len(t)) and np.array_equal(r, np.triu(r))
        g, b = weighted_moments(psi, t, w)
        r11, r12 = r[:, :n], r[:, n:]
        assert np.max(np.abs(r11.conj().T @ r11 - g)) <= 1e-12 * np.max(np.abs(g))
        assert np.max(np.abs(r11.conj().T @ r12 - b)) <= 1e-12 * np.max(np.abs(g))
        a, _ = _solve(r11, r12, m)  # the rows A, not A^H
        ref = weighted_lstsq(psi, t, w).conj().T
        assert np.linalg.norm(a - ref) <= 1e-12 * np.linalg.norm(ref)
        if m >= n:  # psi_0 = 1 on both sides; for M < N the minimum-norm row 0 is not e_0
            assert np.max(np.abs(a[0] - np.eye(n)[0])) <= 1e-12

    @pytest.mark.parametrize("name, m", [(name, m) for name, m in CASES if m <= _BLOCK]
                             + [("logistic legendre:8", 5)], ids=str)
    def test_one_block_is_one_qr_call(self, name, m):
        # at most _BLOCK rows: the leading n rows of one QR of all the rows,
        # bit for bit, zero rows below when there are fewer than n rows
        r, psi, t, w = _reduction_case(name, m)
        ref = np.linalg.qr(np.concatenate([psi, t]).conj().T * np.sqrt(w)[:, None], mode="r")
        k = min(len(psi), len(ref))
        assert np.array_equal(r[:k], ref[:k])
        assert not np.any(r[k:])

    def test_fold_with_an_identity_reflector(self):
        # psi_0 is zero on the block, so column 0 of the stack is zero below
        # the diagonal and its reflector has tau = 0 (v_0 set to 0, 1/tau unused)
        rng = np.random.default_rng(11)
        n, p = 65, 66
        top = np.linalg.qr(rng.standard_normal((_BLOCK, n + p)), mode="r")[:n]
        block = rng.standard_normal((_BLOCK, n + p))
        block[:, 0] = 0.0
        stack = np.asfortranarray(np.concatenate([top, block]))
        assert np.linalg.qr(stack[:, :n], mode="raw")[1][0] == 0.0
        folded = _fold(stack, n)
        ref = np.linalg.qr(stack, mode="r")[:n]
        assert np.all(np.isfinite(folded))
        assert np.max(np.abs(folded - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
    def test_projection_matches_gram_oracle(self, m):
        # the rule case through _project: rows c_i with c_i psi ~ psi_i o T, as
        # the normal equations on the same nodes give them
        dic, rule, images, target = _gauss_case(m)
        r, c, s = _project(dic, rule, target)
        assert np.array_equal(r, _reduce(dic, rule.nodes, target, rule.weights)[0])
        oracle = quadrature_projection(dic, rule, evaluate_batch(dic, images).T)
        assert np.max(np.abs(c - oracle.conj().T)) <= 1e-13
        assert s[0] >= s[-1] > 0.5  # orthonormal under the rule: sigma(R11) near 1

    @pytest.mark.parametrize("w", [1.0, np.zeros(0)], ids=["unit weights", "weighted"])
    def test_no_rows(self, w):
        with pytest.raises(ValueError, match="no rows"):
            _reduce(legendre(2), np.zeros((1, 0)), lambda cols: np.zeros((3, 0)), w)


class TestRankCutoff:
    """The one cutoff max(n, count) eps sigma_max of errors.check_rank: _solve
    keeps a direction exactly when the rank check passes, either side of it,
    with the count below and above n."""

    @pytest.mark.parametrize("count", [1, 10], ids=["count<n", "count>n"])
    @pytest.mark.parametrize("side", ["above", "at", "below"])
    def test_solve_keeps_what_the_check_passes(self, count, side):
        cutoff = max(2, count) * np.finfo(float).eps
        c = {"above": np.nextafter(cutoff, 1.0), "at": cutoff,
             "below": np.nextafter(cutoff, 0.0)}[side]
        r11 = np.diag([1.0, c])
        x, s = _solve(r11, np.eye(2), count)
        assert np.array_equal(s, [1.0, c])
        if side == "above":
            _solve(r11, np.eye(2), count, what="R11")
            assert x[1, 1] == 1.0 / c
        else:
            with pytest.raises(RankDeficiencyError) as info:
                _solve(r11, np.eye(2), count, what="R11")
            assert info.value.cutoff == cutoff and info.value.what == "R11"
            assert x[1, 1] == 0.0
        assert x[0, 0] == 1.0 and x[0, 1] == x[1, 0] == 0.0


class TestValidation:
    def test_fourier_requires_circle(self):
        with pytest.raises(ValueError):
            Dictionary("fourier", 2, box(-1.0, 1.0))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Dictionary("chebyshev", 3, box(-1.0, 1.0))

    @pytest.mark.parametrize("body", ["1_0", "+8", " 8", "8 ", "08", "-0", "", "8.0", "x"])
    def test_parameter_is_a_plain_integer(self, body):
        # int() reads the first five; the header would then name another dictionary
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_dictionary(f"legendre:{body}")

    def test_sine_mode_starts_at_one(self):
        with pytest.raises(ConfigError, match="sine mode must be >= 1"):
            parse_dictionary("sine:0")

    def test_sizes(self):
        assert parse_dictionary("legendre:8").size == 9
        assert parse_dictionary("fourier:2").size == 5
        assert parse_dictionary("sine:7").size == 1
