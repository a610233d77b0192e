import io

import numpy as np
import pytest

from edmdkit import (
    ConfigError,
    KoopmanMatrix,
    RankDeficiencyError,
    SnapshotPair,
    apply_operator,
    eig,
    evaluate_batch,
    fit_analytic,
    fit_edmd,
    gauss_rule,
    generate_iid,
    generate_trajectory,
    gram,
    parse_dictionary,
    parse_measure,
    parse_system,
    read_koopman_csv,
    residual_scale,
    theorem1_residual,
    transfer_matrix,
    uniform,
    write_koopman_csv,
)

from _oracles import gram_solve, quadrature_projection, svd_fit, theorem1_residual_form

LOGISTIC = parse_system("logistic")
UNIFORM11 = parse_measure("uniform:-1,1")


class TestFitEdmd:
    def test_identity_map_gives_identity(self):
        pair = generate_iid(parse_system("identity"), UNIFORM11, 50, seed=1)
        k = fit_edmd(pair, parse_dictionary("legendre:4"))
        assert np.max(np.abs(k.A - np.eye(5))) <= 1e-10

    def test_doubling_on_invariant_two_dim_span(self):
        # T(x) = 2x on span{1, x} reproduces the exact matrix from two points
        x = np.array([[1.0, -1.0]])
        pair = SnapshotPair(x, 2.0 * x, "iid:seed=0;M=2")
        k = fit_edmd(pair, parse_dictionary("monomial:1"))
        assert np.max(np.abs(k.A - np.diag([1.0, 2.0]))) <= 1e-12

    def test_rotation_fourier_is_diagonal(self):
        omega = 0.7
        system = parse_system(f"rotation:omega={omega}")
        dic = parse_dictionary("fourier:3", system.domain)
        pair = generate_iid(system, uniform(system.domain), 200, seed=3)
        k = fit_edmd(pair, dic)
        expected = np.diag(np.exp(1j * dic.fourier_modes() * omega))
        assert np.max(np.abs(k.A - expected)) <= 1e-10

    def test_minimizer_property(self):
        pair = generate_iid(LOGISTIC, UNIFORM11, 300, seed=8)
        dic = parse_dictionary("legendre:5")
        k = fit_edmd(pair, dic)
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        base = np.linalg.norm(k.A @ psix - psiy)
        rng = np.random.default_rng(13)
        for _ in range(20):
            e = rng.standard_normal(k.A.shape)
            b = k.A + 1e-3 * e / np.linalg.norm(e)
            assert np.linalg.norm(b @ psix - psiy) >= base - 1e-12

    def test_diagnostics_record_conditioning(self):
        pair = generate_iid(LOGISTIC, UNIFORM11, 500, seed=0)
        k = fit_edmd(pair, parse_dictionary("legendre:8"))
        assert k.sigma_max > k.sigma_min > 0
        assert k.condition < 1e4
        assert k.provenance == "sampled:seed=0;M=500"

    def test_tikhonov_zero_matches_default(self):
        pair = generate_iid(LOGISTIC, UNIFORM11, 100, seed=2)
        dic = parse_dictionary("legendre:4")
        a = fit_edmd(pair, dic).A
        b = fit_edmd(pair, dic, tikhonov=1e-9).A
        assert np.max(np.abs(a - b)) <= 1e-7

    @pytest.mark.parametrize("t", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_tikhonov_must_be_finite_and_nonnegative(self, t):
        pair = generate_iid(LOGISTIC, UNIFORM11, 50, seed=0)
        with pytest.raises(ConfigError, match="tikhonov"):
            fit_edmd(pair, parse_dictionary("legendre:4"), tikhonov=t)

    @pytest.mark.parametrize("t", [1e-3, 1.0])
    @pytest.mark.parametrize("case", ["legendre", "fourier"])
    def test_tikhonov_matches_normal_equations(self, case, t):
        if case == "legendre":
            system, dic, mu = LOGISTIC, parse_dictionary("legendre:8"), UNIFORM11
        else:
            system = parse_system("rotation:omega=0.7")
            dic, mu = parse_dictionary("fourier:3", system.domain), uniform(system.domain)
        pair = generate_iid(system, mu, 200, seed=3)
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        g = psix @ psix.conj().T + t * np.eye(dic.size)
        ref = np.linalg.solve(g.T, (psiy @ psix.conj().T).T).T
        a = fit_edmd(pair, dic, tikhonov=t).A
        assert np.linalg.norm(a - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_fewer_samples_than_dictionary(self):
        # M = 5 < N = 9: psi(X) has rank 5, so the fit is not well conditioned
        pair = generate_iid(LOGISTIC, UNIFORM11, 5, seed=0)
        dic = parse_dictionary("legendre:8")
        k = fit_edmd(pair, dic)
        assert k.sigma_min == 0.0 and k.condition == np.inf
        with pytest.raises(RankDeficiencyError):
            theorem1_residual(k, pair, dic)

    def test_convergence_to_analytic_along_m(self):
        # median Frobenius gap to the sampling-free matrix shrinks with M
        dic = parse_dictionary("legendre:8")
        k_an = fit_analytic(LOGISTIC, dic, UNIFORM11)
        medians = []
        for m in [100, 1000, 10000, 100000]:
            gaps = [
                np.linalg.norm(fit_edmd(generate_iid(LOGISTIC, UNIFORM11, m, s), dic).A - k_an.A)
                for s in range(5)
            ]
            medians.append(np.median(gaps))
        assert all(a > b for a, b in zip(medians, medians[1:]))


def _regime(name, rng):
    """(fit, reference A, sigma_max, sigma_min) for one least-squares regime:
    sampled fits against the SVD of the wide psi(X), analytic fits against
    the eigendecomposition of G, whose eigenvalues are sigma(R11)^2."""
    rot = parse_system("rotation:omega=0.8378")
    if name.startswith("analytic"):
        dic = parse_dictionary(name.split()[1])
        rule = gauss_rule(UNIFORM11, 64)
        a_h, lam = gram_solve(gram(dic, rule), transfer_matrix(LOGISTIC, dic, rule).conj().T)
        return fit_analytic(LOGISTIC, dic, UNIFORM11), a_h.conj().T, *np.sqrt(lam[[-1, 0]])
    t = 0.0
    if name == "rank-deficient":  # four atoms, each repeated five times
        x = np.repeat(rng.uniform(-1.0, 1.0, (1, 4)), 5, axis=1)
        pair, dic = SnapshotPair(x, 2 * x**2 - 1, "iid:seed=0;M=20"), parse_dictionary("legendre:8")
    elif name == "M < N":
        pair, dic = generate_iid(LOGISTIC, UNIFORM11, 5, 1), parse_dictionary("legendre:8")
    elif name == "M = N trajectory":
        pair = generate_trajectory(rot, [rng.uniform(0.0, 2 * np.pi)], 15)
        dic = parse_dictionary("fourier:7", rot.domain)
    elif name == "tikhonov":
        pair, dic = generate_iid(LOGISTIC, UNIFORM11, 200, 2), parse_dictionary("monomial:10")
        t = 1e-3
    else:  # complex fourier
        pair = generate_iid(rot, uniform(rot.domain), 300, 3)
        dic = parse_dictionary("fourier:5", rot.domain)
    ref = svd_fit(evaluate_batch(dic, pair.X), evaluate_batch(dic, pair.Y), t)
    return fit_edmd(pair, dic, tikhonov=t), *ref


class TestReferencePaths:
    @pytest.mark.parametrize("regime", ["rank-deficient", "M < N", "M = N trajectory", "tikhonov",
                                        "complex fourier", "analytic legendre:8",
                                        "analytic monomial:4"])
    def test_reduction_matches_reference(self, regime):
        # seen: A within 9.1e-15 relative, each sigma within 1.3e-15 of sigma_max
        k, a, sigma_max, sigma_min = _regime(regime, np.random.default_rng(7))
        assert np.linalg.norm(k.A - a) <= 1e-12 * np.linalg.norm(a)
        assert k.sigma_max == pytest.approx(sigma_max, rel=1e-13)
        assert abs(k.sigma_min - sigma_min) <= 1e-13 * sigma_max
        if regime == "M < N":
            assert k.sigma_min == sigma_min == 0.0


class TestApplyOperator:
    def test_identity_matrix_is_noop(self):
        pair = generate_iid(parse_system("identity"), UNIFORM11, 60, seed=1)
        k = fit_edmd(pair, parse_dictionary("legendre:3"))
        c = np.array([1.0, 2.0, -0.5, 0.25], dtype=complex)
        assert np.max(np.abs(apply_operator(k, c) - c)) <= 1e-10

    def test_rotation_composition_pointwise(self):
        omega = 1.1
        system = parse_system(f"rotation:omega={omega}")
        dic = parse_dictionary("fourier:2", system.domain)
        pair = generate_iid(system, uniform(system.domain), 100, seed=5)
        k = fit_edmd(pair, dic)
        modes = dic.fourier_modes()
        xs = np.linspace(0, 2 * np.pi, 100, endpoint=False)[None, :]
        psi = evaluate_batch(dic, xs)
        for idx, mode in enumerate(modes):
            c = np.zeros(dic.size, dtype=complex)
            c[idx] = 1.0
            out = apply_operator(k, c)
            assert out[idx] == pytest.approx(np.exp(-1j * mode * omega), abs=1e-10)
            values = out.conj() @ psi
            composed = np.exp(1j * mode * (xs[0] + omega))
            assert np.max(np.abs(values - composed)) <= 1e-10

    def test_logistic_analytic_matches_projection_oracle(self):
        dic = parse_dictionary("legendre:8")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        c = np.zeros(9, dtype=complex)
        c[1] = 1.0  # sqrt(3) x
        out = apply_operator(k, c)
        rule = gauss_rule(UNIFORM11, 64)
        composed = np.sqrt(3.0) * (2.0 * rule.nodes[0] ** 2 - 1.0)
        oracle = quadrature_projection(dic, rule, composed)
        values = out.conj() @ evaluate_batch(dic, rule.nodes)
        oracle_values = oracle.conj() @ evaluate_batch(dic, rule.nodes)
        assert np.max(np.abs(values - oracle_values)) <= 1e-8

    def test_length_mismatch(self):
        pair = generate_iid(LOGISTIC, UNIFORM11, 30, seed=0)
        k = fit_edmd(pair, parse_dictionary("legendre:3"))
        with pytest.raises(ValueError):
            apply_operator(k, np.ones(7))


class TestTheorem1Residual:
    def test_invariant_subspace_cases_are_exact(self):
        cases = [
            (parse_system("identity"), parse_dictionary("legendre:4"), UNIFORM11),
        ]
        omega = 0.4
        rot = parse_system(f"rotation:omega={omega}")
        cases.append((rot, parse_dictionary("fourier:2", rot.domain), uniform(rot.domain)))
        for system, dic, mu in cases:
            pair = generate_iid(system, mu, 150, seed=7)
            k = fit_edmd(pair, dic)
            assert theorem1_residual(k, pair, dic) <= 1e-12

    def test_logistic_residual_scaled(self):
        pair = generate_iid(LOGISTIC, UNIFORM11, 1000, seed=11)
        dic = parse_dictionary("legendre:8")
        k = fit_edmd(pair, dic)
        assert theorem1_residual(k, pair, dic) <= 1e-8 * residual_scale(pair, dic)

    def test_square_interpolation_case(self):
        pair = generate_trajectory(LOGISTIC, [0.31], 9)
        dic = parse_dictionary("legendre:8")
        k = fit_edmd(pair, dic)
        assert theorem1_residual(k, pair, dic) <= 1e-10

    def test_foreign_dictionary_raises(self):
        # monomial:4 has the fit's size: unchecked it returns 0.163, not roundoff
        dic = parse_dictionary("legendre:4")
        pair = generate_iid(LOGISTIC, UNIFORM11, 1000, seed=1)
        k = fit_edmd(pair, dic)
        with pytest.raises(ValueError, match="not the fit's dictionary"):
            theorem1_residual(k, pair, parse_dictionary("monomial:4"))
        assert theorem1_residual(k, pair, dic) <= 1e-13

    @pytest.mark.parametrize("system_spec, spec, fit", [
        ("logistic", "legendre:8", "analytic"),
        ("logistic", "monomial:10", "analytic"),
        ("logistic", "legendre:8", "tikhonov"),
        ("logistic", "monomial:10", "tikhonov"),
        ("rotation:omega=0.4", "fourier:3", "tikhonov"),
    ])
    def test_moment_form_matches_residual_form(self, system_spec, spec, fit):
        # matrices that are not the pair's least-squares fit, so the defect is
        # far above roundoff and both forms have digits to agree on
        system = parse_system(system_spec)
        dic = parse_dictionary(spec, system.domain)
        mu = uniform(system.domain)
        pair = generate_iid(system, mu, 1000, seed=5)
        if fit == "analytic":
            k = fit_analytic(system, dic, mu)
        else:
            k = fit_edmd(pair, dic, tikhonov=1.0)
        oracle = theorem1_residual_form(k.A, evaluate_batch(dic, pair.X),
                                        evaluate_batch(dic, pair.Y))
        assert oracle > 1e-6
        assert theorem1_residual(k, pair, dic) == pytest.approx(oracle, rel=1e-10)

    def test_rank_deficiency_reported(self):
        x = np.full((1, 5), 0.3)  # single repeated atom
        pair = SnapshotPair(x, 2 * x**2 - 1, "iid:seed=0;M=5")
        dic = parse_dictionary("legendre:3")
        k = fit_edmd(pair, dic)
        with pytest.raises(RankDeficiencyError):
            theorem1_residual(k, pair, dic)


class TestMatrixDtype:
    """A is stored as float64 when no entry has a nonzero imaginary part."""

    @pytest.mark.parametrize("spec", ["legendre:6", "monomial:4", "sine:3"])
    def test_real_dictionaries_give_real_a(self, spec):
        dic = parse_dictionary(spec)
        k = fit_edmd(generate_iid(LOGISTIC, UNIFORM11, 200, seed=6), dic)
        assert k.A.dtype == np.float64 and k.A.flags.c_contiguous
        if dic.family != "sine":
            assert fit_analytic(LOGISTIC, dic, UNIFORM11).A.dtype == np.float64

    def test_fourier_gives_complex_a(self):
        system = parse_system("rotation:omega=0.3")
        dic = parse_dictionary("fourier:2", system.domain)
        k = fit_edmd(generate_iid(system, uniform(system.domain), 64, seed=2), dic)
        assert k.A.dtype == np.complex128
        assert fit_analytic(system, dic, uniform(system.domain)).A.dtype == np.complex128

    def test_hand_built_matrices(self):
        dic = parse_dictionary("legendre:2")
        k = KoopmanMatrix(np.eye(3, dtype=complex), dic, "analytic:order=0", 1.0, 1.0)
        assert k.A.dtype == np.float64 and np.array_equal(k.A, np.eye(3))
        a = np.asfortranarray(np.arange(9.0).reshape(3, 3) - 4.0 + 0j)
        a[2, 0] += 1e-300j
        k = KoopmanMatrix(a, dic, "analytic:order=0", 1.0, 1.0)
        assert k.A.dtype == np.complex128 and k.A.flags.c_contiguous
        assert k.A.tobytes() == np.ascontiguousarray(a).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (2, 2), (4, 4), (3,)], ids=str)
    def test_a_must_fit_the_dictionary(self, shape):
        # legendre:2 has three elements: only a 3 x 3 A is a Koopman matrix of it
        with pytest.raises(ValueError, match="3 x 3"):
            KoopmanMatrix(np.ones(shape), parse_dictionary("legendre:2"),
                          "analytic:order=0", 1.0, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)], ids=str)
    def test_a_must_be_finite(self, value):
        a = np.eye(3, dtype=complex)
        a[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            KoopmanMatrix(a, parse_dictionary("legendre:2"), "analytic:order=0", 1.0, 1.0)


class TestCsv:
    def test_round_trip_bitexact(self):
        pair = generate_iid(LOGISTIC, UNIFORM11, 200, seed=6)
        k = fit_edmd(pair, parse_dictionary("legendre:6"))
        buf = io.StringIO()
        write_koopman_csv(k, buf)
        # a real A is still written as re,im pairs
        rows = buf.getvalue().splitlines()[2:]
        assert len(rows) == 7 and all(row.split(",")[1::2] == ["0.0"] * 7 for row in rows)
        buf.seek(0)
        back = read_koopman_csv(buf)
        assert back.A.dtype == np.float64
        assert back.A.tobytes() == k.A.tobytes()
        assert eig(back).eigenvalues.tobytes() == eig(k).eigenvalues.tobytes()
        assert back.provenance == k.provenance
        assert back.dictionary == k.dictionary
        assert repr(back.sigma_max) == repr(k.sigma_max)
        assert repr(back.sigma_min) == repr(k.sigma_min)
        buf2 = io.StringIO()
        write_koopman_csv(back, buf2)
        assert buf2.getvalue() == buf.getvalue()

    def test_reader_rejects_a_matrix_that_does_not_fit_its_dictionary(self):
        # a 2 x 2 table (N = 2, consistent in itself) labelled legendre:8, size 9
        pair = generate_iid(LOGISTIC, UNIFORM11, 20, seed=6)
        buf = io.StringIO()
        write_koopman_csv(fit_edmd(pair, parse_dictionary("legendre:1")), buf)
        text = buf.getvalue()
        assert text.count(",legendre:1,") == 1
        with pytest.raises(ValueError, match="9 x 9"):
            read_koopman_csv(io.StringIO(text.replace(",legendre:1,", ",legendre:8,")))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_reader_rejects_a_non_finite_cell(self, cell):
        pair = generate_iid(LOGISTIC, UNIFORM11, 20, seed=6)
        buf = io.StringIO()
        write_koopman_csv(fit_edmd(pair, parse_dictionary("legendre:1")), buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[-1] = ",".join([cell, *lines[-1].split(",")[1:]])
        with pytest.raises(ValueError, match="non-finite"):
            read_koopman_csv(io.StringIO("".join(lines)))

    def test_round_trip_complex_fourier(self):
        system = parse_system("rotation:omega=0.3")
        pair = generate_iid(system, uniform(system.domain), 64, seed=2)
        k = fit_edmd(pair, parse_dictionary("fourier:2", system.domain))
        buf = io.StringIO()
        write_koopman_csv(k, buf)
        buf.seek(0)
        back = read_koopman_csv(buf)
        assert back.A.dtype == np.complex128
        assert back.A.tobytes() == k.A.tobytes()
        assert eig(back).eigenvalues.tobytes() == eig(k).eigenvalues.tobytes()
