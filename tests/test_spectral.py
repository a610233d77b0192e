import dataclasses
import io
import math

import numpy as np
import pytest

from edmdkit import (
    Eigenmeasure,
    EigensolverError,
    KoopmanMatrix,
    RankDeficiencyError,
    box,
    eig,
    eigenfunction_values,
    eigenmeasure_extract,
    evaluate_batch,
    fit_analytic,
    fit_edmd,
    gauss_rule,
    generate_iid,
    generate_trajectory,
    hausdorff,
    oscillation_seminorm,
    parse_dictionary,
    parse_measure,
    parse_system,
    pf_check,
    read_spectrum_csv,
    uniform,
    write_eigenmeasure_csv,
    write_spectrum_csv,
)

from _oracles import complex_eig, power_deflate_eigs, set_distance

LOGISTIC = parse_system("logistic")
UNIFORM11 = parse_measure("uniform:-1,1")


def identity_koopman(n=4):
    dic = parse_dictionary(f"legendre:{n - 1}")
    return KoopmanMatrix(np.eye(n, dtype=complex), dic, "analytic:order=0", 1.0, 1.0)


def rotation_fit(omega, max_mode=2, m=200, seed=3):
    system = parse_system(f"rotation:omega={omega}")
    dic = parse_dictionary(f"fourier:{max_mode}", system.domain)
    pair = generate_iid(system, uniform(system.domain), m, seed)
    return system, dic, fit_edmd(pair, dic)


class TestEig:
    def test_identity_spectrum(self):
        d = eig(identity_koopman())
        assert np.max(np.abs(d.eigenvalues - 1.0)) <= 1e-14

    def test_rotation_fourier_eigenvalues(self):
        _, dic, k = rotation_fit(math.pi / 3.0)
        d = eig(k)
        expected = np.exp(1j * np.arange(-2, 3) * math.pi / 3.0)
        assert set_distance(d.eigenvalues, expected) <= 1e-10

    def test_logistic_matches_power_iteration_oracle(self):
        k = fit_analytic(LOGISTIC, parse_dictionary("legendre:8"), UNIFORM11)
        d = eig(k)
        oracle = power_deflate_eigs(k.A)
        assert set_distance(d.eigenvalues, oracle) <= 1e-6

    def test_left_eigenvector_relation_and_residuals(self):
        k = fit_analytic(LOGISTIC, parse_dictionary("legendre:8"), UNIFORM11)
        d = eig(k)
        norm_a = np.linalg.norm(k.A)
        for j in range(d.size):
            w = d.eigen_coeffs[:, j]
            rel = np.linalg.norm(w.conj() @ k.A - d.eigenvalues[j] * w.conj())
            assert rel <= 1e-8 * norm_a
            assert d.residuals[j] <= 1e-8 * norm_a

    def test_sorted_by_magnitude_then_argument(self):
        k = fit_analytic(LOGISTIC, parse_dictionary("legendre:8"), UNIFORM11)
        d = eig(k)
        mags = np.abs(d.eigenvalues)
        tie = 1e-12 * mags.max()
        assert np.all(np.diff(mags) <= d.size * tie)
        # magnitudes within the tie tolerance (conjugate pairs, the near-zero
        # cluster) are ordered by argument; a larger gap goes down in magnitude
        args = np.angle(d.eigenvalues)
        assert any(0.0 < ma - mb <= tie for ma, mb in zip(mags, mags[1:]))
        for a, b, ma, mb in zip(args, args[1:], mags, mags[1:]):
            assert a <= b if abs(ma - mb) <= tie else mb < ma

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equal_moduli_order_survives_roundoff(self, seed):
        # every eigenvalue of a rotation on a fourier span has modulus 1 up to
        # roundoff, so a 1e-15 change of A must leave the order, and with it
        # the meaning of --pair j, as it is
        _, _, k = rotation_fit(0.8378, max_mode=7)
        e = np.random.default_rng(seed).standard_normal(k.A.shape)
        moved = eig(dataclasses.replace(k, A=k.A + 1e-15 * e)).eigenvalues
        assert np.max(np.abs(moved - eig(k).eigenvalues)) <= 1e-12

    def test_non_convergence_is_eigensolver_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", no_convergence)
        with pytest.raises(EigensolverError, match="did not converge") as info:
            eig(rotation_fit(0.4)[2])
        assert np.isfinite(info.value.condition) and info.value.condition >= 1.0

    def test_repeated_calls_bit_identical(self):
        k = fit_analytic(LOGISTIC, parse_dictionary("legendre:8"), UNIFORM11)
        d1, d2 = eig(k), eig(k)
        assert d1.eigenvalues.tobytes() == d2.eigenvalues.tobytes()
        assert d1.eigen_coeffs.tobytes() == d2.eigen_coeffs.tobytes()

    def test_reconstruction_when_diagonalizable(self):
        _, _, k = rotation_fit(0.8, max_mode=3)
        d = eig(k)
        w = d.eigen_coeffs
        # w_j^H A = lambda_j w_j^H stacked gives W^H A = diag(lambda) W^H
        a_back = np.linalg.solve(w.conj().T, np.diag(d.eigenvalues) @ w.conj().T)
        assert np.linalg.norm(a_back - k.A) <= 1e-6 * np.linalg.norm(k.A)

    def test_invariant_subspace_affine_monomial(self):
        system = parse_system("affine:a=0.5,b=0.2")
        dic = parse_dictionary("monomial:3")
        pair = generate_iid(system, UNIFORM11, 100, seed=2)
        d = eig(fit_edmd(pair, dic))
        assert set_distance(d.eigenvalues, [1.0, 0.5, 0.25, 0.125]) <= 1e-10


class TestRealEigensolver:
    """eig of a real A, which numpy hands to LAPACK's real solver, against
    ``complex_eig``: the complex solve of the same values that every A took
    when Koopman matrices were always stored complex."""

    WELL_CONDITIONED = ["analytic legendre:8", "analytic legendre:16", "sampled legendre:64"]
    TRAJECTORY = "trajectory legendre:99"
    EPS = np.finfo(float).eps

    @staticmethod
    def fit(name):
        kind, spec = name.split()
        dic = parse_dictionary(spec)
        if kind == "analytic":
            return fit_analytic(LOGISTIC, dic, UNIFORM11)
        if kind == "sampled":
            return fit_edmd(generate_iid(LOGISTIC, UNIFORM11, 10_000, seed=1), dic)
        # acceptance criterion 8's M = N = 100 orbit: cond(psi(X)) ~ 1e16, ||A||_2 ~ 6e11
        return fit_edmd(generate_trajectory(LOGISTIC, [0.31], 100), dic)

    @pytest.mark.parametrize("name", [*WELL_CONDITIONED, TRAJECTORY])
    def test_real_a_gives_exact_conjugate_pairs(self, name):
        k = self.fit(name)
        lam = eig(k).eigenvalues
        assert k.A.dtype == np.float64 and lam.dtype == np.complex128
        # the multiset equals its conjugate exactly, and a real eigenvalue's
        # imaginary part is +0.0
        assert np.array_equal(np.sort_complex(lam), np.sort_complex(lam.conj()))
        assert not np.any(np.signbit(lam.imag[lam.imag == 0.0]))

    @pytest.mark.parametrize("name", WELL_CONDITIONED)
    def test_matches_complex_path(self, name):
        # outside the near-zero cluster (|lambda| <= 8.2e-12 here: the
        # defective eigenvalue 0 of the analytic fits) seen: eigenvalue sets
        # within 9.6e-16, 1.7e-15 and 3.7e-15, residuals within 3.3 eps ||A||_F;
        # in the cluster residuals up to 3.5e-9, and 3.8e-9 on the complex path
        k = self.fit(name)
        d = eig(k)
        lam0, _, res0 = complex_eig(k.A)
        big, big0 = np.abs(d.eigenvalues) > 1e-9, np.abs(lam0) > 1e-9
        assert np.count_nonzero(big) == np.count_nonzero(big0)
        assert set_distance(d.eigenvalues[big], lam0[big0]) <= 2e-14
        # eigenvalues the complex path puts within roundoff of the axis are exactly real
        assert (np.count_nonzero(d.eigenvalues[big].imag == 0.0)
                == np.count_nonzero(np.abs(lam0[big0].imag) <= 1e-12))
        assert np.max(d.residuals[big]) <= 16 * self.EPS * np.linalg.norm(k.A)
        assert np.max(d.residuals) <= 10 * np.max(res0)

    def test_ill_conditioned_trajectory_fit_is_backward_stable(self):
        # the two paths' eigenvalue sets lie 213 apart here, as backward
        # errors of eps ||A|| ~ 1e-4 allow; each real-path eigenvalue is an eigenvalue
        # of A + E with ||E||_2 <= N eps ||A||_2 (seen 1.3e-18 ||A||_2), and
        # the residuals stay at the complex path's (seen 0.75 of its largest)
        k = self.fit(self.TRAJECTORY)
        d = eig(k)
        _, _, res0 = complex_eig(k.A)
        n, norm2 = k.size, np.linalg.norm(k.A, 2)
        smin = [np.linalg.svd(k.A - lam * np.eye(n), compute_uv=False)[-1]
                for lam in d.eigenvalues]
        assert max(smin) <= n * self.EPS * norm2
        assert np.max(d.residuals) <= 10 * np.max(res0)

    def test_complex_a_keeps_the_complex_path(self):
        _, _, k = rotation_fit(0.8378, max_mode=4)
        assert k.A.dtype == np.complex128
        d = eig(k)
        for got, ref in zip((d.eigenvalues, d.eigen_coeffs, d.residuals), complex_eig(k.A)):
            assert np.array_equal(got, ref)


class TestHausdorff:
    def test_equal_sets(self):
        assert hausdorff([1 + 1j, 2.0], [2.0, 1 + 1j]) == 0.0

    def test_asymmetric_example(self):
        assert hausdorff([0.0], [3.0, 4.0]) == pytest.approx(4.0)

    def test_singletons(self):
        assert hausdorff([1.0], [0.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hausdorff([], [1.0])

    def test_metric_properties_on_random_sets(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sizes = rng.integers(1, 11, size=3)
            a, b, c = (
                rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in sizes
            )
            dab, dba = hausdorff(a, b), hausdorff(b, a)
            assert dab == dba
            assert dab <= hausdorff(a, c) + hausdorff(c, b) + 1e-12


class TestEigenfunctions:
    def test_identity_constant_eigenfunction(self):
        k = identity_koopman()
        d = eig(k)
        for x in [-0.7, 0.0, 0.9]:
            assert eigenfunction_values(d, 0, k.dictionary, [[x]])[0] == pytest.approx(1.0)

    def test_index_bounds(self):
        k = identity_koopman()
        d = eig(k)
        with pytest.raises(IndexError):
            eigenfunction_values(d, 7, k.dictionary, [[0.0]])

    def test_rotation_unit_modulus(self):
        _, dic, k = rotation_fit(1.0)
        d = eig(k)
        xs = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)[None, :]
        for j in range(d.size):
            vals = eigenfunction_values(d, j, dic, xs)
            # unit-norm coefficient on a single mode: modulus is constant
            assert np.max(np.abs(np.abs(vals) - np.abs(vals[0]))) <= 1e-10

    def test_eigenrelation_at_interpolation_nodes(self):
        n = 9
        dic = parse_dictionary(f"legendre:{n - 1}")
        pair = generate_trajectory(LOGISTIC, [0.31], n)
        k = fit_edmd(pair, dic)
        d = eig(k)
        for j in range(n):
            phi_x = eigenfunction_values(d, j, dic, pair.X)
            phi_tx = eigenfunction_values(d, j, dic, pair.Y)
            scale = max(1.0, float(np.max(np.abs(phi_x))))
            defect = np.max(np.abs(phi_tx - d.eigenvalues[j] * phi_x))
            assert defect <= 1e-8 * scale


class TestOscillationSeminorm:
    def test_constant_eigenfunction_scores_zero(self):
        k = identity_koopman()
        d = eig(k)
        rule = gauss_rule(UNIFORM11, 32)
        assert oscillation_seminorm(d, 0, k.dictionary, rule) <= 1e-12

    @pytest.mark.parametrize("mode,expected", [(1, 4 * math.pi**2), (10, 400 * math.pi**2)])
    def test_sine_probe_gradient_energy(self, mode, expected):
        dic = parse_dictionary(f"sine:{mode}")
        k = KoopmanMatrix(np.eye(1, dtype=complex), dic, "analytic:order=0", 1.0, 1.0)
        d = eig(k)
        rule = gauss_rule(uniform(dic.domain), 128)
        value = oscillation_seminorm(d, 0, dic, rule)
        assert value == pytest.approx(expected, rel=1e-8)

    def test_high_mode_scores_larger(self):
        # the spurious-eigenvalue heuristic: oscillation grows like mode^2
        rule = gauss_rule(uniform(box(0.0, 1.0)), 256)
        vals = []
        for mode in [1, 4, 16]:
            dic = parse_dictionary(f"sine:{mode}")
            k = KoopmanMatrix(np.eye(1, dtype=complex), dic, "analytic:order=0", 1.0, 1.0)
            vals.append(oscillation_seminorm(eig(k), 0, dic, rule))
        assert vals[0] < vals[1] < vals[2]


def rotation_orbit_case(n=15, k_num=2, x0=0.7):
    omega = 2.0 * math.pi * k_num / n
    system = parse_system(f"rotation:omega={omega}")
    dic = parse_dictionary(f"fourier:{(n - 1) // 2}", system.domain)
    pair = generate_trajectory(system, [x0], n)
    return system, dic, pair, fit_edmd(pair, dic)


class TestEigenmeasure:
    def test_identity_single_atom_consistency(self):
        system = parse_system("identity")
        dic = parse_dictionary("legendre:0")
        pair = generate_trajectory(system, [0.4], 1)
        k = fit_edmd(pair, dic)
        d = eig(k)
        nu = eigenmeasure_extract(k, d, 0, pair)
        assert nu.eigenvalue == pytest.approx(1.0)
        phi = nu.weights * nu.count
        assert np.sum(np.ones(1) * nu.weights) == pytest.approx(np.mean(phi))
        # T = id with eigenvalue one leaves no Perron-Frobenius defect at all
        fns = [lambda p: np.ones(p.shape[1]), lambda p: p[0], lambda p: p[0] ** 2]
        for res in pf_check(nu, system, fns):
            assert res.r2 == 0.0

    def test_requires_trajectory_data(self):
        pair = generate_iid(LOGISTIC, UNIFORM11, 9, seed=1)
        dic = parse_dictionary("legendre:8")
        k = fit_edmd(pair, dic)
        d = eig(k)
        with pytest.raises(ValueError):
            eigenmeasure_extract(k, d, 0, pair)

    def test_requires_square_data(self):
        pair = generate_trajectory(LOGISTIC, [0.31], 12)
        dic = parse_dictionary("legendre:8")
        k = fit_edmd(pair, dic)
        d = eig(k)
        with pytest.raises(ValueError):
            eigenmeasure_extract(k, d, 0, pair)

    def test_singular_interpolation_matrix_raises(self):
        # long logistic trajectories make psi(X) numerically singular
        n = 100
        dic = parse_dictionary(f"legendre:{n - 1}")
        pair = generate_trajectory(LOGISTIC, [0.31], n)
        k = fit_edmd(pair, dic)
        d = eig(k)
        with pytest.raises(RankDeficiencyError):
            eigenmeasure_extract(k, d, 0, pair)

    def test_sup_normalization_and_mass_bound(self):
        _, dic, pair, k = rotation_orbit_case()
        d = eig(k)
        rng = np.random.default_rng(12)
        for j in range(0, d.size, 3):
            nu = eigenmeasure_extract(k, d, j, pair)
            phi = nu.weights * nu.count
            assert np.max(np.abs(phi)) == pytest.approx(1.0, abs=1e-12)
            for _ in range(5):
                h = rng.standard_normal(nu.count)
                assert abs(np.sum(h * nu.weights)) <= np.max(np.abs(h)) + 1e-12

    def test_rotation_orbit_against_dense_eigensolve_oracle(self):
        # the interpolation eigensystem in nodal coordinates: phi-values at
        # the atoms are left eigenvectors of psi(X)^{-1} psi(Y)
        _, dic, pair, k = rotation_orbit_case()
        d = eig(k)
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        b = np.linalg.solve(psix, psiy)
        lam_o, v_o = np.linalg.eig(b.T)
        for j in range(d.size):
            nu = eigenmeasure_extract(k, d, j, pair)
            i = int(np.argmin(np.abs(lam_o - nu.eigenvalue)))
            assert abs(lam_o[i] - nu.eigenvalue) <= 1e-9
            phi = nu.weights * nu.count
            oracle = v_o[:, i]
            oracle = oracle / oracle[np.argmax(np.abs(phi))] * phi[np.argmax(np.abs(phi))]
            assert np.max(np.abs(oracle - phi)) <= 1e-8

    def test_rotation_orbit_dominant_eigenfunction_modulus(self):
        # every fourier eigenfunction has constant modulus on the orbit, so
        # atom weights all sit at 1/N after sup normalization
        _, dic, pair, k = rotation_orbit_case()
        d = eig(k)
        nu = eigenmeasure_extract(k, d, 0, pair)
        assert np.max(np.abs(np.abs(nu.weights) - 1.0 / nu.count)) <= 1e-10


class TestPfCheck:
    def fns(self):
        return [
            lambda p: np.ones(p.shape[1]),
            lambda p: p[0],
            lambda p: p[0] ** 2,
        ]

    def test_r1_vanishes_under_exact_interpolation(self):
        for case in [rotation_orbit_case()]:
            system, dic, pair, k = case
            d = eig(k)
            for j in range(d.size):
                nu = eigenmeasure_extract(k, d, j, pair)
                for res in pf_check(nu, system, self.fns()):
                    assert res.r1 <= 1e-10

    def test_r1_logistic_small_n(self):
        n = 9
        dic = parse_dictionary(f"legendre:{n - 1}")
        pair = generate_trajectory(LOGISTIC, [0.31], n)
        k = fit_edmd(pair, dic)
        d = eig(k)
        for j in range(n):
            nu = eigenmeasure_extract(k, d, j, pair)
            for res in pf_check(nu, LOGISTIC, self.fns()):
                assert res.r1 <= 1e-10

    def test_r2_zero_on_periodic_orbit(self):
        # the trajectory closes, so the boundary term cancels exactly
        system, dic, pair, k = rotation_orbit_case()
        d = eig(k)
        nu = eigenmeasure_extract(k, d, 0, pair)
        for res in pf_check(nu, system, self.fns()):
            assert res.r2 is not None
            assert res.r2 <= 1e-9

    def test_r2_equals_boundary_term(self):
        # eliminating the eigenrelation leaves only the two endpoint atoms;
        # pf_check must reproduce that closed form
        n = 9
        dic = parse_dictionary(f"legendre:{n - 1}")
        pair = generate_trajectory(LOGISTIC, [0.31], n)
        k = fit_edmd(pair, dic)
        d = eig(k)
        x_tail = pair.Y[:, -1:]
        for j in range(n):
            nu = eigenmeasure_extract(k, d, j, pair)
            lam = nu.eigenvalue
            if abs(lam) <= 0.5:
                continue
            phi = nu.weights * n
            for h, res in zip(self.fns(), pf_check(nu, LOGISTIC, self.fns())):
                boundary = abs(
                    h(x_tail)[0] * nu.tail_value - h(pair.X[:, :1])[0] * phi[0]
                ) / (n * abs(lam))
                assert res.r2 == pytest.approx(boundary, abs=1e-10)

    def test_zero_eigenvalue_skips_r2(self):
        nu = Eigenmeasure(
            atoms=np.linspace(-0.9, 0.9, 5)[None, :],
            weights=np.full(5, 0.2 + 0j),
            eigenvalue=0.0,
            tail_value=0.1 + 0j,
        )
        results = pf_check(nu, LOGISTIC, self.fns())
        assert all(r.r2 is None for r in results)
        assert all(np.isfinite(r.r1) for r in results)


class TestInterpolationInvariant:
    def test_logistic_defect_scaled(self):
        n = 15
        dic = parse_dictionary(f"legendre:{n - 1}")
        pair = generate_trajectory(LOGISTIC, [0.31], n)
        k = fit_edmd(pair, dic)
        assert k.condition < 1e8
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        scale = max(1.0, float(np.max(np.abs(psiy))))
        assert np.max(np.abs(k.A @ psix - psiy)) <= 1e-9 * scale

    def test_rotation_orbit_defect(self):
        _, dic, pair, k = rotation_orbit_case()
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        assert np.max(np.abs(k.A @ psix - psiy)) <= 1e-12


class TestCsv:
    def test_spectrum_round_trip(self):
        k = fit_analytic(LOGISTIC, parse_dictionary("legendre:8"), UNIFORM11)
        d = eig(k)
        buf = io.StringIO()
        write_spectrum_csv(d, buf)
        buf.seek(0)
        back = read_spectrum_csv(buf)
        assert back.tobytes() == d.eigenvalues.tobytes()

    def test_eigenmeasure_format(self):
        _, dic, pair, k = rotation_orbit_case(n=5, k_num=1)
        d = eig(k)
        nu = eigenmeasure_extract(k, d, 0, pair)
        buf = io.StringIO()
        write_eigenmeasure_csv(nu, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "x_1,re_weight,im_weight"
        assert len(lines) == 1 + nu.count
