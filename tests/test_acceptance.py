"""Acceptance suite: one test per shipped criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE <n>: PASS/FAIL`` line (run pytest with
``-s`` or read captured output).  Criteria are asserted exactly as specified;
nothing is recalibrated here.
"""

import math
import time

import numpy as np

from edmdkit import (
    RankDeficiencyError,
    eig,
    eigenmeasure_extract,
    evaluate_batch,
    fit_analytic,
    fit_edmd,
    gauss_rule,
    generate_iid,
    generate_trajectory,
    hausdorff,
    KoopmanMatrix,
    l2_error,
    observable_matrix,
    oscillation_seminorm,
    parse_dictionary,
    parse_measure,
    parse_system,
    pf_check,
    predict,
    residual_scale,
    theorem1_residual,
    transfer_matrix,
    uniform,
)
from edmdkit.cli import main

from _oracles import set_distance

LOGISTIC = parse_system("logistic")
UNIFORM11 = parse_measure("uniform:-1,1")
LEGENDRE8 = parse_dictionary("legendre:8")


def report(num, failures, detail="", budget=None, elapsed=None):
    ok = not failures
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if budget is not None:
        line += f" [{elapsed:.1f}s / {budget:.0f}s]"
    print(line, flush=True)
    assert ok, f"criterion {num}: " + "; ".join(failures)
    if budget is not None:
        assert elapsed < budget, f"criterion {num}: runtime {elapsed:.1f}s over {budget}s"


def test_criterion_1_figure1_spectra_vs_m():
    t0 = time.perf_counter()
    k_an = fit_analytic(LOGISTIC, LEGENDRE8, UNIFORM11)
    spec_an = eig(k_an).eigenvalues
    medians = {}
    for m in [100, 1000, 100000]:
        hs = []
        for seed in range(5):
            k = fit_edmd(generate_iid(LOGISTIC, UNIFORM11, m, seed), LEGENDRE8)
            hs.append(hausdorff(eig(k).eigenvalues, spec_an))
        medians[m] = float(np.median(hs))
    elapsed = time.perf_counter() - t0
    failures = []
    if not (medians[100] > medians[1000] > medians[100000]):
        failures.append(f"medians not strictly decreasing: {medians}")
    if not medians[100000] <= 0.1 * medians[100]:
        failures.append(
            f"hausdorff at M=1e5 ({medians[100000]:.4f}) exceeds "
            f"0.1 x hausdorff at M=1e2 ({0.1 * medians[100]:.4f})"
        )
    report(1, failures, f"medians={ {m: round(v, 4) for m, v in medians.items()} }",
           budget=60.0, elapsed=elapsed)


def test_criterion_2_figure3_prediction_vs_m():
    t0 = time.perf_counter()
    from edmdkit.systems import sample

    x0 = sample(UNIFORM11, 1, seed=2025)[:, 0]
    cmat = observable_matrix(lambda p: p[0], LEGENDRE8, gauss_rule(UNIFORM11, 64))
    k_an = fit_analytic(LOGISTIC, LEGENDRE8, UNIFORM11)

    def rms(k):
        res = predict(k, cmat, x0, 10, LEGENDRE8, LOGISTIC)
        return float(np.sqrt(np.mean(res.errors**2)))

    rms_an = rms(k_an)
    rms_1000 = rms(fit_edmd(generate_iid(LOGISTIC, UNIFORM11, 1000, 0), LEGENDRE8))
    rms_100 = rms(fit_edmd(generate_iid(LOGISTIC, UNIFORM11, 100, 0), LEGENDRE8))
    elapsed = time.perf_counter() - t0
    failures = []
    if not rms_1000 <= 2.0 * rms_an:
        failures.append(f"M=1000 rms {rms_1000:.4f} not within 2x of analytic {rms_an:.4f}")
    if not (np.isfinite(rms_100) and rms_100 <= 10.0 * rms_an):
        failures.append(f"M=100 rms {rms_100:.4f} not finite within 10x of {rms_an:.4f}")
    report(2, failures,
           f"rms analytic={rms_an:.4f} M=1000={rms_1000:.4f} M=100={rms_100:.4f}",
           budget=30.0, elapsed=elapsed)


def test_criterion_3_theorem1_residual_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    rotation = parse_system("rotation:omega=0.9")
    cases = []
    for i in range(20):
        kind = i % 4
        if kind == 0:
            system, dic, mu = LOGISTIC, parse_dictionary(f"legendre:{int(rng.integers(2, 9))}"), UNIFORM11
        elif kind == 1:
            system, dic, mu = parse_system("identity"), parse_dictionary(
                f"monomial:{int(rng.integers(2, 5))}"), UNIFORM11
        elif kind == 2:
            a = float(rng.uniform(-0.8, 0.8))
            b = float(rng.uniform(-0.2, 0.2))
            system = parse_system(f"affine:a={a},b={b}")
            dic, mu = parse_dictionary(f"legendre:{int(rng.integers(2, 7))}"), UNIFORM11
        else:
            system = rotation
            dic = parse_dictionary(f"fourier:{int(rng.integers(1, 4))}", system.domain)
            mu = uniform(system.domain)
        m = dic.size * int(rng.integers(10, 50))
        cases.append((system, dic, mu, m, int(rng.integers(0, 10**6))))
    failures = []
    for idx, (system, dic, mu, m, seed) in enumerate(cases):
        pair = generate_iid(system, mu, m, seed)
        k = fit_edmd(pair, dic)
        if k.condition**2 >= 1e8:
            continue  # outside the stated conditioning hypothesis
        res = theorem1_residual(k, pair, dic)
        bound = 1e-8 * residual_scale(pair, dic)
        if res > bound:
            failures.append(f"case {idx} ({system.name}, {dic.spec_string}, M={m}): "
                            f"residual {res:.2e} > {bound:.2e}")
    elapsed = time.perf_counter() - t0
    report(3, failures, "20 randomized (system, dictionary, M) cases",
           budget=10.0, elapsed=elapsed)


def test_criterion_4_exact_invariant_subspaces():
    t0 = time.perf_counter()
    failures = []
    k_id = fit_edmd(generate_iid(parse_system("identity"), UNIFORM11, 50, 1),
                    parse_dictionary("legendre:4"))
    gap = float(np.max(np.abs(k_id.A - np.eye(5))))
    if gap > 1e-10:
        failures.append(f"identity fit deviates from I by {gap:.2e}")
    omega = math.pi / 3.0
    system = parse_system(f"rotation:omega={omega}")
    dic = parse_dictionary("fourier:2", system.domain)
    k_rot = fit_edmd(generate_iid(system, uniform(system.domain), 200, 2), dic)
    expected = np.exp(1j * np.arange(-2, 3) * omega)
    dist = set_distance(eig(k_rot).eigenvalues, expected)
    if dist > 1e-10:
        failures.append(f"rotation spectrum off by {dist:.2e}")
    c = np.zeros(dic.size, dtype=complex)
    c[np.where(dic.fourier_modes() == 1)[0][0]] = 1.0
    res = predict(k_rot, np.conj(c), [0.4], 20, dic, system)
    err = float(np.max(res.errors))
    if err > 1e-10:
        failures.append(f"rotation prediction error {err:.2e} over horizon 20")
    elapsed = time.perf_counter() - t0
    report(4, failures, budget=5.0, elapsed=elapsed)


def test_criterion_5_monte_carlo_rate():
    t0 = time.perf_counter()
    k_an = fit_analytic(LOGISTIC, LEGENDRE8, UNIFORM11)
    grid = [100, 1000, 10000, 100000]
    medians = []
    for m in grid:
        gaps = [
            float(np.linalg.norm(fit_edmd(generate_iid(LOGISTIC, UNIFORM11, m, s), LEGENDRE8).A
                                 - k_an.A))
            for s in range(5)
        ]
        medians.append(float(np.median(gaps)))
    slope = float(np.polyfit(np.log(grid), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - t0
    failures = []
    if not -0.7 <= slope <= -0.3:
        failures.append(f"log-log slope {slope:.3f} outside [-0.7, -0.3]")
    report(5, failures, f"slope={slope:.3f}", budget=90.0, elapsed=elapsed)


def test_criterion_6_analytic_spot_values():
    rule = gauss_rule(UNIFORM11, 64)
    m_t = transfer_matrix(LOGISTIC, LEGENDRE8, rule)
    failures = []
    if abs(m_t[1, 0] - (-1.0 / math.sqrt(3.0))) > 1e-12:
        failures.append(f"entry (2,1) = {m_t[1, 0]!r}")
    if abs(m_t[1, 2] - 4.0 / math.sqrt(15.0)) > 1e-12:
        failures.append(f"entry (2,3) = {m_t[1, 2]!r}")
    others = float(np.max(np.abs(np.delete(np.asarray(m_t[1]), [0, 2]))))
    if others > 1e-12:
        failures.append(f"stray row-2 entry of size {others:.2e}")
    report(6, failures)


def test_criterion_7_strong_convergence_trend():
    t0 = time.perf_counter()
    n_list = [3, 5, 9, 13, 17]
    step1, step5 = {}, {}
    for n in n_list:
        dic = parse_dictionary(f"legendre:{n - 1}")
        k = fit_analytic(LOGISTIC, dic, UNIFORM11)
        cmat = observable_matrix(lambda p: p[0], dic, gauss_rule(UNIFORM11, 64))
        errs = l2_error(k, cmat, dic, LOGISTIC, gauss_rule(UNIFORM11, 128), 5)
        step1[n], step5[n] = float(errs[0]), float(errs[4])
    elapsed = time.perf_counter() - t0
    failures = []
    path = [step1[n] for n in [5, 9, 13, 17]]
    if not all(a > b for a, b in zip(path, path[1:])):
        failures.append(
            "step-1 error not strictly decreasing over N=5..17: "
            + ", ".join(f"{v:.3e}" for v in path)
        )
    if not step5[17] < step5[5]:
        failures.append(f"step-5 error at N=17 ({step5[17]:.4f}) not below N=5 ({step5[5]:.4f})")
    report(7, failures,
           f"step1={ {n: float(f'{v:.3e}') for n, v in step1.items()} }",
           budget=30.0, elapsed=elapsed)


def test_criterion_8_single_trajectory_suite():
    t0 = time.perf_counter()
    failures = []
    r2_medians = {}
    for n in [100, 400]:
        dic = parse_dictionary(f"legendre:{n - 1}")
        pair = generate_trajectory(LOGISTIC, [0.31], n)
        k = fit_edmd(pair, dic)
        psix = evaluate_batch(dic, pair.X)
        psiy = evaluate_batch(dic, pair.Y)
        defect = float(np.max(np.abs(k.A @ psix - psiy)))
        scale = max(1.0, float(np.max(np.abs(psiy))))
        if defect > 1e-9 * scale:
            failures.append(
                f"N={n}: interpolation defect {defect:.2e} > 1e-9*scale "
                f"({1e-9 * scale:.2e}); cond(psi(X))={k.condition:.2e}"
            )
        d = eig(k)
        fns = [lambda p: np.ones(p.shape[1]), lambda p: p[0], lambda p: p[0] ** 2]
        r2s = []
        try:
            for j in range(n):
                if abs(d.eigenvalues[j]) <= 0.5:
                    continue
                nu = eigenmeasure_extract(k, d, j, pair)
                for res in pf_check(nu, LOGISTIC, fns):
                    if res.r1 > 1e-10:
                        failures.append(f"N={n} pair {j}: r1 {res.r1:.2e} > 1e-10")
                        break
                    if res.r2 is not None:
                        r2s.append(res.r2)
        except RankDeficiencyError as exc:
            failures.append(f"N={n}: eigenpair extraction blocked: {exc}")
        if r2s:
            r2_medians[n] = float(np.median(r2s))
    if len(r2_medians) == 2 and not r2_medians[400] < r2_medians[100]:
        failures.append(f"r2 medians did not decrease: {r2_medians}")
    elapsed = time.perf_counter() - t0
    # keep the line readable: the same failure repeats across eigenpairs
    failures = failures[:4]
    report(8, failures, budget=60.0, elapsed=elapsed)


def test_criterion_9_oscillation_seminorm():
    t0 = time.perf_counter()
    failures = []
    for mode, expected in [(1, 4 * math.pi**2), (10, 400 * math.pi**2)]:
        dic = parse_dictionary(f"sine:{mode}")
        k = KoopmanMatrix(np.eye(1, dtype=complex), dic, "analytic:order=0", 1.0, 1.0)
        rule = gauss_rule(uniform(dic.domain), 128)
        value = oscillation_seminorm(eig(k), 0, dic, rule)
        if abs(value - expected) > 1e-8 * expected:
            failures.append(f"mode {mode}: {value!r} vs {expected!r}")
    elapsed = time.perf_counter() - t0
    report(9, failures, budget=1.0, elapsed=elapsed)


def test_criterion_10_study_determinism(tmp_path):
    args = ["study", "spectra", "--system", "logistic", "--dict", "legendre:8",
            "--measure", "uniform:-1,1", "--M", "100,1000", "--seeds", "3",
            "--reproducible"]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = main([*args, "--outdir", str(d1)])
    rc2 = main([*args, "--outdir", str(d2)])
    failures = []
    if rc1 != 0 or rc2 != 0:
        failures.append(f"study runs exited {rc1}/{rc2}")
    else:
        for name in ["hausdorff.csv", "spectra_M100.svg", "spectra_M1000.svg"]:
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                failures.append(f"{name} differs between reruns")
    report(10, failures)
