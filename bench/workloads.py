"""The three benchmark workloads, their reference checks, and the call tracer.

Each workload is one closed loop: a single process issues its calls into
edmdkit one after another, and every input is made from the workload seed.
A workload function runs the timed pass and returns what its check function
needs; the check function compares those outputs with references computed
independently of edmdkit (plain numpy) and runs outside the timed region.

Every call into edmdkit goes through ``Tracer.call``, which records its name
and time identically in traced and untraced passes; only a traced pass also
counts the work the program does inside the calls.  See
``bench/README.md`` for why each workload exists and which metric each layer
should move.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import defaultdict

import numpy as np

import edmdkit as ek
from edmdkit.svgplot import write_spectrum_svg

# Sizes per workload.  "full" is what the benchmark measures; "tiny" runs the
# same code paths in well under a second each, for bench/smoke.py.
SIZES = {
    "full": {
        "mc_cells": [(9, 10_000), (9, 100_000), (9, 1_000_000), (65, 10_000), (65, 100_000)],
        "quad_orders": [64 * 2**i for i in range(9)],  # 64 ... ESCALATION_CAP
        "soft_sizes": [9, 33, 65],
        "sweep_sizes": [3, 5, 9, 17, 33, 65, 129, 257],
        "rotation_starts": 20,
        "acceptance8_sizes": [100, 400],
        "acceptance8_pairs": 8,
        "predict_starts": 1,
        "predict_horizon": 1000,
        "predict_size": 65,
        "cli_big_m": 100_000,
        "csv_pairs": 100_000,
    },
    "tiny": {
        "mc_cells": [(9, 1_000), (9, 10_000), (17, 1_000)],
        "quad_orders": [64, 128, 256, 512],
        "soft_sizes": [9, 17],
        "sweep_sizes": [3, 5, 9],
        "rotation_starts": 2,
        "acceptance8_sizes": [100],
        "acceptance8_pairs": 2,
        "predict_starts": 1,
        "predict_horizon": 20,
        "predict_size": 17,
        "cli_big_m": 2_000,
        "csv_pairs": 1_000,
    },
}

UNIFORM = "uniform:-1,1"
OMEGA = 0.8378
ACCEPTANCE8_X0 = 0.31  # the x0 of acceptance criterion 8, kept exactly
ESCALATION_CAP = 2**14  # fit_analytic's node cap, where the rough map saturates
# Calls whose allocation peak a traced pass records as "<name>.bytes".  The
# peak covers numpy arrays and Python objects, not LAPACK's own workspace.
PEAK_MEMORY = {"edmd.fit_edmd"}


def cpu_seconds():
    """CPU time of this process plus that of its reaped children (CLI runs)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Tracer:
    """Records every call the benchmark makes into edmdkit, in order: its
    name and wall time, and whether it raised.  Every pass of one
    workload and seed makes the same calls in the same order, so a call can
    be compared across passes.  When tracing, the tracer also counts the
    dictionary values edmdkit evaluates and takes the tracemalloc peak of
    each call named in PEAK_MEMORY.  No call runs inside another, so the
    time of a call is its self time.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.names = []
        self.wall = []
        self.failed = 0
        self.counts = defaultdict(int)
        if traced:
            self._count_dictionary_values()

    def _count_dictionary_values(self):
        """Wrap evaluate_batch wherever an edmdkit module bound it, so every
        dictionary evaluation inside the program adds rows x columns."""
        original = ek.dictionary.evaluate_batch

        def counted(dic, points):
            vals = original(dic, points)
            self.counts["dictionary.values"] += vals.size
            return vals

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("edmdkit")
                    and getattr(mod, "evaluate_batch", None) is original):
                mod.evaluate_batch = counted

    def call(self, name, fn, *args, **kwargs):
        peak = self.traced and name in PEAK_MEMORY
        if peak:
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        finally:
            self.wall.append(time.perf_counter() - t0)
            self.names.append(name)
            if peak:
                self.counts[f"{name}.bytes"] += tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def count(self, name, amount):
        self.counts[name] += amount


def _check(checks, name, ok, detail):
    checks.append([name, bool(ok), detail])


def _legendre_ref(degree, x):
    """Orthonormal Legendre values (degree+1, M) from numpy's legvander."""
    v = np.polynomial.legendre.legvander(np.asarray(x, dtype=float), degree)
    return (v * np.sqrt(2.0 * np.arange(degree + 1) + 1.0)).T


def _fourier_ref(max_mode, x):
    ks = [0]
    for k in range(1, max_mode + 1):
        ks.extend((k, -k))
    return np.exp(1j * np.asarray(ks)[:, None] * np.asarray(x, dtype=float)[None, :])


def _lstsq_matrix(psix, psiy):
    """Reference A minimising ||A psi(X) - psi(Y)||_F via numpy's lstsq."""
    sol, *_ = np.linalg.lstsq(psix.T, psiy.T, rcond=None)
    return sol.T


def _rel(a, b):
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _escalation_orders(n, final_order):
    order = 64
    while order < n:
        order *= 2
    orders = [order]
    while order < final_order:
        order *= 2
        orders.append(order)
    return orders


def _final_order(k):
    return int(k.provenance.split("order=", 1)[1])


# ---------------------------------------------------------------------------
# mc-sweep: sampled EDMD on tall psi(X), the Monte-Carlo convergence study,
# then square (M = N) trajectory fits


def run_mc_sweep(tr, seed, size, workdir):
    logistic = ek.parse_system("logistic")
    measure = ek.parse_measure(UNIFORM)
    cells = SIZES[size]["mc_cells"]
    out = {"cells": []}
    spectra_an = {}
    for i, (n, m) in enumerate(cells):
        dic = ek.parse_dictionary(f"legendre:{n - 1}", logistic.domain)
        if n not in spectra_an:
            k_an = tr.call("analytic.fit_analytic", ek.fit_analytic, logistic, dic, measure)
            spectra_an[n] = tr.call("spectral.eig", ek.eig, k_an).eigenvalues
        cell_seed = seed + i
        pair = tr.call("data.generate_iid", ek.generate_iid, logistic, measure, m, cell_seed)
        tr.count("data.generate_iid.pairs", m)
        k = tr.call("edmd.fit_edmd", ek.fit_edmd, pair, dic)
        res = tr.call("edmd.theorem1_residual", ek.theorem1_residual, k, pair, dic)
        scale = tr.call("edmd.residual_scale", ek.residual_scale, pair, dic)
        spec = tr.call("spectral.eig", ek.eig, k).eigenvalues
        dist = tr.call("spectral.hausdorff", ek.hausdorff, spec, spectra_an[n])
        out["cells"].append((n, m, cell_seed, k.A, res, scale, dist))
    _square_fits(tr, SIZES[size], np.random.default_rng(seed), out)
    return out


def _square_fits(tr, sz, rng, out):
    """Single-trajectory data with M = N: the edmd layer used square, not
    tall, plus eigenmeasures and eig at N = 400."""
    rot = ek.parse_system(f"rotation:omega={OMEGA!r}")
    dic = ek.parse_dictionary("fourier:7", rot.domain)
    n = dic.size
    fns = [lambda p: np.ones(p.shape[1]), lambda p: p[0], lambda p: p[0] ** 2]
    out["rotation"] = []
    for x0 in rng.uniform(0.0, 2.0 * math.pi, sz["rotation_starts"]):
        pair = tr.call("data.generate_trajectory", ek.generate_trajectory, rot, [x0], n)
        tr.count("data.generate_trajectory.steps", n)
        k = tr.call("edmd.fit_edmd", ek.fit_edmd, pair, dic)
        d = tr.call("spectral.eig", ek.eig, k)
        r1 = 0.0
        for j in range(n):
            nu = tr.call("spectral.eigenmeasure_extract", ek.eigenmeasure_extract, k, d, j, pair)
            res = tr.call("spectral.pf_check", ek.pf_check, nu, rot, fns)
            r1 = max(r1, max(r.r1 for r in res))
        out["rotation"].append((float(x0), k.A, d.eigenvalues, r1))

    # acceptance criterion 8's setup: psi(X) has condition ~1e16, and every
    # extraction raises RankDeficiencyError today.  The failures are counted.
    logistic = ek.parse_system("logistic")
    for n8 in sz["acceptance8_sizes"]:
        dic8 = ek.parse_dictionary(f"legendre:{n8 - 1}")
        pair = tr.call("data.generate_trajectory", ek.generate_trajectory,
                       logistic, [ACCEPTANCE8_X0], n8)
        tr.count("data.generate_trajectory.steps", n8)
        k = tr.call("edmd.fit_edmd", ek.fit_edmd, pair, dic8)
        d = tr.call("spectral.eig", ek.eig, k)
        for j in range(sz["acceptance8_pairs"]):
            try:
                tr.call("spectral.eigenmeasure_extract", ek.eigenmeasure_extract, k, d, j, pair)
            except ek.RankDeficiencyError:
                tr.count("spectral.eigenmeasure_extract.failed", 1)


def check_mc_sweep(out, seed, size):
    checks = []
    for n, m, cell_seed, a, res, scale, dist in out["cells"]:
        x = np.random.default_rng(cell_seed).uniform(-1.0, 1.0, m)
        a_ref = _lstsq_matrix(_legendre_ref(n - 1, x), _legendre_ref(n - 1, 2.0 * x * x - 1.0))
        err = _rel(a, a_ref)
        _check(checks, f"fit_edmd-vs-lstsq N={n} M={m}", err <= 1e-9, f"rel {err:.2e} <= 1e-9")
        _check(checks, f"theorem1 N={n} M={m}", res <= 1e-8 * scale,
               f"{res:.2e} <= 1e-8 * {scale:.3g}")
        _check(checks, f"hausdorff N={n} M={m}", math.isfinite(dist), f"{dist!r} finite")
    ref_spec = _fourier_ref(7, [OMEGA])[:, 0]
    worst_fit = worst_spec = worst_r1 = 0.0
    for x0, a, eigenvalues, r1 in out["rotation"]:
        orbit = [x0]
        for _ in range(15):
            orbit.append(float(np.mod(orbit[-1] + OMEGA, 2.0 * math.pi)))
        psix = _fourier_ref(7, orbit[:-1])
        psiy = _fourier_ref(7, orbit[1:])
        worst_fit = max(worst_fit, _rel(a, _lstsq_matrix(psix, psiy)))
        dist = np.abs(eigenvalues[:, None] - ref_spec[None, :])
        worst_spec = max(worst_spec, float(max(dist.min(axis=0).max(), dist.min(axis=1).max())))
        worst_r1 = max(worst_r1, r1)
    _check(checks, "rotation fit_edmd-vs-lstsq", worst_fit <= 1e-9, f"rel {worst_fit:.1e} <= 1e-9")
    _check(checks, "rotation spectrum e^{ik omega}", worst_spec <= 1e-10,
           f"hausdorff {worst_spec:.1e} <= 1e-10")
    _check(checks, "rotation pf_check r1", worst_r1 <= 1e-10, f"{worst_r1:.1e} <= 1e-10")
    return checks


# ---------------------------------------------------------------------------
# quad-escalate: the sampling-free path, Gauss rules, analytic escalation and
# long-horizon prediction


def _user_maps(seed):
    """Non-polynomial maps whose parameters come from the seed; every seed
    escalates to the same orders (rough saturates at the cap)."""
    rng = np.random.default_rng(seed)
    amp = float(rng.uniform(0.85, 0.95))
    shift = float(rng.uniform(0.45, 0.55))
    dom = ek.box(-1.0, 1.0)
    rough = ek.DynamicalSystem(
        name="rough", domain=dom,
        forward=lambda x: np.sin(1.0 / (np.abs(x) + 1e-3)) * amp,
        forward_batch=lambda p: np.sin(1.0 / (np.abs(p) + 1e-3)) * amp,
    )
    soft = ek.DynamicalSystem(
        name="soft-cosine", domain=dom,
        forward=lambda x: np.cos(x) - shift,
        forward_batch=lambda p: np.cos(p) - shift,
    )
    return rough, soft, shift


def run_quad_escalate(tr, seed, size, workdir):
    sz = SIZES[size]
    measure = ek.parse_measure(UNIFORM)
    rough, soft, shift = _user_maps(seed)
    out = {"rules": [], "soft": [], "shift": shift}
    for order in sz["quad_orders"]:
        rule = tr.call("systems.gauss_rule", ek.gauss_rule, measure, order)
        tr.count("systems.gauss_rule.nodes", rule.size)
        out["rules"].append((order, rule.nodes[0].copy(), rule.weights.copy()))
    fits = [(rough, 3, "rough")] + [(soft, n - 1, "soft") for n in sz["soft_sizes"]]
    for system, degree, label in fits:
        dic = ek.parse_dictionary(f"legendre:{degree}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ek.QuadratureSaturationWarning)
            k = tr.call("analytic.fit_analytic", ek.fit_analytic, system, dic, measure)
        order = _final_order(k)
        orders = _escalation_orders(dic.size, order)
        tr.count("analytic.fit_analytic.order", order)
        tr.count("analytic.fit_analytic.escalations", len(orders) - 1)
        saturated = any(issubclass(w.category, ek.QuadratureSaturationWarning) for w in caught)
        if label == "rough":
            out["rough"] = (order, saturated)
        else:
            out["soft"].append((degree, k.A))
    logistic = ek.parse_system("logistic")
    horizon = 5
    rows = tr.call("predict.convergence_sweep", ek.convergence_sweep, logistic, measure,
                   "legendre", sz["sweep_sizes"], [], horizon, lambda p: p[0], [])
    tr.count("predict.convergence_sweep.rows", len(rows))
    out["rows"] = [(r.N, r.step, r.l2_error) for r in rows]

    # long-horizon prediction from the analytic K: per-step systems.apply
    # and single-point dictionary evaluation
    n = sz["predict_size"]
    dic = ek.parse_dictionary(f"legendre:{n - 1}")
    k = tr.call("analytic.fit_analytic", ek.fit_analytic, logistic, dic, measure)
    rule = tr.call("systems.gauss_rule", ek.gauss_rule, measure, 2 * n)
    tr.count("systems.gauss_rule.nodes", rule.size)
    cmat = tr.call("predict.observable_matrix", ek.observable_matrix, lambda p: p[0], dic, rule)
    out["predict"] = []
    for x0 in np.random.default_rng(seed).uniform(-0.95, 0.95, sz["predict_starts"]):
        res = tr.call("predict.predict", ek.predict, k, cmat, [x0], sz["predict_horizon"],
                      dic, logistic)
        tr.count("predict.predict.steps", sz["predict_horizon"])
        out["predict"].append((float(x0), res.truth[:, 0].copy(), res.predicted[:, 0].copy()))
    return out


def check_quad_escalate(out, seed, size):
    checks = []
    for order, nodes, weights in out["rules"]:
        if order <= 128:
            t, w = np.polynomial.legendre.leggauss(order)
            err = max(float(np.max(np.abs(nodes - t))), float(np.max(np.abs(weights - w / 2))))
            _check(checks, f"gauss_rule-vs-leggauss {order}", err <= 1e-14, f"{err:.1e} <= 1e-14")
        else:
            # exact for x^j, j <= 2*order-1; against 1/(j+1) for even j, 0 for odd
            err = max(abs(float(np.sum(weights * nodes**j)) - (1.0 / (j + 1) if j % 2 == 0 else 0.0))
                      for j in range(41))
            _check(checks, f"gauss_rule-moments {order}", err <= 1e-13, f"{err:.1e} <= 1e-13")
    order, saturated = out["rough"]
    _check(checks, "rough-map saturation", saturated and order == ESCALATION_CAP,
           f"order {order}, warning {saturated}")
    t, w = np.polynomial.legendre.leggauss(256)
    w = w / 2.0
    for degree, a in out["soft"]:
        psi_x = _legendre_ref(degree, t)
        psi_tx = _legendre_ref(degree, np.cos(t) - out["shift"])
        a_ref = (psi_tx * w) @ psi_x.T
        err = _rel(a, a_ref)
        _check(checks, f"soft-cosine-vs-leggauss256 N={degree + 1}", err <= 1e-10,
               f"rel {err:.1e} <= 1e-10")
    # x -> 2x^2 - 1 lies in every legendre span with N >= 3: step 1 is exact
    step1 = max(e for _, step, e in out["rows"] if step == 1)
    _check(checks, "convergence_sweep step-1 exact", step1 <= 1e-10, f"{step1:.1e} <= 1e-10")
    finite = all(math.isfinite(e) for _, _, e in out["rows"])
    _check(checks, "convergence_sweep finite", finite, "all l2 errors finite")
    worst_truth = worst_exact = 0.0
    # x composed with T^i has degree 2^i: in the span of legendre:64 for i <= 6
    exact = min(6, int(math.log2(SIZES[size]["predict_size"] - 1)))
    for x0, truth, predicted in out["predict"]:
        x, orbit = x0, []
        for _ in range(truth.shape[0]):
            x = 2.0 * x * x - 1.0
            orbit.append(x)
        orbit = np.asarray(orbit)
        worst_truth = max(worst_truth, float(np.max(np.abs(truth - orbit))))
        worst_exact = max(worst_exact, float(np.max(np.abs(predicted[:exact] - orbit[:exact]))))
    _check(checks, "predict truth-vs-iteration", worst_truth <= 1e-10, f"{worst_truth:.1e} <= 1e-10")
    _check(checks, "predict exact-in-span steps", worst_exact <= 1e-9, f"{worst_exact:.1e} <= 1e-9")
    return checks


# ---------------------------------------------------------------------------
# cli-io: README commands as subprocesses, library CSV/SVG round trips

def _cli_commands(seed, size):
    rng = np.random.default_rng(seed)
    x0_pred = f"{rng.uniform(-0.9, 0.9):.4f}"
    x0_eig = f"{rng.uniform(0.0, 6.0):.4f}"
    big_m = str(SIZES[size]["cli_big_m"])
    tri = ["--system", "logistic", "--dict", "legendre:8", "--measure", UNIFORM]
    return [
        ("edmd", ["edmd", *tri, "--M", "1000", "--seed", str(seed)]),
        ("analytic", ["analytic", *tri]),
        ("spectrum", ["spectrum", *tri, "--analytic"]),
        ("predict", ["predict", *tri, "--x0", x0_pred, "--horizon", "10", "--analytic"]),
        ("eigenmeasure", ["eigenmeasure", "--system", f"rotation:omega={OMEGA}",
                          "--family", "fourier", "--N", "15", "--x0", x0_eig]),
        ("study-spectra", ["study", "spectra", *tri, "--M", "100,1000,100000", "--seeds", "5"]),
        ("study-prediction", ["study", "prediction", *tri, "--M", "100,1000",
                              "--seed", str(seed), "--x0", x0_pred, "--horizon", "10"]),
        ("study-mc-rate", ["study", "mc-rate", *tri, "--M", "100,1000,10000,100000",
                           "--seeds", "5"]),
        ("study-strong-convergence", ["study", "strong-convergence", "--system", "logistic",
                                      "--family", "legendre", "--measure", UNIFORM,
                                      "--N", "3,5,9,13,17", "--horizon", "5"]),
        ("edmd-legendre64", ["edmd", "--system", "logistic", "--dict", "legendre:64",
                             "--measure", UNIFORM, "--M", big_m, "--seed", str(seed),
                             "--out", "edmd64_matrix.csv"]),
    ]


def _run_cli(argv, outdir):
    """Run one CLI command in a fresh interpreter; returns its peak RSS in MB.

    stdout/stderr go to files so the child never blocks on a pipe; wait4
    reaps the child and gives its own resource usage.
    """
    outdir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "edmdkit.cli", *argv, "--reproducible", "--outdir", str(outdir)]
    with open(outdir.parent / f"{outdir.name}.stdout", "wb") as so, \
            open(outdir.parent / f"{outdir.name}.stderr", "wb") as se:
        proc = subprocess.Popen(cmd, stdout=so, stderr=se)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        err = (outdir.parent / f"{outdir.name}.stderr").read_text(errors="replace")
        raise RuntimeError(f"edmdkit {' '.join(argv)} exited {proc.returncode}: {err.strip()}")
    return usage.ru_maxrss / 1024.0


def run_cli_io(tr, seed, size, workdir):
    out = {"digests": {}}
    cli_dir = workdir / "cli"
    for label, argv in _cli_commands(seed, size):
        rss = tr.call(f"cli.{label}", _run_cli, argv, cli_dir / label)
        if label == "edmd-legendre64":
            tr.count("cli.edmd-legendre64.rss_mb", rss)
    total = 0
    for path in sorted(p for p in cli_dir.rglob("*") if p.is_file() and p.parent != cli_dir):
        data = path.read_bytes()
        total += len(data)
        out["digests"][path.relative_to(cli_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    tr.count("cli.out.bytes", total)

    logistic = ek.parse_system("logistic")
    measure = ek.parse_measure(UNIFORM)
    m = SIZES[size]["csv_pairs"]
    pair = tr.call("data.generate_iid", ek.generate_iid, logistic, measure, m, seed)
    tr.count("data.generate_iid.pairs", m)
    snap = workdir / "snapshots.csv"
    with open(snap, "w", encoding="utf-8", newline="\n") as f:
        tr.call("data.write_snapshots_csv", ek.write_snapshots_csv, pair, f)
    tr.count("data.snapshots_csv.bytes", snap.stat().st_size)
    with open(snap, encoding="utf-8") as f:
        back = tr.call("data.read_snapshots_csv", ek.read_snapshots_csv, f)
    out["snapshots"] = (pair, back)

    with open(cli_dir / "edmd-legendre64" / "edmd64_matrix.csv", encoding="utf-8") as f:
        k = tr.call("edmd.read_koopman_csv", ek.read_koopman_csv, f)
    kfile = workdir / "koopman.csv"
    with open(kfile, "w", encoding="utf-8", newline="\n") as f:
        tr.call("edmd.write_koopman_csv", ek.write_koopman_csv, k, f)
    with open(kfile, encoding="utf-8") as f:
        k_back = tr.call("edmd.read_koopman_csv", ek.read_koopman_csv, f)
    out["koopman"] = (k, k_back)

    d = tr.call("spectral.eig", ek.eig, k)
    sfile = workdir / "spectrum.csv"
    with open(sfile, "w", encoding="utf-8", newline="\n") as f:
        tr.call("spectral.write_spectrum_csv", ek.write_spectrum_csv, d, f)
    with open(sfile, encoding="utf-8") as f:
        spec_back = tr.call("spectral.read_spectrum_csv", ek.read_spectrum_csv, f)
    out["spectrum"] = (d.eigenvalues, spec_back)

    svg = workdir / "spectrum.svg"
    with open(svg, "w", encoding="utf-8", newline="\n") as f:
        tr.call("svgplot.write_spectrum_svg", write_spectrum_svg, f,
                [(k.provenance, d.eigenvalues, "cross")], title="logistic / legendre:64")
    tr.count("svgplot.write_spectrum_svg.bytes", svg.stat().st_size)
    return out


def check_cli_io(out, seed, size):
    checks = []
    pair, back = out["snapshots"]
    ok = (np.array_equal(pair.X, back.X) and np.array_equal(pair.Y, back.Y)
          and pair.provenance == back.provenance)
    _check(checks, "snapshots csv round trip", ok, "bit-exact X, Y, provenance")
    k, k_back = out["koopman"]
    ok = (np.array_equal(k.A, k_back.A) and k.sigma_max == k_back.sigma_max
          and k.sigma_min == k_back.sigma_min and k.provenance == k_back.provenance)
    _check(checks, "koopman csv round trip", ok, "bit-exact A, sigmas, provenance")
    vals, vals_back = out["spectrum"]
    _check(checks, "spectrum csv round trip", np.array_equal(vals, vals_back),
           "bit-exact eigenvalues")
    _check(checks, "cli outputs written", len(out["digests"]) >= len(_cli_commands(seed, size)),
           f"{len(out['digests'])} files")
    return checks


RUNNERS = {
    "mc-sweep": (run_mc_sweep, check_mc_sweep),
    "quad-escalate": (run_quad_escalate, check_quad_escalate),
    "cli-io": (run_cli_io, check_cli_io),
}


def peak_rss_mb():
    """Peak RSS in MB of this process, and of its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_maxrss / 1024.0, kids.ru_maxrss / 1024.0


def blas_info():
    """OpenBLAS version string and the thread count it actually uses, read
    from the loaded library; (None, None) when that library is not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return get_config().decode(), int(get_threads())
    return None, None
