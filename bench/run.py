"""edmdkit benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload mc-sweep --seed 1 --seconds 30 --trace 0

The workloads and metric names are those of BENCHMARK.json at the root of the
checkout; bench/README.md says what each workload stresses and why.  The
program is used from ``src/`` of the same checkout; nothing is installed or
built.

--trace 0 repeats untraced passes of the workload until --seconds is spent
(at least three) and reports the end-to-end metrics as medians over passes
(set-up time over probes and passes).
--trace 1 runs one untraced pass of the workload, then one traced pass of
every workload, and reports the per-layer metrics: single samples, named
``<workload>.<layer metric>``, plus the traced/untraced wall-time ratio.

Every pass is a fresh interpreter (bench/worker.py) with BLAS pinned to one
thread: with two OpenBLAS threads fit_edmd timings are bimodal (66-98 ms or
207-317 ms at N=9, M=1e5 on a 2-core machine), with one they are not.  The
first pass of each workload in a run checks its outputs against independent
references; later passes must reproduce it bit for bit.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = "1"
SETUP_PROBES = 12
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
TRACE_RATIO = "trace.wall_ratio"  # traced / untraced wall_s of the named workload


class BenchError(Exception):
    pass


def load_spec():
    """BENCHMARK.json as (workload names, end-to-end (name, unit) pairs,
    per-layer (layer metric, unit) pairs by workload)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    layers = {w: [] for w in workloads}
    for m in spec["per_layer"]:
        workload, _, name = m["name"].partition(".")
        if workload in layers:
            layers[workload].append((name, m["unit"]))
        elif m["name"] != TRACE_RATIO:
            raise BenchError(f"per-layer metric {m['name']} names no workload")
    return workloads, [(m["name"], m["unit"]) for m in spec["end_to_end"]], layers


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def launch(extra, env):
    """Run bench/worker.py in a new process group and return its JSON line
    plus the process wall time; on timeout the whole group is killed."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--launched", repr(t0), *extra]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1]), time.monotonic() - t0


class Run:
    def __init__(self, args, env, work):
        self.args = args
        self.env = env
        self.work = work
        self.passes = 0
        self.deadline = time.monotonic() + args.seconds
        self.setup = []
        self.notes = []
        self.failed_checks = []

    def probe_setup(self, count):
        """Warm the page and bytecode caches with one discarded probe, then
        take ``count`` set-up samples."""
        result, _ = launch(["--probe"], self.env)
        for _ in range(count):
            result, _ = launch(["--probe"], self.env)
            self.setup.append(result["setup_s"])
        env = dict(result["env"], workload=self.args.workload, seed=self.args.seed,
                   size=self.args.size, trace=self.args.trace)
        self.notes.append("env " + json.dumps(env, sort_keys=True))

    def one_pass(self, workload, traced, check):
        self.passes += 1
        workdir = self.work / f"pass{self.passes}"
        extra = ["--workload", workload, "--seed", str(self.args.seed), "--size", self.args.size,
                 "--trace", str(int(traced)), "--check", str(int(check)), "--workdir", str(workdir)]
        try:
            result, elapsed = launch(extra, self.env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.setup.append(result["setup_s"])
        for name, ok, detail in result["checks"]:
            if not ok:
                self.failed_checks.append(f"{workload}: {name}: {detail}")
        return result, elapsed

    def same(self, label, results):
        """Passes of one workload and seed must make the same calls and agree
        bit for bit."""
        for key in ("calls", "digest", "cli_digests"):
            if len({json.dumps(r[key], sort_keys=True) for r in results}) > 1:
                self.failed_checks.append(f"{label}: {key} differs between passes")


def end_to_end(run, spec):
    _, metric_units, _ = spec
    w = run.args.workload
    results, durations = [], []
    while (len(results) < MIN_PASSES
           or time.monotonic() + statistics.median(durations) <= run.deadline):
        result, elapsed = run.one_pass(w, traced=False, check=not results)
        results.append(result)
        durations.append(elapsed)
    run.same(w, results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    values = {name: statistics.median(r[name] for r in results)
              for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(run.setup)
    values["success_ratio"] = 1.0 - failed / attempted
    run.notes.append(f"samples {w}: " + json.dumps(
        {"passes": len(results), "setup_samples": len(run.setup),
         "wall_s": [r["wall_s"] for r in results], "setup_s": run.setup}))
    for path, digest in sorted(results[0]["cli_digests"].items()):
        run.notes.append(f"cli-digest {digest}  {path}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_units}
    return metrics, attempted, failed


def layer_value(result, name):
    """One per-layer metric of a traced pass: ``<call>.s`` is the wall time
    summed over calls of that name, ``<call>.calls`` their number, ``ops.*``
    the pass's operation counts, anything else a count the pass recorded."""
    if name in ("ops.attempted", "ops.failed"):
        return result[name[4:]]
    if name.endswith(".s") or name.endswith(".calls"):
        call, _, kind = name.rpartition(".")
        times = [t for n, t in zip(result["calls"], result["call_wall_s"]) if n == call]
        if times:
            return sum(times) if kind == "s" else len(times)
    elif name in result["counts"]:
        return result["counts"][name]
    raise BenchError(f"the traced pass recorded nothing for {name}")


def per_layer(run, spec):
    workloads, _, layers = spec
    named = run.args.workload
    base, _ = run.one_pass(named, traced=False, check=True)
    traced = {w: run.one_pass(w, traced=True, check=True)[0] for w in workloads}
    run.same(f"traced vs untraced {named}", [base, traced[named]])
    metrics = {f"{w}.{name}": {"value": layer_value(traced[w], name), "unit": unit}
               for w in workloads for name, unit in layers[w]}
    metrics[TRACE_RATIO] = {"value": traced[named]["wall_s"] / base["wall_s"], "unit": "1"}
    everything = [base, *traced.values()]
    return metrics, sum(r["attempted"] for r in everything), sum(r["failed"] for r in everything)


def main():
    if not (ROOT / "src" / "edmdkit" / "__init__.py").is_file():
        print(f"bench: no edmdkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny runs every code path in seconds (bench/smoke.py)")
    args = p.parse_args()

    work = ROOT / ".bench_work" / f"run{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args, child_env(), work)
    try:
        run.probe_setup(0 if args.trace else SETUP_PROBES)
        metrics, attempted, failed = (per_layer if args.trace else end_to_end)(run, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in run.notes + [f"check failed: {c}" for c in run.failed_checks]:
        print(line)
    print(json.dumps({"correct": not run.failed_checks, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
