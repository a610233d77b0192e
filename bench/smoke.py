"""Smoke test of the benchmark itself, at tiny size.

    python3 bench/smoke.py

Checks three things on every workload:
  1. every metric BENCHMARK.json names is emitted with its unit (--trace 0
     for end_to_end, --trace 1 for per_layer);
  2. the reference checks run and pass;
  3. a traced and an untraced pass make the same operations with the same
     outcome and outputs.
Takes about a minute: the rough map of quad-escalate escalates to 16384
Gauss nodes even at tiny size.  Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys

import run


def expect(ok, message):
    if not ok:
        sys.exit(f"smoke: FAILED: {message}")


def bench(workload, trace):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"keys {sorted(result)}")
    expect(result["correct"] is True, f"{workload} trace={trace}: reference checks failed:\n"
           + proc.stdout)
    expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
    return result


def emitted(result):
    return [(name, m["unit"]) for name, m in result["metrics"].items()]


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layers = sorted((m["name"], m["unit"]) for m in spec["per_layer"])

    for w in workloads:
        expect(emitted(bench(w, 0)) == declared_e2e, f"{w}: end-to-end metrics or units differ")
        print(f"smoke: {w} end-to-end metrics ok", flush=True)
    expect(sorted(emitted(bench(workloads[0], 1))) == declared_layers,
           "per-layer metrics or units differ")
    print("smoke: per-layer metrics ok", flush=True)

    env = run.child_env()
    work = run.ROOT / ".bench_work" / "smoke"
    for w in workloads:
        passes = []
        for trace in (0, 1):
            extra = ["--workload", w, "--seed", "7", "--size", "tiny", "--trace", str(trace),
                     "--check", "1", "--workdir", str(work / f"{w}-{trace}")]
            try:
                passes.append(run.launch(extra, env)[0])
            finally:
                shutil.rmtree(work, ignore_errors=True)
        plain, traced = passes
        for p in passes:
            expect(p["checks"] and all(ok for _, ok, _ in p["checks"]), f"{w}: {p['checks']}")
        for key in ("attempted", "failed", "calls", "digest", "cli_digests"):
            expect(plain[key] == traced[key], f"{w}: {key} traced {traced[key]} != {plain[key]}")
        print(f"smoke: {w} checks ran ({len(plain['checks'])}), traced ops == untraced ops "
              f"({plain['attempted']} attempted, {plain['failed']} failed)", flush=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass
    print("smoke: all ok")


if __name__ == "__main__":
    main()
