"""One workload pass in a fresh interpreter; prints one JSON line.

Run by bench/run.py, never by hand.  A fresh process per pass means the
quadrature-node cache (``systems._leggauss``, an lru_cache) starts cold, the
way a CLI user meets it.  ``setup_s`` is the time from the parent's launch
stamp until ``import edmdkit`` returns, so nothing may be imported before it
except what reading the clock needs.

With --probe the worker stops after the import: run.py uses probes to take
several set-up samples per run.
"""

import sys
import time

import edmdkit  # first real import: its cost is set-up time

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def _digest(out):
    """sha256 over every array and number a pass produced, so passes of one
    run can be compared bit for bit without keeping their outputs."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            for key in sorted(obj):
                h.update(str(key).encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        elif isinstance(obj, wl.ek.SnapshotPair):
            feed([obj.X, obj.Y, obj.provenance])
        elif isinstance(obj, wl.ek.KoopmanMatrix):
            feed([obj.A, obj.provenance, obj.sigma_max, obj.sigma_min])
        else:
            h.update(repr(obj).encode())

    feed(out)
    return h.hexdigest()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=sorted(wl.RUNNERS))
    p.add_argument("--seed", type=int)
    p.add_argument("--size", choices=sorted(wl.SIZES))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check", type=int, choices=[0, 1], default=1)
    p.add_argument("--workdir")
    args = p.parse_args()

    setup_s = IMPORTED - args.launched
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(edmdkit.__file__).resolve().parent.parent != src:
        sys.exit(f"edmdkit imported from {edmdkit.__file__}, not from {src}")
    pinned = os.environ.get("OPENBLAS_NUM_THREADS")
    blas, threads = wl.blas_info()
    if threads is not None and str(threads) != pinned:
        sys.exit(f"BLAS threads pinned to {pinned} but {threads} in effect")
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": pinned,
        "blas_threads_in_effect": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "env": env}))
        return

    run, check = wl.RUNNERS[args.workload]
    tracer = wl.Tracer(bool(args.trace))
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    cpu0 = wl.cpu_seconds()
    t0 = time.perf_counter()
    out = run(tracer, args.seed, args.size, workdir)
    wall = time.perf_counter() - t0
    cpu = wl.cpu_seconds() - cpu0
    rss_self, rss_child = wl.peak_rss_mb()
    checks = check(out, args.seed, args.size) if args.check else []
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(rss_self, rss_child),
        "attempted": len(tracer.names),
        "failed": tracer.failed,
        "calls": tracer.names,
        "call_wall_s": tracer.wall,
        "counts": tracer.counts,
        "checks": checks,
        "digest": _digest(out),
        "cli_digests": out.get("digests", {}),
        "env": env,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
