"""Command-line experiment harness.

Subcommands: ``edmd``, ``analytic``, ``spectrum``, ``predict``,
``eigenmeasure``, ``study spectra|prediction|mc-rate|strong-convergence``,
``validate``.  Every output file is UTF-8 CSV (or SVG) with ``\\n`` line
endings and a leading comment line echoing the configuration and library
version.  The table format itself (header line, shortest-repr floats, complex
numbers as paired re,im columns) lives in :mod:`edmdkit._table`.  Reruns with
identical configuration and seeds are byte-identical under ``--reproducible``,
which suppresses the timestamp in that header.

Configuration files are plain ``key=value`` lines mirroring the long option
names one-to-one; command-line flags override file values.  Exit status is 1
for configuration errors and 2 for numerical failures (rank deficiency,
eigensolver breakdown, non-finite map images or dictionary values), never a
traceback: bad input is rejected where it is parsed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import astuple
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, systems
from ._table import write_table
from .analytic import fit_analytic
from .data import generate_iid, generate_trajectory
from .dictionary import parse_dictionary
from .edmd import fit_edmd, write_koopman_csv
from .errors import (ConfigError, EdmdkitError, EigensolverError, NonFiniteError,
                     RankDeficiencyError)
from .predict import _family_dictionary, convergence_sweep, observable_matrix, predict
from .spectral import (
    eig,
    eigenmeasure_extract,
    hausdorff,
    pf_check,
    write_eigenmeasure_csv,
    write_spectrum_csv,
)
from .svgplot import write_spectrum_svg

OUTDIR_ENV = "EDMDKIT_OUTDIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _at_least(minimum):
    """Argparse type for integer counts bounded below."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


_positive = _at_least(1)
_nonnegative = _at_least(0)


def _finite(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_list(text):
    values = [_positive(v) for v in text.split(",")]
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--outdir", help="output directory (default: $EDMDKIT_OUTDIR or .)")
    common.add_argument("--reproducible", action="store_true",
                        help="suppress timestamps so reruns are byte-identical")
    common.add_argument("--config", help="key=value file mirroring the flags")

    triple = _Parser(add_help=False)
    triple.add_argument("--system", required=True)
    triple.add_argument("--dict", dest="dict_spec", required=True)
    triple.add_argument("--measure", required=True)

    p = _Parser(prog="edmdkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)

    def add(name, *parents, **kw):
        return sub.add_parser(name, parents=[*parents, common], **kw)

    q = add("edmd", triple, help="fit a sampled Koopman matrix and write it as CSV")
    q.add_argument("--M", type=_positive, required=True)
    q.add_argument("--seed", type=_nonnegative, default=0)
    q.add_argument("--tikhonov", type=_finite, default=0.0)
    q.add_argument("--out", default="edmd_matrix.csv")

    q = add("analytic", triple, help="build the sampling-free Koopman matrix")
    q.add_argument("--order", type=_positive)
    q.add_argument("--out", default="analytic_matrix.csv")

    q = add("spectrum", triple, help="eigendecompose a fit and emit CSV + SVG")
    q.add_argument("--analytic", action="store_true")
    q.add_argument("--M", type=_positive)
    q.add_argument("--seed", type=_nonnegative, default=0)
    q.add_argument("--order", type=_positive)

    q = add("predict", triple, help="finite-horizon prediction against the true trajectory")
    q.add_argument("--x0", type=_finite, required=True)
    q.add_argument("--horizon", type=_nonnegative, required=True)
    q.add_argument("--analytic", action="store_true")
    q.add_argument("--M", type=_positive)
    q.add_argument("--seed", type=_nonnegative, default=0)

    q = add("eigenmeasure", help="single-trajectory (M = N) eigenmeasure extraction")
    q.add_argument("--system", required=True)
    q.add_argument("--family", required=True, choices=["legendre", "monomial", "fourier"])
    q.add_argument("--N", type=_positive, required=True)
    q.add_argument("--x0", type=_finite, required=True)
    q.add_argument("--pair", type=_nonnegative, default=0)

    st = add("study", help="multi-cell experiment studies")
    stsub = st.add_subparsers(dest="study_kind", required=True)

    q = stsub.add_parser("spectra", parents=[triple, common])
    q.add_argument("--M", type=_int_list, required=True)
    q.add_argument("--seeds", type=_positive, default=5)
    q.add_argument("--order", type=_positive)

    q = stsub.add_parser("prediction", parents=[triple, common])
    q.add_argument("--M", type=_int_list, required=True)
    q.add_argument("--seed", type=_nonnegative, default=0)
    q.add_argument("--x0", type=_finite, required=True)
    q.add_argument("--horizon", type=_nonnegative, default=10)

    q = stsub.add_parser("mc-rate", parents=[triple, common])
    q.add_argument("--M", type=_int_list, required=True)
    q.add_argument("--seeds", type=_positive, default=5)

    q = stsub.add_parser("strong-convergence", parents=[common])
    q.add_argument("--system", required=True)
    q.add_argument("--family", required=True)
    q.add_argument("--measure", required=True)
    q.add_argument("--N", type=_int_list, required=True)
    q.add_argument("--M", type=_int_list, default=[])
    q.add_argument("--seeds", type=_positive, default=1)
    q.add_argument("--horizon", type=_nonnegative, default=5)

    q = add("validate", help="report configuration diagnostics without running")
    q.add_argument("--system")
    q.add_argument("--dict", dest="dict_spec")
    q.add_argument("--measure")
    q.add_argument("--M", type=_positive)

    return p


# ---------------------------------------------------------------------------
# config files


def _load_config_tokens(path):
    tokens = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "config":
            raise ConfigError("config files cannot nest")
        if key == "reproducible":
            if value.lower() in ("1", "true", "yes"):
                tokens.append("--reproducible")
        else:
            tokens.extend([f"--{key}", value])
    return tokens


def _inject_config(argv):
    """Splice config-file tokens in front of the explicit flags so the
    command line wins on conflicts."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    split = 0
    while split < len(argv) and not argv[split].startswith("-"):
        split += 1
    return argv[:split] + _load_config_tokens(path) + argv[split:]


# ---------------------------------------------------------------------------
# output helpers


def _outdir(args):
    d = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _header(args, params):
    parts = [f"edmdkit={__version__}", f"mode={args.mode}"]
    if getattr(args, "study_kind", None):
        parts.append(f"study={args.study_kind}")
    parts.extend(f"{k}={v}" for k, v in params.items())
    if not args.reproducible:
        parts.append("generated=" + datetime.now(timezone.utc).isoformat())
    return "# " + " ".join(parts) + "\n"


def _write(path, header, body_writer):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header)
        body_writer(f)
    print(path)


def _default_observable(system):
    """State coordinate on boxes, the first harmonic on circles."""
    if system.domain.kind == "circle":
        return lambda pts: np.exp(1j * pts[0])
    return lambda pts: pts[0]


def _observable(system, dic, measure):
    """Coefficients of the default observable, projected with a Gauss rule
    of at least twice the dictionary size."""
    return observable_matrix(_default_observable(system), dic,
                             systems.gauss_rule(measure, max(64, 2 * dic.size)))


# ---------------------------------------------------------------------------
# subcommand handlers


def _parse_triple(args):
    system = systems.parse_system(args.system)
    dic = parse_dictionary(args.dict_spec, system.domain)
    measure = systems.parse_measure(args.measure)
    return system, dic, measure


def _triple_params(args, **extra):
    """Header parameters of a command that takes --system/--dict/--measure."""
    return dict(system=args.system, dict=args.dict_spec, measure=args.measure, **extra)


def _cmd_edmd(args):
    if args.tikhonov < 0.0:
        raise ConfigError(f"--tikhonov must be nonnegative, got {args.tikhonov!r}")
    system, dic, measure = _parse_triple(args)
    pair = generate_iid(system, measure, args.M, args.seed)
    k = fit_edmd(pair, dic, tikhonov=args.tikhonov)
    params = _triple_params(args, M=args.M, seed=args.seed)
    _write(_outdir(args) / args.out, _header(args, params), lambda f: write_koopman_csv(k, f))
    return 0


def _cmd_analytic(args):
    system, dic, measure = _parse_triple(args)
    k = fit_analytic(system, dic, measure, quad_order=args.order)
    params = _triple_params(args, provenance=k.provenance)
    _write(_outdir(args) / args.out, _header(args, params), lambda f: write_koopman_csv(k, f))
    return 0


def _fit_for(args, system, dic, measure):
    if args.analytic:
        return fit_analytic(system, dic, measure, quad_order=getattr(args, "order", None))
    if args.M is None:
        raise ConfigError("either --analytic or --M is required")
    return fit_edmd(generate_iid(system, measure, args.M, args.seed), dic)


def _cmd_spectrum(args):
    system, dic, measure = _parse_triple(args)
    k = _fit_for(args, system, dic, measure)
    decomp = eig(k)
    params = _triple_params(args, provenance=k.provenance)
    out = _outdir(args)
    _write(out / "spectrum.csv", _header(args, params),
           lambda f: write_spectrum_csv(decomp, f))
    marker = "circle" if args.analytic else "cross"
    _write(out / "spectrum.svg", "",
           lambda f: write_spectrum_svg(f, [(k.provenance, decomp.eigenvalues, marker)],
                                        title=f"{args.system} / {args.dict_spec}",
                                        comment=_header(args, params).strip("#\n ")))
    return 0


def _cmd_predict(args):
    system, dic, measure = _parse_triple(args)
    k = _fit_for(args, system, dic, measure)
    result = predict(k, _observable(system, dic, measure), np.array([args.x0]),
                     args.horizon, dic, system)
    params = _triple_params(args, x0=args.x0, horizon=args.horizon, provenance=k.provenance)
    columns = ["step", "truth_re", "truth_im", "pred_re", "pred_im", "abs_error"]
    rows = zip(range(1, result.horizon + 1), result.truth[:, 0].tolist(),
               result.predicted[:, 0].tolist(), result.errors.tolist())
    _write(_outdir(args) / "prediction.csv", _header(args, params),
           lambda f: write_table(f, columns, rows))
    return 0


def _cmd_eigenmeasure(args):
    if args.pair >= args.N:
        raise ConfigError(f"--pair {args.pair} is out of range for --N {args.N}")
    system = systems.parse_system(args.system)
    dic = _family_dictionary(args.family, args.N, system.domain)
    pair = generate_trajectory(system, np.array([args.x0]), args.N)
    k = fit_edmd(pair, dic)
    decomp = eig(k)
    nu = eigenmeasure_extract(k, decomp, args.pair, pair)
    params = dict(system=args.system, family=args.family, N=args.N, x0=args.x0,
                  pair=args.pair, eigenvalue=repr(nu.eigenvalue))
    _write(_outdir(args) / f"eigenmeasure_{args.pair}.csv", _header(args, params),
           lambda f: write_eigenmeasure_csv(nu, f))
    fns = [lambda p: np.ones(p.shape[1]), lambda p: p[0], lambda p: p[0] ** 2]
    for label, res in zip(["1", "x", "x^2"], pf_check(nu, system, fns)):
        r2 = "skipped" if res.r2_skipped else f"{res.r2:.6e}"
        print(f"pf-check h={label}: r1={res.r1:.6e} r2={r2}")
    return 0


def _cmd_study_spectra(args):
    system, dic, measure = _parse_triple(args)
    k_an = fit_analytic(system, dic, measure, quad_order=args.order)
    spec_an = eig(k_an).eigenvalues
    out = _outdir(args)
    params = _triple_params(args, M=",".join(map(str, args.M)), seeds=args.seeds)
    rows = []
    for m in args.M:
        first = None
        for seed in range(args.seeds):
            k = fit_edmd(generate_iid(system, measure, m, seed), dic)
            spec = eig(k).eigenvalues
            if first is None:
                first = spec
            rows.append((m, seed, hausdorff(spec, spec_an)))
        _write(out / f"spectra_M{m}.svg", "",
               lambda f, m=m, first=first: write_spectrum_svg(
                   f,
                   [("analytic", spec_an, "circle"), (f"sampled M={m}", first, "cross")],
                   title=f"{args.system} spectra, M={m}",
                   comment=_header(args, params).strip("#\n ")))
    _write(out / "hausdorff.csv", _header(args, params),
           lambda f: write_table(f, ["M", "seed", "hausdorff"], rows))
    return 0


def _cmd_study_prediction(args):
    system, dic, measure = _parse_triple(args)
    cmat = _observable(system, dic, measure)
    x0 = np.array([args.x0])
    k_an = fit_analytic(system, dic, measure)
    res_an = predict(k_an, cmat, x0, args.horizon, dic, system)
    sampled = []
    for m in args.M:
        k = fit_edmd(generate_iid(system, measure, m, args.seed), dic)
        sampled.append(predict(k, cmat, x0, args.horizon, dic, system))
    params = _triple_params(args, M=",".join(map(str, args.M)), seed=args.seed, x0=args.x0,
                            horizon=args.horizon)
    columns = ["step", "truth_re", "truth_im", "analytic_re", "analytic_im",
               *(f"M{m}_{part}" for m in args.M for part in ("re", "im"))]
    rows = zip(range(1, args.horizon + 1), res_an.truth[:, 0].tolist(),
               res_an.predicted[:, 0].tolist(), *(r.predicted[:, 0].tolist() for r in sampled))
    _write(_outdir(args) / "prediction_study.csv", _header(args, params),
           lambda f: write_table(f, columns, rows))
    return 0


def _cmd_study_mc_rate(args):
    system, dic, measure = _parse_triple(args)
    k_an = fit_analytic(system, dic, measure)
    rows = []
    medians = []
    for m in args.M:
        gaps = []
        for seed in range(args.seeds):
            k = fit_edmd(generate_iid(system, measure, m, seed), dic)
            gaps.append(float(np.linalg.norm(k.A - k_an.A)))
            rows.append((m, seed, gaps[-1]))
        medians.append(float(np.median(gaps)))
    slope = float(np.polyfit(np.log(args.M), np.log(medians), 1)[0]) if len(args.M) > 1 else 0.0
    params = _triple_params(args, M=",".join(map(str, args.M)), seeds=args.seeds)
    _write(_outdir(args) / "mc_rate.csv", _header(args, params),
           lambda f: write_table(f, ["M", "seed", "frob_gap"], rows))
    print(f"loglog_slope_of_median={slope!r}")
    return 0


def _cmd_study_strong(args):
    system = systems.parse_system(args.system)
    measure = systems.parse_measure(args.measure)
    out = _outdir(args)
    params = dict(system=args.system, family=args.family, measure=args.measure,
                  N=",".join(map(str, args.N)), horizon=args.horizon)
    header = _header(args, params)

    def spectrum_writer(label, decomp):
        name = f"spectrum_{label}.csv"
        _write(out / name, header, lambda f: write_spectrum_csv(decomp, f))
        return name

    rows = convergence_sweep(system, measure, args.family, args.N, args.M,
                             args.horizon, _default_observable(system),
                             list(range(args.seeds)), spectrum_writer=spectrum_writer)
    # SweepRow fields are in column order; None (analytic seed and gap) is an empty cell
    columns = ["N", "M_or_analytic", "seed", "step", "l2_error", "frob_gap", "spectrum_file"]
    _write(out / "strong_convergence.csv", header,
           lambda f: write_table(f, columns, map(astuple, rows)))
    return 0


def validate_config(args) -> list:
    """Diagnostics for a configuration: unknown identifiers, dimension
    mismatches, and sample counts below the dictionary size (the empirical
    Gram is only invertible with probability one when M >= N)."""
    diags = []
    system = dic = None
    if args.system:
        try:
            system = systems.parse_system(args.system)
        except ConfigError as exc:
            diags.append(f"error: {exc}")
    if args.dict_spec:
        try:
            dic = parse_dictionary(args.dict_spec,
                                   system.domain if system is not None else None)
        except ConfigError as exc:
            diags.append(f"error: {exc}")
    if args.measure:
        try:
            measure = systems.parse_measure(args.measure)
            if system is not None and measure.dimension != system.dimension:
                diags.append("error: measure dimension does not match system dimension")
        except ConfigError as exc:
            diags.append(f"error: {exc}")
    if dic is not None and args.M is not None and args.M < dic.size:
        diags.append(
            f"warning: M={args.M} is below the dictionary size N={dic.size}; "
            f"the empirical Gram is invertible with probability one only for M >= N"
        )
    return diags


def _cmd_validate(args):
    for line in validate_config(args):
        print(line)
    return 0


_HANDLERS = {
    "edmd": _cmd_edmd,
    "analytic": _cmd_analytic,
    "spectrum": _cmd_spectrum,
    "predict": _cmd_predict,
    "eigenmeasure": _cmd_eigenmeasure,
    "validate": _cmd_validate,
}

_STUDY_HANDLERS = {
    "spectra": _cmd_study_spectra,
    "prediction": _cmd_study_prediction,
    "mc-rate": _cmd_study_mc_rate,
    "strong-convergence": _cmd_study_strong,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        if args.mode == "study":
            return _STUDY_HANDLERS[args.study_kind](args)
        return _HANDLERS[args.mode](args)
    except ConfigError as exc:
        print(f"edmdkit: configuration error: {exc}", file=sys.stderr)
        return 1
    except (RankDeficiencyError, EigensolverError, NonFiniteError) as exc:
        print(f"edmdkit: numerical failure: {exc}", file=sys.stderr)
        return 2
    except EdmdkitError as exc:
        print(f"edmdkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
