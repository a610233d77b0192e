"""Command-line experiment harness.

Subcommands: ``edmd``, ``analytic``, ``spectrum``, ``predict``,
``eigenmeasure``, ``study spectra|prediction|mc-rate|strong-convergence``,
``validate``.  Every output file is UTF-8 CSV (or SVG) with ``\\n`` line
endings and a leading comment line, built by :func:`_header` from the parsed
options, that names the library version and the cell the file holds.  The
table format itself (header line, shortest-repr floats, complex numbers as
paired re,im columns) lives in :mod:`edmdkit._table`.  Reruns with
identical configuration, seeds and BLAS thread count are byte-identical under
``--reproducible``, which suppresses the timestamp in that header.  Across
thread counts CI checks the README commands and one larger sampled study.

Configuration files are plain ``key=value`` lines mirroring the long option
names one-to-one, a switch being on for ``true``/``yes`` and off for
``false``/``no``; command-line flags override file values, and of several
``--config`` flags the last is read.  Exit status is 1
for configuration errors, output paths that cannot be created included, and 2
for every other library error, a numerical failure (rank deficiency,
eigensolver breakdown, quadrature nodes leaving the domain, non-finite map
images, dictionary values or predictions), never a traceback.

Handlers are parse -> call -> write: each parses its arguments, calls the
library (each study is one call into :mod:`edmdkit.studies`) and writes what
comes back; no handler loops over sample counts, dictionary sizes or seeds.
``predict`` scores like ``study prediction``: against the orbit f(T^i x0) of the
default observable, not against the projection (C psi)(T^i x0).
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
from .dictionary import _family_dictionary, parse_dictionary
from .edmd import fit_edmd, write_koopman_csv
from .errors import ConfigError, EdmdkitError
from .predict import _predict, observable_matrix
from .spectral import (eig, eigenmeasure_extract, pf_check, write_eigenmeasure_csv,
                       write_spectrum_csv)
from .studies import (_default_observable, convergence_sweep, mc_rate_study, prediction_study,
                      spectra_study)
from .svgplot import write_spectrum_svg

OUTDIR_ENV = "EDMDKIT_OUTDIR"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # _inject_config matches whole names only
        super().__init__(*args, allow_abbrev=False, **kwargs)

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


# spectrum and predict take one: an analytic fit or a sampled one of M points
_FIT_CHOICE = {"analytic": {"action": "store_true"}, "M": {"type": _positive}}


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--outdir", help="output directory (default: $EDMDKIT_OUTDIR or .)")
    common.add_argument("--reproducible", action="store_true",
                        help="suppress timestamps so reruns are byte-identical")
    common.add_argument("--config", help="key=value file mirroring the flags")

    triple = _Parser(add_help=False)
    triple.add_argument("--system", required=True)
    triple.add_argument("--dict", required=True)
    triple.add_argument("--measure", required=True)

    p = _Parser(prog="edmdkit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)

    def add(subparsers, name, handler, *parents, **kw):
        q = subparsers.add_parser(name, parents=[*parents, common], **kw)
        q.set_defaults(handler=handler)
        return q

    q = add(sub, "edmd", _cmd_edmd, triple,
            help="fit a sampled Koopman matrix and write it as CSV")
    q.add_argument("--M", type=_positive, required=True)
    q.add_argument("--seed", type=_nonnegative, default=0)
    q.add_argument("--tikhonov", type=_finite, default=0.0)
    q.add_argument("--out", default="edmd_matrix.csv")

    q = add(sub, "analytic", _cmd_analytic, triple,
            help="build the sampling-free Koopman matrix")
    q.add_argument("--order", type=_positive)
    q.add_argument("--out", default="analytic_matrix.csv")

    q = add(sub, "spectrum", _cmd_spectrum, triple,
            help="eigendecompose a fit and emit CSV + SVG")
    fit = q.add_mutually_exclusive_group(required=True)
    for name, kw in _FIT_CHOICE.items():
        fit.add_argument(f"--{name}", **kw)
    q.add_argument("--seed", type=_nonnegative, default=0)
    q.add_argument("--order", type=_positive)

    q = add(sub, "predict", _cmd_predict, triple,
            help="finite-horizon prediction against the true trajectory")
    q.add_argument("--x0", type=_finite, required=True)
    q.add_argument("--horizon", type=_nonnegative, required=True)
    fit = q.add_mutually_exclusive_group(required=True)
    for name, kw in _FIT_CHOICE.items():
        fit.add_argument(f"--{name}", **kw)
    q.add_argument("--seed", type=_nonnegative, default=0)

    q = add(sub, "eigenmeasure", _cmd_eigenmeasure,
            help="single-trajectory (M = N) eigenmeasure extraction")
    q.add_argument("--system", required=True)
    q.add_argument("--family", required=True)
    q.add_argument("--N", type=_positive, required=True)
    q.add_argument("--x0", type=_finite, required=True)
    q.add_argument("--pair", type=_nonnegative, default=0)

    st = sub.add_parser("study", help="multi-cell experiment studies")
    stsub = st.add_subparsers(dest="study", required=True)

    q = add(stsub, "spectra", _cmd_study_spectra, triple)
    q.add_argument("--M", type=_int_list, required=True)
    q.add_argument("--seeds", type=_positive, default=5)
    q.add_argument("--order", type=_positive)

    q = add(stsub, "prediction", _cmd_study_prediction, triple)
    q.add_argument("--M", type=_int_list, required=True)
    q.add_argument("--seed", type=_nonnegative, default=0)
    q.add_argument("--x0", type=_finite, required=True)
    q.add_argument("--horizon", type=_nonnegative, default=10)

    q = add(stsub, "mc-rate", _cmd_study_mc_rate, triple)
    q.add_argument("--M", type=_int_list, required=True)
    q.add_argument("--seeds", type=_positive, default=5)

    q = add(stsub, "strong-convergence", _cmd_study_strong)
    q.add_argument("--system", required=True)
    q.add_argument("--family", required=True)
    q.add_argument("--measure", required=True)
    q.add_argument("--N", type=_int_list, required=True)
    q.add_argument("--M", type=_int_list, default=[])
    q.add_argument("--seeds", type=_positive, default=1)
    q.add_argument("--horizon", type=_nonnegative, default=5)

    q = add(sub, "validate", _cmd_validate,
            help="report configuration diagnostics without running")
    q.add_argument("--system")
    q.add_argument("--dict")
    q.add_argument("--measure")
    q.add_argument("--M", type=_positive)

    return p


# ---------------------------------------------------------------------------
# config files


def _load_config_entries(path):
    """The file's ``(key, tokens)`` pairs in file order."""
    entries = []
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
        # true/yes turns a switch on, false/no leaves it off; anything else
        # is the option's value, checked by the parser like a typed one
        if value.lower() in ("true", "yes"):
            entries.append((key, [f"--{key}"]))
        elif value.lower() not in ("false", "no"):
            entries.append((key, [f"--{key}", value]))
    return entries


def _inject_config(argv):
    """Splice the tokens of the config file argparse keeps (the last
    ``--config`` given) in front of the explicit flags.  The command line wins:
    a file entry is dropped when the command line gives that option, or any
    option of ``_FIT_CHOICE`` for an entry in it."""
    finder = _Parser(add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return argv
    split = next((i for i, tok in enumerate(argv) if tok.startswith("-")), len(argv))
    given = {tok[2:].partition("=")[0] for tok in argv if tok.startswith("--")}
    if given & _FIT_CHOICE.keys():
        given |= _FIT_CHOICE.keys()
    tokens = [t for key, toks in _load_config_entries(path) if key not in given for t in toks]
    return argv[:split] + tokens + argv[split:]


# ---------------------------------------------------------------------------
# output helpers


def _outdir(args):
    path = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


# options that say where output goes or whether it is timestamped, not which
# cell it holds; ``handler`` is the subcommand's function
_UNECHOED = {"outdir", "out", "config", "reproducible", "handler"}


def _header(args, **derived):
    """The ``#`` line that starts every output file: the library version, every
    parsed option in parser order (lists comma-joined, options left at None
    skipped), the ``derived`` values, and the time unless ``--reproducible``."""
    parts = [f"edmdkit={__version__}"]
    for key, value in {**vars(args), **derived}.items():
        if key in _UNECHOED or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        parts.append(f"{key}={value}")
    if not args.reproducible:
        parts.append("generated=" + datetime.now(timezone.utc).isoformat())
    return "# " + " ".join(parts) + "\n"


def _write(path, header, body_writer):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header)
        body_writer(f)
    print(path)


# ---------------------------------------------------------------------------
# subcommand handlers


def _parse_triple(args):
    system = systems.parse_system(args.system)
    dic = parse_dictionary(args.dict, system.domain)
    measure = systems.parse_measure(args.measure)
    return system, dic, measure


def _cmd_edmd(args):
    system, dic, measure = _parse_triple(args)
    k = fit_edmd(generate_iid(system, measure, args.M, args.seed), dic, tikhonov=args.tikhonov)
    _write(_outdir(args) / args.out, _header(args), lambda f: write_koopman_csv(k, f))
    return 0


def _cmd_analytic(args):
    system, dic, measure = _parse_triple(args)
    k = fit_analytic(system, dic, measure, quad_order=args.order)
    _write(_outdir(args) / args.out, _header(args, provenance=k.provenance),
           lambda f: write_koopman_csv(k, f))
    return 0


def _fit_for(args, system, dic, measure):
    if args.analytic:
        return fit_analytic(system, dic, measure, quad_order=getattr(args, "order", None))
    return fit_edmd(generate_iid(system, measure, args.M, args.seed), dic)


def _cmd_spectrum(args):
    system, dic, measure = _parse_triple(args)
    k = _fit_for(args, system, dic, measure)
    decomp = eig(k)
    header = _header(args, provenance=k.provenance)
    out = _outdir(args)
    _write(out / "spectrum.csv", header, lambda f: write_spectrum_csv(decomp, f))
    marker = "circle" if args.analytic else "cross"
    _write(out / "spectrum.svg", "",
           lambda f: write_spectrum_svg(f, [(k.provenance, decomp.eigenvalues, marker)],
                                        title=f"{args.system} / {args.dict}",
                                        comment=header.strip("#\n ")))
    return 0


def _cmd_predict(args):
    system, dic, measure = _parse_triple(args)
    k = _fit_for(args, system, dic, measure)
    f = _default_observable(system)
    cmat = observable_matrix(f, dic, systems.gauss_rule(measure, max(64, 2 * dic.size)))
    result = _predict(k, cmat, [args.x0], args.horizon, system, f)
    columns = ["step", "truth_re", "truth_im", "pred_re", "pred_im", "abs_error"]
    rows = zip(range(1, result.horizon + 1), result.truth[:, 0].tolist(),
               result.predicted[:, 0].tolist(), result.errors.tolist())
    _write(_outdir(args) / "prediction.csv", _header(args, provenance=k.provenance),
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
    _write(_outdir(args) / f"eigenmeasure_{args.pair}.csv",
           _header(args, eigenvalue=repr(nu.eigenvalue)),
           lambda f: write_eigenmeasure_csv(nu, f))
    fns = [lambda p: np.ones(p.shape[1]), lambda p: p[0], lambda p: p[0] ** 2]
    for label, res in zip(["1", "x", "x^2"], pf_check(nu, system, fns)):
        r2 = "skipped" if res.r2 is None else f"{res.r2:.6e}"
        print(f"pf-check h={label}: r1={res.r1:.6e} r2={r2}")
    return 0


def _cmd_study_spectra(args):
    system, dic, measure = _parse_triple(args)
    spec_an, sampled, rows = spectra_study(system, dic, measure, args.M, range(args.seeds),
                                           args.order)
    out = _outdir(args)
    header = _header(args)
    for m, spec in sampled.items():
        _write(out / f"spectra_M{m}.svg", "",
               lambda f: write_spectrum_svg(
                   f, [("analytic", spec_an, "circle"), (f"sampled M={m}", spec, "cross")],
                   title=f"{args.system} spectra, M={m}", comment=header.strip("#\n ")))
    _write(out / "hausdorff.csv", header,
           lambda f: write_table(f, ["M", "seed", "hausdorff"], rows))
    return 0


def _cmd_study_prediction(args):
    system, dic, measure = _parse_triple(args)
    rows = prediction_study(system, dic, measure, args.M, args.seed, [args.x0], args.horizon)
    columns = ["step", "truth_re", "truth_im", "analytic_re", "analytic_im",
               *(f"M{m}_{part}" for m in args.M for part in ("re", "im"))]
    _write(_outdir(args) / "prediction_study.csv", _header(args),
           lambda f: write_table(f, columns, rows))
    return 0


def _cmd_study_mc_rate(args):
    system, dic, measure = _parse_triple(args)
    rows, slope = mc_rate_study(system, dic, measure, args.M, range(args.seeds))
    _write(_outdir(args) / "mc_rate.csv", _header(args),
           lambda f: write_table(f, ["M", "seed", "frob_gap"], rows))
    print(f"loglog_slope_of_median={slope!r}")
    return 0


def _cmd_study_strong(args):
    system = systems.parse_system(args.system)
    measure = systems.parse_measure(args.measure)
    out = _outdir(args)
    header = _header(args)

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
    """Diagnostics for a configuration: identifiers that do not parse, and
    sample counts below the dictionary size (the empirical Gram is only
    invertible with probability one when M >= N)."""
    diags = []
    system = dic = None
    if args.system:
        try:
            system = systems.parse_system(args.system)
        except ConfigError as exc:
            diags.append(f"error: {exc}")
    if args.dict:
        try:
            dic = parse_dictionary(args.dict,
                                   system.domain if system is not None else None)
        except ConfigError as exc:
            diags.append(f"error: {exc}")
    if args.measure:
        try:
            systems.parse_measure(args.measure)
        except ConfigError as exc:
            diags.append(f"error: {exc}")
    if dic is not None and args.M is not None and args.M < dic.size:
        diags.append(
            f"warning: M={args.M} is below the dictionary size N={dic.size}; "
            f"the empirical Gram is invertible with probability one only for M >= N"
        )
    return diags


def _cmd_validate(args):
    diags = validate_config(args)
    for line in diags:
        print(line)
    # warnings alone leave the configuration runnable
    return 1 if any(line.startswith("error:") for line in diags) else 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ConfigError, OSError) as exc:
        print(f"edmdkit: configuration error: {exc}", file=sys.stderr)
        return 1
    except EdmdkitError as exc:
        print(f"edmdkit: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
