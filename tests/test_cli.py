import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edmdkit import __version__, read_koopman_csv, read_spectrum_csv
from edmdkit.cli import main


TRIPLE = ["--system", "logistic", "--dict", "legendre:8", "--measure", "uniform:-1,1"]
ROTATION = ["--system", "rotation:omega=0.8378", "--family", "fourier"]
STRONG = ["study", "strong-convergence", "--system", "logistic", "--family", "legendre",
          "--measure", "uniform:-1,1"]

# the CLI section of README.md, verbatim; CI reruns this list with one and two
# BLAS threads
README_COMMANDS = {
    "edmd": ["edmd", *TRIPLE, "--M", "1000", "--seed", "0"],
    "analytic": ["analytic", *TRIPLE],
    "spectrum": ["spectrum", *TRIPLE, "--analytic"],
    "predict": ["predict", *TRIPLE, "--x0", "0.3", "--horizon", "10", "--analytic"],
    "eigenmeasure": ["eigenmeasure", *ROTATION, "--N", "15", "--x0", "0.7"],
    "study-spectra": ["study", "spectra", *TRIPLE, "--M", "100,1000,100000", "--seeds", "5"],
    "study-prediction": ["study", "prediction", *TRIPLE, "--M", "100,1000", "--x0", "0.3",
                         "--horizon", "10"],
    "study-mc-rate": ["study", "mc-rate", *TRIPLE, "--M", "100,1000,10000,100000",
                      "--seeds", "5"],
    "study-strong-convergence": [*STRONG, "--N", "3,5,9,13,17", "--horizon", "5"],
    "validate": ["validate", *TRIPLE, "--M", "5"],
}


# the README commands plus runs that set --tikhonov, a study --order and a
# sampled strong-convergence grid
HEADER_COMMANDS = {
    **README_COMMANDS,
    "edmd-tikhonov": ["edmd", *TRIPLE, "--M", "1000", "--tikhonov", "0.5"],
    "study-spectra-order": ["study", "spectra", *TRIPLE, "--M", "100,1000", "--seeds", "2",
                            "--order", "20"],
    "study-strong-convergence-sampled": [*STRONG, "--N", "3,5", "--M", "100", "--seeds", "2",
                                         "--horizon", "2"],
}
# where output goes and whether it is timestamped, not which cell it holds
UNECHOED = {"--outdir", "--out", "--config", "--reproducible"}


def run(tmp_path, *args):
    return main([*map(str, args), "--outdir", str(tmp_path)])


def read_file(path):
    return path.read_text(encoding="utf-8")


class TestEdmdCommand:
    def test_identity_matrix_csv(self, tmp_path):
        code = main(["edmd", "--system", "identity", "--dict", "legendre:4",
                     "--measure", "uniform:-1,1", "--M", "50", "--seed", "1",
                     "--outdir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "edmd_matrix.csv", encoding="utf-8") as f:
            k = read_koopman_csv(f)
        assert np.max(np.abs(k.A - np.eye(5))) <= 1e-10

    def test_header_carries_config_and_version(self, tmp_path):
        main(["edmd", "--system", "identity", "--dict", "legendre:2",
              "--measure", "uniform:-1,1", "--M", "20", "--outdir", str(tmp_path),
              "--reproducible"])
        first = read_file(tmp_path / "edmd_matrix.csv").splitlines()[0]
        assert first.startswith("# edmdkit=")
        assert "system=identity" in first and "dict=legendre:2" in first
        assert "generated=" not in first

    def test_timestamp_present_without_reproducible(self, tmp_path):
        main(["edmd", "--system", "identity", "--dict", "legendre:2",
              "--measure", "uniform:-1,1", "--M", "20", "--outdir", str(tmp_path)])
        first = read_file(tmp_path / "edmd_matrix.csv").splitlines()[0]
        assert "generated=" in first


def echoed_pairs(argv):
    """The key=value pairs a header must carry for ``argv``: the subcommand
    words, then each option with its value (a switch reads True)."""
    pairs = {f"mode={argv[0]}"} | ({f"study={argv[1]}"} if argv[0] == "study" else set())
    for i, tok in enumerate(argv):
        if tok.startswith("--") and tok not in UNECHOED:
            value = argv[i + 1] if i + 1 < len(argv) and not argv[i + 1].startswith("--") else True
            pairs.add(f"{tok[2:]}={value}")
    return pairs


class TestHeader:
    @pytest.mark.parametrize("name", HEADER_COMMANDS)
    def test_every_option_is_echoed(self, tmp_path, name):
        argv = HEADER_COMMANDS[name]
        assert run(tmp_path, *argv, "--reproducible") == 0
        files = sorted(tmp_path.iterdir()) if tmp_path.exists() else []
        assert files or name == "validate"
        for path in files:
            text = read_file(path)
            if path.suffix == ".svg":
                line = re.search(r"<!-- (.*) -->", text).group(1)
            else:
                line = text.splitlines()[0]
                assert line.startswith("# edmdkit=")
            missing = echoed_pairs(argv) - set(line.split())
            assert not missing, f"{path.name}: {sorted(missing)} not in {line!r}"

    @pytest.mark.parametrize("name, expected", [
        ("edmd", "mode=edmd system=logistic dict=legendre:8 measure=uniform:-1,1 "
                 "M=1000 seed=0 tikhonov=0.0"),
        # --M and --order unset: skipped; the derived provenance comes last
        ("spectrum", "mode=spectrum system=logistic dict=legendre:8 measure=uniform:-1,1 "
                     "analytic=True seed=0 provenance=analytic:order=64"),
        ("study-strong-convergence", "mode=study study=strong-convergence system=logistic "
                                     "family=legendre measure=uniform:-1,1 N=3,5,9,13,17 "
                                     "M= seeds=1 horizon=5"),
    ], ids=["edmd", "spectrum", "study-strong-convergence"])
    def test_readme_header_line(self, tmp_path, name, expected):
        assert run(tmp_path, *README_COMMANDS[name], "--reproducible") == 0
        firsts = {read_file(path).splitlines()[0] for path in tmp_path.glob("*.csv")}
        assert firsts == {f"# edmdkit={__version__} {expected}"}


class TestExitCodes:
    def test_unknown_system_is_config_error(self, tmp_path, capsys):
        code = run(tmp_path, "edmd", "--system", "henon", "--dict", "legendre:2",
                   "--measure", "uniform:-1,1", "--M", "10")
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_required_flag(self, tmp_path):
        code = run(tmp_path, "edmd", "--system", "logistic", "--measure", "uniform:-1,1",
                   "--M", "10")
        assert code == 1

    def test_numerical_failure_is_exit_two(self, tmp_path, capsys):
        # long logistic trajectories are numerically singular in the M = N regime
        code = run(tmp_path, "eigenmeasure", "--system", "logistic",
                   "--family", "legendre", "--N", "100", "--x0", "0.31")
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


    @pytest.mark.parametrize("argv", [
        ["edmd", *TRIPLE, "--M", "0"],
        ["edmd", "--system", "logistic", "--dict", "legendre:-2", "--measure", "uniform:-1,1",
         "--M", "10"],
        ["edmd", "--system", "logistic", "--dict", "fourier:2", "--measure", "uniform:-1,1",
         "--M", "10"],
        ["spectrum", *TRIPLE, "--M", "-3"],
        ["analytic", *TRIPLE, "--order", "0"],
        ["predict", *TRIPLE, "--x0", "0.3", "--horizon", "-1", "--analytic"],
        ["study", "prediction", *TRIPLE, "--M", "100", "--x0", "0.3", "--horizon", "-2"],
        [*STRONG, "--N", "3", "--horizon", "-1"],
        ["eigenmeasure", "--system", "logistic", "--family", "legendre", "--N", "0",
         "--x0", "0.3"],
        ["eigenmeasure", *ROTATION, "--N", "15", "--x0", "0.7", "--pair", "99"],
        ["study", "mc-rate", *TRIPLE, "--M", "100,1000", "--seeds", "0"],
        ["edmd", *TRIPLE, "--M", "100", "--tikhonov", "-1"],
        ["edmd", *TRIPLE, "--M", "100", "--seed", "-1"],
        ["predict", *TRIPLE, "--x0", "nan", "--horizon", "3", "--analytic"],
        ["edmd", "--system", "rotation:omega=inf", "--dict", "fourier:2",
         "--measure", "uniform:0,6", "--M", "100"],
        ["study", "strong-convergence", "--system", "logistic", "--family", "fourier",
         "--measure", "uniform:-1,1", "--N", "3"],
        ["analytic", "--system", "identity", "--dict", "legendre:2",
         "--measure", "gaussian:0,0.0001", "--order", "400"],
        ["study", "mc-rate", *TRIPLE, "--M", "100,100", "--seeds", "1"],
        [*STRONG, "--N", "3,3"],
        # --analytic and --M name two different fits
        ["spectrum", *TRIPLE, "--analytic", "--M", "100"],
        ["predict", *TRIPLE, "--x0", "0.3", "--horizon", "3", "--analytic", "--M", "100"],
        # output options belong to the study's subcommand, not to ``study``
        ["study", "--reproducible", "mc-rate", *TRIPLE, "--M", "100", "--seeds", "1"],
        ["study", "--outdir", "d", "spectra", *TRIPLE, "--M", "100", "--seeds", "1"],
        ["edmd", *TRIPLE[:4], "--measure", "uniform:1,0", "--M", "100"],
        ["edmd", *TRIPLE[:4], "--measure", "gaussian:0,0", "--M", "100"],
        ["edmd", *TRIPLE[:4], "--measure", "gaussian:0,-1", "--M", "100"],
        ["eigenmeasure", *ROTATION, "--N", "4", "--x0", "0.7"],  # Fourier sizes are odd
        ["study", "strong-convergence", "--system", "logistic", "--family", "sine",
         "--measure", "uniform:-1,1", "--N", "3"],
        [*STRONG, "--N", "5,3"],
        # every identifier is read in full: no parameter that the system does
        # not take, none given twice, and sizes spelled as plain integers
        ["edmd", "--system", "logistic:r=3.9", *TRIPLE[2:], "--M", "100"],
        ["edmd", "--system", "identity:3", *TRIPLE[2:], "--M", "100"],
        ["eigenmeasure", "--system", "rotation:omega=1,omega=2", *ROTATION[2:], "--N", "15",
         "--x0", "0.7"],
        ["eigenmeasure", "--system", "rotation:omega", *ROTATION[2:], "--N", "15",
         "--x0", "0.7"],
        ["eigenmeasure", "--system", "rotation:omega=abc", *ROTATION[2:], "--N", "15",
         "--x0", "0.7"],
        ["edmd", "--system", "affine:a=1", *TRIPLE[2:], "--M", "100"],
        ["edmd", *TRIPLE[:4], "--measure", "uniform:-1", "--M", "100"],
        ["edmd", *TRIPLE[:2], "--dict", "legendre:x", *TRIPLE[4:], "--M", "100"],
        ["edmd", *TRIPLE[:2], "--dict", "legendre:1_0", *TRIPLE[4:], "--M", "100"],
        ["edmd", *TRIPLE, "--M", "abc"],
        ["predict", *TRIPLE, "--x0", "abc", "--horizon", "3", "--analytic"],
        ["eigenmeasure", "--system", "logistic", "--family", "sine", "--N", "1", "--x0", "0.3"],
        # config paths are relative to the test's working directory, tmp_path
        ["edmd", *TRIPLE, "--M", "100", "--config=missing.cfg"],
        ["edmd", *TRIPLE, "--M", "100", "--config", "nested.cfg"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_input_is_config_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nested.cfg").write_text("config=other.cfg\n", encoding="utf-8")
        assert run(tmp_path, *argv) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["predict", "--system", "affine:a=3,b=0", "--dict", "legendre:2",
         "--measure", "uniform:-1,1", "--x0", "0.5", "--horizon", "1000", "--M", "100"],
        ["eigenmeasure", "--system", "affine:a=3,b=0", "--family", "legendre",
         "--N", "800", "--x0", "0.5"],
        ["edmd", *TRIPLE[:4], "--measure", "gaussian:0,1e300", "--M", "100"],
        # C A^i psi(x0) overflows: the M = 20 fit has spectral radius 1.45
        ["predict", *TRIPLE, "--x0", "0.3", "--horizon", "2000", "--M", "20"],
        ["study", "prediction", *TRIPLE, "--M", "20", "--x0", "0.3", "--horizon", "2000"],
        # Gauss-Hermite nodes of a wide Gaussian leave the logistic domain
        ["analytic", *TRIPLE[:4], "--measure", "gaussian:0,1"],
        ["analytic", "--system", "affine:a=2,b=0", "--dict", "legendre:4",
         "--measure", "uniform:-1,1"],
    ], ids=lambda argv: " ".join(argv))
    @pytest.mark.filterwarnings("ignore")
    def test_numerical_failure_is_one_prefixed_line(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("edmdkit: numerical failure:") and err.count("\n") == 1

    def test_overflowing_map_prints_no_numpy_warning(self, tmp_path):
        # a fresh interpreter under the default warning filters, which pytest
        # would otherwise capture: the overflow of 2x^2 - 1 reaches stderr only
        # as the failure line (the DomainEscapeWarning before it stays)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "edmdkit.cli", "edmd", "--system", "logistic", "--dict",
             "legendre:4", "--measure", "gaussian:0,1e308", "--M", "10",
             "--outdir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        *warning, failure = proc.stderr.splitlines()
        assert failure.startswith("edmdkit: numerical failure:")
        # before it only the sampling's one warning, as ``warnings`` prints it:
        # the location line, then the source line when it can be read
        assert warning[0].endswith(
            ": DomainEscapeWarning: logistic: 10 of 10 images left the domain")
        assert len(warning) <= 2 and all(line.startswith("  ") for line in warning[1:])

    @pytest.mark.parametrize("case", ["outdir-is-file", "outdir-under-file", "out-missing-dir"])
    def test_unwritable_output_path_is_config_error(self, tmp_path, capsys, case):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        outdir, extra = {
            "outdir-is-file": (blocker, []),
            "outdir-under-file": (blocker / "sub", []),
            "out-missing-dir": (tmp_path, ["--out", "sub/none/m.csv"]),
        }[case]
        assert run(outdir, "edmd", *TRIPLE, "--M", "20", *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("edmdkit: configuration error:") and err.count("\n") == 1


def test_readme_commands_match_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```bash\n# single fits\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.strip() and not ln.startswith("#")]
    assert [shlex.split(ln)[1:] for ln in lines] == list(README_COMMANDS.values())
    assert all(shlex.split(ln)[0] == "edmdkit" for ln in lines)


class TestValidate:
    def test_m_below_dictionary_size_warns(self, tmp_path, capsys):
        code = run(tmp_path, "validate", "--system", "logistic", "--dict", "legendre:8",
                   "--measure", "uniform:-1,1", "--M", "5")
        assert code == 0
        out = capsys.readouterr().out
        assert "M >= N" in out

    def test_unknown_identifier_reported(self, tmp_path, capsys):
        code = run(tmp_path, "validate", "--system", "henon")
        assert code == 1
        assert "error" in capsys.readouterr().out

    def test_each_unknown_identifier_is_one_error_line(self, tmp_path, capsys):
        code = run(tmp_path, "validate", "--system", "logistic", "--dict", "chebyshev:3",
                   "--measure", "beta:1,2")
        assert code == 1
        errors = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("error:")]
        assert errors == ["error: unknown dictionary 'chebyshev:3'",
                          "error: unknown measure 'beta:1,2'"]

    def test_clean_config_is_silent(self, tmp_path, capsys):
        code = run(tmp_path, "validate", "--system", "logistic", "--dict", "legendre:8",
                   "--measure", "uniform:-1,1", "--M", "100")
        assert code == 0
        assert capsys.readouterr().out == ""


class TestPredictCommand:
    def test_csv_structure(self, tmp_path):
        code = run(tmp_path, "predict", "--system", "logistic", "--dict", "legendre:8",
                   "--measure", "uniform:-1,1", "--x0", "0.3", "--horizon", "4",
                   "--analytic", "--reproducible")
        assert code == 0
        lines = read_file(tmp_path / "prediction.csv").splitlines()
        assert lines[1] == "step,truth_re,truth_im,pred_re,pred_im,abs_error"
        assert len(lines) == 2 + 4
        first = lines[2].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(-0.82)


CIRCLE = ["--system", "rotation:omega=0.8378", "--measure", "uniform:0,6.283185307179586"]


class TestCircleSystems:
    """On the circle the default observable is e^{ix}, which lies in every
    fourier span, so the errors are rounding (seen: at most 2.3e-15)."""

    @pytest.mark.parametrize("fit", [["--analytic"], ["--M", "200"]], ids=["analytic", "sampled"])
    def test_predict_first_harmonic(self, tmp_path, fit):
        assert run(tmp_path, "predict", *CIRCLE, "--dict", "fourier:3", "--x0", "0.3",
                   "--horizon", "5", *fit, "--reproducible") == 0
        lines = read_file(tmp_path / "prediction.csv").splitlines()[2:]
        rows = np.array([ln.split(",") for ln in lines], dtype=float)
        steps = np.arange(1, 6)
        assert np.array_equal(rows[:, 0], steps)
        truth = np.exp(1j * (0.3 + 0.8378 * steps))
        assert np.max(np.abs(rows[:, 1] + 1j * rows[:, 2] - truth)) <= 1e-12
        assert np.max(rows[:, 5]) <= 1e-12

    def test_strong_convergence(self, tmp_path):
        assert run(tmp_path, "study", "strong-convergence", *CIRCLE, "--family", "fourier",
                   "--N", "3,5,9", "--horizon", "3", "--reproducible") == 0
        lines = read_file(tmp_path / "strong_convergence.csv").splitlines()[2:]
        rows = [ln.split(",") for ln in lines]
        assert [(r[0], r[1], r[3]) for r in rows] == [
            (n, "analytic", step) for n in ["3", "5", "9"] for step in ["1", "2", "3"]]
        assert max(float(r[4]) for r in rows) <= 1e-12


class TestSpectrumCommand:
    def test_csv_and_svg_emitted(self, tmp_path):
        code = run(tmp_path, "spectrum", "--system", "logistic", "--dict", "legendre:8",
                   "--measure", "uniform:-1,1", "--analytic", "--reproducible")
        assert code == 0
        with open(tmp_path / "spectrum.csv", encoding="utf-8") as f:
            eigs = read_spectrum_csv(f)
        assert eigs.shape == (9,)
        svg = read_file(tmp_path / "spectrum.svg")
        assert svg.startswith("<svg")
        assert "stroke-dasharray" in svg  # unit-circle guide
        assert "legendre:8" in svg


class TestStudies:
    def test_spectra_outputs(self, tmp_path):
        code = run(tmp_path, "study", "spectra", "--system", "logistic",
                   "--dict", "legendre:8", "--measure", "uniform:-1,1",
                   "--M", "50,100", "--seeds", "2", "--reproducible")
        assert code == 0
        lines = read_file(tmp_path / "hausdorff.csv").splitlines()
        assert lines[1] == "M,seed,hausdorff"
        assert len(lines) == 2 + 4
        assert (tmp_path / "spectra_M50.svg").exists()
        assert (tmp_path / "spectra_M100.svg").exists()

    def test_prediction_study(self, tmp_path):
        code = run(tmp_path, "study", "prediction", "--system", "logistic",
                   "--dict", "legendre:8", "--measure", "uniform:-1,1",
                   "--M", "50,100", "--x0", "0.3", "--horizon", "3", "--reproducible")
        assert code == 0
        lines = read_file(tmp_path / "prediction_study.csv").splitlines()
        assert lines[1].split(",")[:5] == ["step", "truth_re", "truth_im",
                                           "analytic_re", "analytic_im"]
        assert "M50_re" in lines[1] and "M100_re" in lines[1]

    def test_mc_rate_rows_and_slope(self, tmp_path, capsys):
        code = run(tmp_path, "study", "mc-rate", "--system", "logistic",
                   "--dict", "legendre:4", "--measure", "uniform:-1,1",
                   "--M", "50,500", "--seeds", "2", "--reproducible")
        assert code == 0
        assert "loglog_slope_of_median=" in capsys.readouterr().out
        lines = read_file(tmp_path / "mc_rate.csv").splitlines()
        assert lines[1] == "M,seed,frob_gap"
        assert len(lines) == 2 + 4

    def test_strong_convergence_schema(self, tmp_path):
        code = run(tmp_path, "study", "strong-convergence", "--system", "logistic",
                   "--family", "legendre", "--measure", "uniform:-1,1",
                   "--N", "3,5", "--horizon", "2", "--reproducible")
        assert code == 0
        lines = read_file(tmp_path / "strong_convergence.csv").splitlines()
        assert lines[1] == "N,M_or_analytic,seed,step,l2_error,frob_gap,spectrum_file"
        rows = [ln.split(",") for ln in lines[2:]]
        assert [r[0] for r in rows] == ["3", "3", "5", "5"]
        assert all((tmp_path / r[6]).exists() for r in rows)


class TestDeterminism:
    def test_reruns_byte_identical_under_reproducible(self, tmp_path):
        args = ["study", "spectra", "--system", "logistic", "--dict", "legendre:8",
                "--measure", "uniform:-1,1", "--M", "50,100", "--seeds", "2",
                "--reproducible"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--outdir", str(d1)]) == 0
        assert main([*args, "--outdir", str(d2)]) == 0
        for name in ["hausdorff.csv", "spectra_M50.svg", "spectra_M100.svg"]:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


    @pytest.mark.parametrize("name", README_COMMANDS)
    def test_readme_command_reruns_byte_identical(self, tmp_path, capsys, name):
        outputs = []
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            assert run(run_dir, *README_COMMANDS[name], "--reproducible") == 0
            stdout = capsys.readouterr().out.replace(str(run_dir), "<outdir>")
            files = {p.name: p.read_bytes() for p in run_dir.iterdir()} if run_dir.exists() else {}
            outputs.append((stdout, files))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] or name == "validate"


class TestConfigFile:
    def test_file_mirrors_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "system=identity\ndict=legendre:4\nmeasure=uniform:-1,1\n"
            "M=50\nseed=1\nreproducible=true\n",
            encoding="utf-8",
        )
        code = main(["edmd", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "edmd_matrix.csv", encoding="utf-8") as f:
            k = read_koopman_csv(f)
        assert np.max(np.abs(k.A - np.eye(5))) <= 1e-10

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=identity\ndict=legendre:4\nmeasure=uniform:-1,1\nM=50\n",
                       encoding="utf-8")
        code = main(["edmd", "--config", str(cfg), "--M", "7", "--outdir", str(tmp_path),
                     "--reproducible"])
        assert code == 0
        header = read_file(tmp_path / "edmd_matrix.csv").splitlines()[0]
        assert "M=7" in header

    def test_switch_in_file_matches_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=logistic\ndict=legendre:8\nmeasure=uniform:-1,1\n"
                       "analytic=true\nreproducible=YES\n", encoding="utf-8")
        assert main(["spectrum", "--config", str(cfg), "--outdir", str(tmp_path / "a")]) == 0
        assert run(tmp_path / "b", "spectrum", *TRIPLE, "--analytic", "--reproducible") == 0
        for name in ["spectrum.csv", "spectrum.svg"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_switch_off_in_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("analytic=false\nreproducible=no\n", encoding="utf-8")
        assert main(["spectrum", *TRIPLE, "--M", "50", "--config", str(cfg),
                     "--outdir", str(tmp_path)]) == 0
        header = read_file(tmp_path / "spectrum.csv").splitlines()[0]
        assert "analytic=False" in header and "generated=" in header

    def test_analytic_flag_overrides_file_m(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("M=100\n", encoding="utf-8")
        assert main(["spectrum", *TRIPLE, "--config", str(cfg), "--analytic",
                     "--outdir", str(tmp_path), "--reproducible"]) == 0
        header = read_file(tmp_path / "spectrum.csv").splitlines()[0].split()
        assert "analytic=True" in header and "provenance=analytic:order=64" in header
        assert not any(part.startswith("M=") for part in header)

    def test_m_flag_overrides_file_analytic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("analytic=true\n", encoding="utf-8")
        assert main(["predict", *TRIPLE, "--x0", "0.3", "--horizon", "2", "--M", "100",
                     "--config", str(cfg), "--outdir", str(tmp_path), "--reproducible"]) == 0
        header = read_file(tmp_path / "prediction.csv").splitlines()[0].split()
        assert "analytic=False" in header and "M=100" in header
        assert any(part.startswith("provenance=sampled:") for part in header)

    @pytest.mark.parametrize("line", ["reproducible=maybe", "reproducible=1"])
    def test_bad_switch_value_is_exit_one(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert main(["edmd", *TRIPLE, "--M", "20", "--config", str(cfg),
                     "--outdir", str(tmp_path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    # flags are never abbreviated: a prefix would slip past the config-file
    # merge, which compares whole option names
    def test_abbreviated_fit_flag_is_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("M=100\n", encoding="utf-8")
        assert main(["spectrum", *TRIPLE, "--config", str(cfg), "--anal",
                     "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("edmdkit: configuration error:")
        assert "unrecognized arguments: --anal" in err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_abbreviated_config_flag_is_exit_one(self, tmp_path, capsys):
        # argparse took --conf for --config, but the file was never read
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed=3\n", encoding="utf-8")
        assert main(["edmd", *TRIPLE, "--M", "20", "--conf", str(cfg),
                     "--outdir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("edmdkit: configuration error:")
        assert f"unrecognized arguments: --conf {cfg}" in err

    def test_malformed_config_is_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("system identity\n", encoding="utf-8")
        assert main(["edmd", "--config", str(cfg)]) == 1


class TestOutdirEnv:
    def test_environment_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EDMDKIT_OUTDIR", str(tmp_path / "envout"))
        code = main(["edmd", "--system", "identity", "--dict", "legendre:2",
                     "--measure", "uniform:-1,1", "--M", "20"])
        assert code == 0
        assert (tmp_path / "envout" / "edmd_matrix.csv").exists()


class TestEigenmeasureCommand:
    def test_rotation_orbit_extraction(self, tmp_path, capsys):
        omega = 2 * np.pi * 2 / 15
        code = run(tmp_path, "eigenmeasure", "--system", f"rotation:omega={omega}",
                   "--family", "fourier", "--N", "15", "--x0", "0.7", "--pair", "0",
                   "--reproducible")
        assert code == 0
        out = capsys.readouterr().out
        assert "pf-check h=1:" in out
        lines = read_file(tmp_path / "eigenmeasure_0.csv").splitlines()
        assert lines[1] == "x_1,re_weight,im_weight"
        assert len(lines) == 2 + 15
