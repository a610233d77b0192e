import shlex
from pathlib import Path

import numpy as np
import pytest

from edmdkit import read_koopman_csv, read_spectrum_csv
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
    ], ids=lambda argv: " ".join(argv))
    def test_bad_input_is_config_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["predict", "--system", "affine:a=3,b=0", "--dict", "legendre:2",
         "--measure", "uniform:-1,1", "--x0", "0.5", "--horizon", "1000", "--M", "100"],
        ["eigenmeasure", "--system", "affine:a=3,b=0", "--family", "legendre",
         "--N", "800", "--x0", "0.5"],
        ["edmd", *TRIPLE[:4], "--measure", "gaussian:0,1e300", "--M", "100"],
    ], ids=lambda argv: " ".join(argv))
    @pytest.mark.filterwarnings("ignore")
    def test_non_finite_values_are_numerical_failure(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("edmdkit: numerical failure:") and err.count("\n") == 1


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
        assert code == 0
        assert "error" in capsys.readouterr().out

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
