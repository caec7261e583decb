import json
import math

import numpy as np
import pytest

from freeze_bessel.cli import main
from freeze_bessel.manifest import data_section, read_run_file
from freeze_bessel.report import VerificationReport


def test_zeros_hermite_stdout(capsys):
    assert main(["zeros", "hermite", "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def test_zeros_laguerre_csv(tmp_path):
    path = tmp_path / "zeros.csv"
    assert main(["zeros", "laguerre", "--n", "1", "--alpha", "2.0", "--format", "csv", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "zero"
    assert float(lines[2]) == pytest.approx(3.0)  # single zero of L_1^(2) at 1 + alpha


def test_zeros_shifted_laguerre_family(capsys):
    assert main(["zeros", "laguerre-1", "--n", "3"]) == 0
    out = sorted(json.loads(capsys.readouterr().out))
    # zeros of L_2^(1) (2, 3 +- sqrt(3) scaled? no: plain zeros) plus explicit 0
    want = sorted([0.0, 3.0 - math.sqrt(3.0), 3.0 + math.sqrt(3.0)])
    assert np.allclose(out, want)


def test_target_command(capsys):
    assert main(["target", "--system", "B", "--n", "2", "--nu", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["system"] == "B"
    want = [math.sqrt(4 + 2 * math.sqrt(2)), math.sqrt(4 - 2 * math.sqrt(2))]
    assert np.allclose(obj["target"], want)


def test_sigma_command_values(capsys):
    assert main(["sigma", "--system", "A", "--n", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert np.allclose(obj["S"], [[1.5, -0.5], [-0.5, 1.5]])
    assert obj["det_S"] == pytest.approx(2.0)

    assert main(["sigma", "--system", "D", "--n", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert np.allclose(obj["S"], [[2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(obj["Sigma"], [[0.5, 0.0], [0.0, 0.5]])


def test_constants_command(capsys):
    assert main(["constants", "--family", "cA", "--n", "1", "--k", "1.0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["log_value"] == pytest.approx(math.log(1.0 / math.sqrt(2 * math.pi)))
    # missing required parameter exits 2
    assert main(["constants", "--family", "cA", "--n", "1"]) == 2


def test_sample_csv_rerun_and_replay(tmp_path):
    path1 = tmp_path / "a.csv"
    path2 = tmp_path / "b.csv"
    argv = ["sample", "--system", "A", "--n", "2", "--k", "1.0",
            "--count", "200", "--seed", "9", "--out"]
    assert main(argv + [str(path1)]) == 0
    assert main(argv + [str(path2)]) == 0
    assert data_section(path1.read_text()) == data_section(path2.read_text())

    # replay re-runs the recorded command and regenerates the recorded output
    # file with a byte-identical data section
    original = path1.read_text()
    copy = tmp_path / "copy.csv"
    copy.write_text(original)
    path1.unlink()
    assert main(["--replay", str(copy)]) == 0
    assert path1.exists()
    assert data_section(path1.read_text()) == data_section(original)

    parsed = read_run_file(path1)
    assert parsed["kind"] == "batch-csv"
    assert parsed["points"].shape == (200, 2)
    assert parsed["manifest"].parameters["seed"] == 9


def test_sample_json_format(tmp_path):
    path = tmp_path / "batch.json"
    assert main(["sample", "--system", "B", "--n", "2", "--k1", "1.0", "--k2", "2.0",
                 "--count", "50", "--seed", "3", "--format", "json", "--out", str(path)]) == 0
    out = read_run_file(path)
    assert out["kind"] == "batch-json"
    assert out["batch"]["spec"]["kind"] == "B"
    assert out["points"].shape == (50, 2)


def test_sample_argument_errors():
    assert main(["sample", "--system", "A", "--n", "2"]) == 2  # --k missing
    assert main(["sample", "--system", "B", "--n", "2", "--k1", "1.0"]) == 2


def test_sde_command(tmp_path):
    path = tmp_path / "sde.csv"
    assert main(["sde", "--system", "B", "--n", "2", "--k1", "1.0", "--k2", "1.0",
                 "--x0", "1.0,0.5", "--t", "0.5", "--steps", "40", "--paths", "300",
                 "--seed", "2", "--out", str(path)]) == 0
    out = read_run_file(path)
    assert out["points"].shape == (300, 2)
    # origin start is refused by validation
    assert main(["sde", "--system", "A", "--n", "2", "--k", "1.0",
                 "--x0", "0,0", "--paths", "10", "--steps", "5"]) == 2


def test_sde_budget_exhaustion_exits_3(monkeypatch):
    monkeypatch.setenv("FREEZE_BESSEL_BUDGET", "1000")
    assert main(["sde", "--system", "A", "--n", "2", "--k", "1.0",
                 "--x0", "1,-1", "--steps", "100", "--paths", "100"]) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_target_past_the_precision_envelope_exits_3(capsys):
    assert main(["target", "--system", "B", "--n", "400", "--nu", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "abort:" in captured.err


def test_lapack_failure_exits_3(monkeypatch, capsys):
    import freeze_bessel.tridiagonal as tridiagonal

    monkeypatch.setattr(tridiagonal, "dsterf", lambda d, e: (d, 1))
    assert main(["sample", "--system", "A", "--n", "20", "--k", "5", "--count", "10"]) == 3
    assert "dsterf failed with info=1" in capsys.readouterr().err


def test_verify_identities_exit_0(tmp_path, capsys):
    path = tmp_path / "reports.json"
    assert main(["verify", "--suite", "identities", "--quick", "--out", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "determinant-identity-A" in printed and "PASS" in printed
    out = read_run_file(path)
    assert out["kind"] == "reports-json"
    assert all(r["passed"] for r in out["reports"])


def test_verify_failing_suite_exits_1(monkeypatch, capsys):
    # a suite whose single report fails, built on purpose so the exit code
    # does not depend on any statistical outcome
    failing = VerificationReport(
        name="one-sided-B3", statistics={"fixed_axis_ks_p": 0.0}, passed=False, seed=0
    )
    monkeypatch.setattr("freeze_bessel.cli.run_suite", lambda suite, **kwargs: [failing])
    code = main(["verify", "--suite", "one-sided", "--seed", "0", "--quick"])
    printed = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in printed


def test_verify_randomized_suite_requires_seed(capsys):
    assert main(["verify", "--suite", "lln"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_replay_missing_file_exits_2(tmp_path):
    assert main(["--replay", str(tmp_path / "nope.csv")]) == 2
