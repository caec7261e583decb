import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freeze_bessel.cli import main
from freeze_bessel.manifest import MANIFEST_PREFIX, data_section, read_manifest, read_run_file
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


def test_zeros_csv_stdout_matches_the_file(tmp_path, capsys):
    argv = ["zeros", "hermite", "--n", "3", "--format", "csv"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    lines = printed.splitlines()
    assert lines[0].startswith(MANIFEST_PREFIX)
    assert lines[1] == "zero"
    assert [float(v) for v in lines[2:]] == pytest.approx([math.sqrt(1.5), 0.0, -math.sqrt(1.5)], abs=1e-15)
    path = tmp_path / "zeros.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert data_section(path.read_text()) == data_section(printed)


def test_zeros_shifted_laguerre_family(capsys):
    assert main(["zeros", "laguerre-1", "--n", "3"]) == 0
    out = sorted(json.loads(capsys.readouterr().out))
    # zeros of L_2^(1) (2, 3 +- sqrt(3) scaled? no: plain zeros) plus explicit 0
    want = sorted([0.0, 3.0 - math.sqrt(3.0), 3.0 + math.sqrt(3.0)])
    assert np.allclose(out, want)


def test_zeros_alpha_only_for_laguerre(tmp_path, capsys):
    for family in ("hermite", "laguerre-1"):
        assert main(["zeros", family, "--n", "2", "--alpha", "5"]) == 2
        assert f"family {family} takes no --alpha" in capsys.readouterr().err
    # a manifest with the default alpha = 0.0 still replays byte for byte
    path = tmp_path / "zeros.csv"
    assert main(["zeros", "hermite", "--n", "3", "--format", "csv", "--out", str(path)]) == 0
    original = path.read_text()
    assert read_run_file(path)["manifest"].parameters["alpha"] == 0.0
    copy = tmp_path / "copy.csv"
    copy.write_text(original)
    path.unlink()
    assert main(["--replay", str(copy)]) == 0
    assert data_section(path.read_text()) == data_section(original)
    # one that records an alpha the family never read is refused
    copy.write_text(original.replace('"alpha": 0.0', '"alpha": 5.0'))
    assert main(["--replay", str(copy)]) == 2


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

    # det S_A = n! passes the float range at n = 171, its log does not
    assert main(["sigma", "--system", "A", "--n", "171"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["det_S"] == math.inf
    assert obj["log_det_S"] == pytest.approx(math.lgamma(172), rel=1e-12)


def test_constants_command(capsys):
    assert main(["constants", "--family", "cA", "--n", "1", "--k", "1.0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["log_value"] == pytest.approx(math.log(1.0 / math.sqrt(2 * math.pi)))
    # missing required parameter exits 2
    assert main(["constants", "--family", "cA", "--n", "1"]) == 2
    # --x is the one flag a family takes beyond its parameters, and only tildeB takes it
    assert main(["constants", "--family", "tildeB", "--n", "2", "--nu", "1", "--beta", "2", "--x", "1,0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["x"] == [1.0, 0.5]
    # a constant past the float range prints as Infinity, its log does not
    assert main(["constants", "--family", "cA", "--n", "300", "--k", "0.001"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == math.inf
    assert obj["log_value"] == pytest.approx(1158.38, rel=1e-5)


@pytest.mark.parametrize(
    "argv",
    [
        ["target", "--system", "B", "--n", "2", "--nu", "1"],
        ["sigma", "--system", "A", "--n", "2"],
        ["constants", "--family", "cA", "--n", "2", "--k", "1.0"],
        ["zeros", "laguerre", "--n", "2", "--alpha", "1.0", "--format", "json"],
    ],
)
def test_read_run_file_reads_each_command_json_output(argv, tmp_path, capsys):
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    path = tmp_path / "out.json"
    assert main([*argv, "--out", str(path)]) == 0
    out = read_run_file(path)
    assert out["kind"] == "manifest-json"
    assert out["manifest"] == read_manifest(path)
    assert out["manifest"].command == argv[0]
    # the file holds what the command prints, beside its manifest (zeros prints the bare list)
    assert out["data"] == ({"zeros": printed} if argv[0] == "zeros" else printed)


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


@pytest.mark.parametrize("argv, message", [
    (["sample", "--system", "A", "--n", "2", "--k", "1", "--k1", "3"], "takes no --k1"),
    (["sample", "--system", "B", "--n", "2", "--k1", "1", "--k2", "1", "--k", "9"], "takes no --k"),
    (["sde", "--system", "A", "--n", "2", "--k", "1", "--x0", "1,-1", "--k1", "4"], "takes no --k1"),
    (["sigma", "--system", "A", "--n", "2", "--nu", "1"], "nu applies to kind B only"),
    (["sigma", "--system", "D", "--n", "2", "--nu", "1"], "nu applies to kind B only"),
    (["constants", "--family", "cA", "--n", "1", "--k", "1", "--beta", "2"], "takes no --beta"),
    (["constants", "--family", "cB", "--n", "1", "--k1", "1", "--k2", "1", "--k", "1"], "takes no --k"),
    (["constants", "--family", "tildeA", "--n", "1", "--k", "1", "--x", "1"], "takes no --x"),
    (["constants", "--family", "tildeB", "--n", "1", "--nu", "1", "--beta", "2", "--k2", "1"], "takes no --k2"),
], ids=["sample-A-k1", "sample-B-k", "sde-A-k1", "sigma-A-nu", "sigma-D-nu",
        "constants-cA-beta", "constants-cB-k", "constants-tildeA-x", "constants-tildeB-k2"])
def test_flags_a_command_does_not_take_exit_2(argv, message, capsys, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("argv, message", [
    (["sample", "--system", "A", "--n", "2", "--k", "1.0", "--t", "0", "--count", "3"], "error: t must"),
    (["sample", "--system", "A", "--n", "2", "--k", "1.0", "--count", "0"], "error: count must"),
    (["sde", "--system", "A", "--n", "2", "--k", "1.0", "--x0", "1,-1", "--paths", "0", "--steps", "5"],
     "error: paths must"),
    (["verify", "--suite", "lln", "--quick", "--seed", "0", "--t", "0"], "error: t must"),
    (["verify", "--suite", "lln", "--quick", "--seed", "0", "--k", "0"], "error:"),
    # --n-max 0 used to fail inside numpy, and constants --n 0 to print log_value 0
    (["verify", "--suite", "identities", "--n-max", "0"], "error: n_max must be an integer >= 1"),
    (["constants", "--family", "cA", "--n", "0", "--k", "1"], "error: n must be an integer >= 1"),
    # tildeB read only x.x, so a start of any length passed and NaN reached the JSON
    (["constants", "--family", "tildeB", "--n", "2", "--nu", "1", "--beta", "10", "--x", "1,2,3"],
     "error: tildeB x must be 2 finite coordinates"),
    (["constants", "--family", "tildeB", "--n", "2", "--nu", "1", "--beta", "10", "--x", "nan,1"],
     "error: tildeB x must be 2 finite coordinates"),
], ids=["sample-t0", "sample-count0", "sde-paths0", "verify-t0", "verify-k0", "verify-n_max0", "constants-n0",
        "constants-tildeB-x-length", "constants-tildeB-x-nan"])
def test_zero_arguments_are_refused_not_replaced_by_defaults(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


_B2_SDE = ["sde", "--system", "B", "--n", "2", "--k1", "1", "--k2", "1", "--steps", "5", "--paths", "20"]
_TILDE_B = ["constants", "--family", "tildeB", "--n", "2", "--nu", "1", "--beta", "2"]


@pytest.mark.parametrize("argv, message", [
    (["constants", "--family", "cA", "--n", "2", "--k=-0.3"], "multiplicities must be finite and >= 0"),
    (["constants", "--family", "cB", "--n", "2", "--k1=-0.2", "--k2", "1"], "multiplicities must be finite and >= 0"),
    (["constants", "--family", "cB", "--n", "2", "--k1", "1", "--k2=-0.4"], "multiplicities must be finite and >= 0"),
    (["constants", "--family", "cD", "--n", "2", "--k=-0.1"], "multiplicities must be finite and >= 0"),
    (["constants", "--family", "cD", "--n", "1", "--k", "1"], "kind D needs n >= 2"),
    (["sde", "--system", "B", "--n", "2", "--k1", "1", "--k2", "1", "--x0", "1,0.5,0.2"],
     "start must be 2 finite coordinates"),
    (["constants", "--family", "tildeA", "--n", "2", "--k", "nan"], "tildeA needs a finite k > 0, got nan"),
    (["constants", "--family", "tildeA", "--n", "2", "--k", "inf"], "tildeA needs a finite k > 0, got inf"),
    (["constants", "--family", "tildeB", "--n", "2", "--nu", "nan", "--beta", "10"],
     "tildeB needs a finite nu > 0, got nan"),
    (["constants", "--family", "tildeB", "--n", "2", "--nu", "inf", "--beta", "10"],
     "tildeB needs a finite nu > 0, got inf"),
    (["constants", "--family", "tildeB", "--n", "2", "--nu", "1", "--beta", "nan"],
     "tildeB needs a finite beta > 0, got nan"),
    (["constants", "--family", "tildeB", "--n", "2", "--nu", "1", "--beta", "inf"],
     "tildeB needs a finite beta > 0, got inf"),
    # vector flags dropped empty entries and split on ";" too, so these ran from (1, 0.5)
    *(([*_B2_SDE, f"--x0={x0}"], "--x0 must be comma-separated numbers")
      for x0 in ("1,,0.5", "1;0.5", ",1,0.5,", "1 0.5", "1,a")),
    *(([*_TILDE_B, f"--x={x}"], "--x must be comma-separated numbers") for x in ("1,,0.5", "1;0.5")),
    # a negative seed failed with numpy's "expected non-negative integer", which names nothing
    *(([*argv, "--seed=-1"], "seed must be an integer >= 0, got -1") for argv in (
        ["sample", "--system", "A", "--n", "2", "--k", "1", "--count", "20"],
        ["sample", "--system", "A", "--n", "2", "--k", "1", "--count", "20", "--method", "metropolis"],
        [*_B2_SDE, "--x0", "1,0.5"],
        ["verify", "--suite", "lln", "--quick"],
    )),
], ids=["cA-k", "cB-k1", "cB-k2", "cD-k", "cD-n1", "sde-x0-width", "tildeA-k-nan", "tildeA-k-inf",
        "tildeB-nu-nan", "tildeB-nu-inf", "tildeB-beta-nan", "tildeB-beta-inf",
        "x0-empty-entry", "x0-semicolon", "x0-edge-commas", "x0-space", "x0-word", "x-empty-entry", "x-semicolon",
        "seed-sample-exact", "seed-sample-metropolis", "seed-sde", "seed-verify"])
def test_spec_and_point_rules_refuse_input_exit_2(argv, message, capsys, tmp_path):
    # the constants printed a log value for multiplicities the spec refuses,
    # and tildeA's k and tildeB's nu and beta reached log_gamma unchecked
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["exact", "metropolis"])
@pytest.mark.parametrize("t", ["inf", "nan"])
def test_sample_time_must_be_finite_exits_2(method, t, capsys, tmp_path):
    # refused before any row is drawn or any chain starts
    out = tmp_path / "out.csv"
    argv = ["sample", "--system", "A", "--n", "2", "--k", "1", "--method", method, "--t", t, "--out", str(out)]
    assert main(argv) == 2
    assert "t must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_zeros_laguerre_alpha_must_be_finite_exits_2(alpha, capsys):
    assert main(["zeros", "laguerre", "--n", "3", "--alpha", alpha]) == 2
    assert "Laguerre parameter must be finite and > -1" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["target", "sigma"])
@pytest.mark.parametrize("nu", ["nan", "inf"])
def test_non_finite_nu_exits_2(command, nu, capsys, tmp_path):
    out = tmp_path / "out"
    assert main([command, "--system", "B", "--n", "2", "--nu", nu, "--out", str(out)]) == 2
    assert f"finite nu >= 0, got {nu}" in capsys.readouterr().err
    assert not out.exists()


def test_replayed_manifest_missing_a_parameter_exits_2(tmp_path, capsys):
    path = tmp_path / "a.csv"
    assert main(["sample", "--system", "A", "--n", "2", "--k", "1.0", "--count", "5", "--out", str(path)]) == 0
    header, rest = path.read_text().split("\n", 1)
    manifest = json.loads(header[len("# manifest: "):])
    del manifest["parameters"]["count"]
    path.write_text("# manifest: " + json.dumps(manifest) + "\n" + rest)
    assert main(["--replay", str(path)]) == 2
    assert "'count'" in capsys.readouterr().err


def _exit_code(argv) -> int:
    """main's exit code, also where argparse refuses through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _data(text: str) -> str:
    """What a replay must reproduce: everything after the manifest."""
    if text.startswith(MANIFEST_PREFIX):
        return data_section(text)
    return text[text.index("\n  },\n"):]  # the end of the leading "manifest" object


def _write_edited(text: str, path, changes: dict) -> None:
    """Write ``text`` to ``path`` with its manifest parameters updated by ``changes``."""
    if text.startswith(MANIFEST_PREFIX):
        header, rest = text.split("\n", 1)
        manifest = json.loads(header[len(MANIFEST_PREFIX):])
        manifest["parameters"].update(changes)
        path.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
    else:
        obj = json.loads(text)
        obj["manifest"]["parameters"].update(changes)
        path.write_text(json.dumps(obj, indent=2) + "\n")


@pytest.mark.parametrize("argv", [
    ["zeros", "laguerre", "--n", "4", "--alpha", "0.5", "--format", "csv"],
    ["target", "--system", "B", "--n", "3", "--nu", "1.5"],
    ["sigma", "--system", "d", "--n", "3"],
    ["constants", "--family", "tildeB", "--n", "2", "--nu", "1", "--beta", "2", "--x", "1,0.5"],
    ["sample", "--system", "A", "--n", "3", "--k", "2", "--count", "100", "--seed", "4"],
    ["sample", "--system", "B", "--n", "2", "--k1", "1", "--k2", "2", "--count", "100", "--seed", "5",
     "--method", "metropolis", "--format", "json"],
    ["sde", "--system", "A", "--n", "2", "--k", "1", "--x0=-0.1,-0.5", "--steps", "20", "--paths", "100"],
    ["verify", "--suite", "identities", "--quick", "--n-max", "3"],
], ids=["zeros", "target", "sigma", "constants", "sample-csv", "sample-json", "sde", "verify"])
def test_every_command_replays_its_data_section(argv, tmp_path, capsys):
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    original = path.read_text()
    copy = tmp_path / "copy"
    copy.write_text(original)
    path.unlink()
    assert main(["--replay", str(copy)]) == 0
    assert _data(path.read_text()) == _data(original)
    assert read_manifest(path).parameters == read_manifest(copy).parameters


_SAMPLE = ["sample", "--system", "A", "--n", "2", "--k", "1", "--count", "20", "--seed", "1"]
_SDE = ["sde", "--system", "A", "--n", "2", "--k", "1", "--x0=-0.1,-0.5", "--steps", "5", "--paths", "20"]


@pytest.mark.parametrize("argv, changes, message", [
    (_SAMPLE, {"n": 2.7}, "argument --n: invalid int value: '2.7'"),
    (_SAMPLE, {"n": math.inf}, "argument --n: invalid int value: 'inf'"),
    (["sigma", "--system", "A", "--n", "3"], {"n": 3.9}, "argument --n: invalid int value: '3.9'"),
    (_SAMPLE, {"t": None}, "run parameters ['t'] do not parse as recorded"),
    (_SDE, {"paths": 1000.8}, "argument --paths: invalid int value: '1000.8'"),
    (_SDE, {"seed": 0.9}, "argument --seed: invalid int value: '0.9'"),
    (["verify", "--suite", "identities", "--quick", "--n-max", "2"], {"quick": "false"},
     "argument --quick: ignored explicit argument 'false'"),
    (_SAMPLE, {"extra": 1}, "unrecognized arguments: --extra=1"),
    (_SAMPLE, {"method": "rwm"}, "argument --method: invalid choice: 'rwm'"),
    (["zeros", "hermite", "--n", "3"], {"alpha": None}, "run parameters ['alpha'] do not parse as recorded"),
], ids=["sample-n-2.7", "sample-n-inf", "sigma-n-3.9", "sample-t-null", "sde-paths-1000.8", "sde-seed-0.9",
        "verify-quick-string", "sample-extra-key", "sample-method-rwm", "zeros-alpha-null"])
def test_edited_manifest_exits_2_and_leaves_the_output_unchanged(argv, changes, message, tmp_path, capsys):
    path = tmp_path / "out"
    assert main([*argv, "--out", str(path)]) == 0
    original = path.read_text()
    copy = tmp_path / "edited"
    _write_edited(original, copy, changes)
    edited = copy.read_text()
    capsys.readouterr()
    assert _exit_code(["--replay", str(copy)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert path.read_text() == original and copy.read_text() == edited


@pytest.mark.parametrize("field, value, message", [
    ("command", ["sample"], "a manifest is a JSON object with a string 'command'"),
    ("parameters", [1, 2], "manifest 'parameters' must be a JSON object"),
], ids=["command-list", "parameters-list"])
def test_manifest_of_the_wrong_shape_exits_2(field, value, message, tmp_path, capsys):
    path = tmp_path / "out"
    assert main([*_SAMPLE, "--out", str(path)]) == 0
    original = path.read_text()
    header, rest = original.split("\n", 1)
    manifest = json.loads(header[len(MANIFEST_PREFIX):])
    manifest[field] = value
    copy = tmp_path / "edited"
    copy.write_text(MANIFEST_PREFIX + json.dumps(manifest) + "\n" + rest)
    edited = copy.read_text()
    capsys.readouterr()
    assert _exit_code(["--replay", str(copy)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert path.read_text() == original and copy.read_text() == edited


def _run_cli(*argv, **env_vars):
    """Run the command line in a fresh interpreter with ``env_vars`` set."""
    env = {**os.environ, **env_vars}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "freeze_bessel.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_refused_replay_exits_2_as_a_process(tmp_path):
    path = tmp_path / "a.csv"
    assert main([*_SAMPLE, "--out", str(path)]) == 0
    copy = tmp_path / "edited.csv"
    _write_edited(path.read_text(), copy, {"n": 2.7})
    proc = _run_cli("--replay", str(copy))
    assert proc.returncode == 2
    assert "argument --n: invalid int value: '2.7'" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_must_be_a_positive_integer(threads, capsys):
    # core's one integer rule, applied before dispatch, so before any draw
    assert main(["--threads", threads, "sample", "--system", "A", "--n", "2", "--k", "1.0", "--count", "3"]) == 2
    assert f"threads must be an integer >= 1, got {threads}" in capsys.readouterr().err


_PAST_FLOATS = "9" * 401  # an int that math.isfinite cannot convert to a float


@pytest.mark.parametrize("argv, name", [
    (["sample", "--system", "A", "--n", "2", "--k", "1", "--count", _PAST_FLOATS], "count"),
    (["sample", "--system", "A", "--n", _PAST_FLOATS, "--k", "1", "--count", "3"], "n"),
    ([*_B2_SDE, "--x0", "1,0.5", "--paths", _PAST_FLOATS], "paths"),
    ([*_B2_SDE, "--x0", "1,0.5", "--steps", _PAST_FLOATS], "steps"),
    (["--threads", _PAST_FLOATS, "sample", "--system", "A", "--n", "2", "--k", "1", "--count", "3"], "threads"),
], ids=["count", "n", "paths", "steps", "threads"])
def test_counts_past_the_float_range_are_refused_exit_2(argv, name, capsys):
    # the count rule's OverflowError escaped main, which exited 1 with a traceback
    assert main(argv) == 2
    assert f"error: {name} must be an integer >= 1, got 999" in capsys.readouterr().err


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


def test_vector_entries_may_carry_spaces(tmp_path):
    paths = [tmp_path / "plain.csv", tmp_path / "spaced.csv"]
    for x0, path in zip(("--x0=1,0.5", "--x0= 1 , 0.5 "), paths):
        assert main([*_B2_SDE, x0, "--out", str(path)]) == 0
    assert _data(paths[0].read_text()) == _data(paths[1].read_text())


def test_verify_ignores_threads(tmp_path, capsys):
    # verify draws at the samplers' defaults; --threads is accepted and changes nothing
    paths = [tmp_path / "threads2.json", tmp_path / "default.json"]
    codes = [main([*threads, "verify", "--suite", "clt-b1", "--quick", "--seed", "0", "--out", str(path)])
             for threads, path in zip((["--threads", "2"], []), paths)]
    assert codes[0] == codes[1]
    assert _data(paths[0].read_text()) == _data(paths[1].read_text())


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_sde_time_must_be_finite_exits_2(t, capsys):
    assert main(["sde", "--system", "A", "--n", "2", "--k", "1", "--x0", "1,0", "--t", t]) == 2
    assert "t must be finite and > 0" in capsys.readouterr().err


def test_sde_budget_exhaustion_exits_3(monkeypatch):
    monkeypatch.setenv("FREEZE_BESSEL_BUDGET", "1000")
    assert main(["sde", "--system", "A", "--n", "2", "--k", "1.0",
                 "--x0", "1,-1", "--steps", "100", "--paths", "100"]) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_target_past_the_precision_envelope_exits_3(capsys):
    # kind D reaches the rounding floor of the 1e-10 stationarity gate
    # before n = 1000 (1.6e-10 there)
    assert main(["target", "--system", "D", "--n", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "abort: stationarity residual" in captured.err


def test_lapack_failure_exits_3(monkeypatch, capsys):
    import freeze_bessel.tridiagonal as tridiagonal

    monkeypatch.setattr(tridiagonal, "_sterf_rows", lambda dsterf, d, e, start, stop: 1)
    assert main(["sample", "--system", "A", "--n", "20", "--k", "5", "--count", "10"]) == 3
    assert "dsterf failed with info=1" in capsys.readouterr().err


def test_lapack_failure_in_a_worker_thread_exits_3(monkeypatch, capsys):
    import freeze_bessel.tridiagonal as tridiagonal

    solve = tridiagonal._sterf_rows
    starts = []

    def fail_second_chunk(dsterf, d, e, start, stop):
        starts.append(start)
        return 1 if start > 0 else solve(dsterf, d, e, start, stop)

    monkeypatch.setattr(tridiagonal, "_sterf_rows", fail_second_chunk)
    assert main(["--threads", "2", "sample", "--system", "A", "--n", "50", "--k", "5", "--count", "10"]) == 3
    assert "dsterf failed with info=1" in capsys.readouterr().err
    assert sorted(starts) == [0, 5]


def test_verify_t_on_a_suite_without_draws_exits_2(tmp_path, capsys):
    assert main(["verify", "--suite", "identities", "--quick", "--t", "5"]) == 2
    assert "takes no t override" in capsys.readouterr().err
    # a manifest written before the refusal records the default t = 1.0 and
    # still replays byte for byte
    path = tmp_path / "reports.json"
    assert main(["verify", "--suite", "identities", "--quick", "--out", str(path)]) == 0
    original = path.read_text()
    assert json.loads(original)["manifest"]["parameters"]["t"] == 1.0
    copy = tmp_path / "copy.json"
    copy.write_text(original)
    path.unlink()
    assert main(["--replay", str(copy)]) == 0
    assert path.read_text().split('"reports"', 1)[1] == original.split('"reports"', 1)[1]


def test_verify_identities_exit_0(tmp_path, capsys):
    path = tmp_path / "reports.json"
    assert main(["verify", "--suite", "identities", "--quick", "--out", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "determinant-identity-A" in printed and "PASS" in printed
    out = read_run_file(path)
    assert out["kind"] == "reports-json"
    assert all(r["passed"] for r in out["reports"])


def test_verify_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # full mode: one-sided-B0's head covariance moved in its last digits
    # with OpenBLAS's thread count while it was taken through a GEMM
    reports = []
    for blas_threads in ("1", "2"):
        path = tmp_path / f"reports-{blas_threads}.json"
        proc = _run_cli("verify", "--suite", "one-sided", "--seed", "0", "--out", str(path),
                        OPENBLAS_NUM_THREADS=blas_threads)
        assert proc.returncode == 1, proc.stderr  # one-sided-B0 and -B3 fail (ROADMAP item 1)
        reports.append(read_run_file(path)["reports"])
    assert reports[0] == reports[1]


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


def test_verify_override_a_suite_does_not_take_exits_2(capsys):
    # "all" includes identities, which takes no --n
    assert main(["verify", "--suite", "all", "--seed", "0", "--quick", "--n", "5"]) == 2
    assert "takes no n override" in capsys.readouterr().err


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_replay_missing_file_exits_2(tmp_path):
    assert main(["--replay", str(tmp_path / "nope.csv")]) == 2
