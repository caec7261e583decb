import json

import numpy as np
import pytest
import scipy

import freeze_bessel as fb
from freeze_bessel.cli import main
from freeze_bessel.manifest import (
    MANIFEST_PREFIX,
    RunManifest,
    batch_csv_text,
    batch_json_text,
    data_section,
    read_manifest,
    read_run_file,
    reports_json_text,
    write_text,
)
from freeze_bessel.sampling import SampleBatch, SampleMethod


def _manifest(**params):
    return RunManifest(command="sample", parameters=params, seed=11)


def test_manifest_json_roundtrip():
    m = RunManifest(
        command="verify",
        parameters={"suite": "lln", "strength": np.float64(2.5), "grid": np.arange(3)},
        seed=7,
    )
    back = RunManifest.from_json(m.to_json())
    assert back.command == "verify"
    assert back.seed == 7
    assert back.parameters["strength"] == 2.5
    assert back.parameters["grid"] == [0, 1, 2]
    assert back.version == m.version
    assert back.timestamp == m.timestamp
    assert (back.numpy_version, back.scipy_version) == (np.__version__, scipy.__version__)
    # the serialized form is plain JSON
    assert json.loads(m.to_json())["command"] == "verify"


def test_manifest_without_library_versions_still_reads():
    old = {"command": "sample", "parameters": {"n": 2}, "seed": 3, "version": "0.1.0",
           "timestamp": "2026-01-01T00:00:00Z"}
    back = RunManifest.from_dict(old)
    assert (back.numpy_version, back.scipy_version) == ("", "")
    assert back.parameters == {"n": 2} and back.timestamp == old["timestamp"]


def test_csv_layout_and_data_section_stability():
    batch = fb.sample_exact(fb.RootSystemSpec.a(2, 1.0), 1.0, 50, seed=11)
    text1 = batch_csv_text(batch, _manifest(kind="A", n=2))
    lines = text1.splitlines()
    assert lines[0].startswith(MANIFEST_PREFIX)
    assert lines[1] == "x1,x2"
    assert len(lines) == 2 + 50
    # a rerun embeds a fresh timestamp but the data section is byte-identical
    batch2 = fb.sample_exact(fb.RootSystemSpec.a(2, 1.0), 1.0, 50, seed=11)
    text2 = batch_csv_text(batch2, _manifest(kind="A", n=2))
    assert data_section(text1) == data_section(text2)
    # full float round-trip through repr
    parsed = np.loadtxt(text1.splitlines()[2:], delimiter=",")
    assert np.array_equal(parsed, batch.points)


def test_csv_reader_recovers_points_and_manifest(tmp_path):
    batch = fb.sample_exact(fb.RootSystemSpec.b(2, 1.0, 2.0), 0.5, 30, seed=3)
    path = tmp_path / "batch.csv"
    write_text(path, batch_csv_text(batch, _manifest(kind="B")))
    out = read_run_file(path)
    assert out["kind"] == "batch-csv"
    assert isinstance(out["manifest"], RunManifest)
    assert out["manifest"].parameters == {"kind": "B"}
    assert np.array_equal(out["points"], batch.points)


def test_csv_reader_recovers_zeros(tmp_path):
    path = tmp_path / "zeros.csv"
    assert main(["zeros", "hermite", "--n", "3", "--format", "csv", "--out", str(path)]) == 0
    out = read_run_file(path)
    assert out["kind"] == "batch-csv"
    assert out["manifest"].command == "zeros"
    assert out["points"].shape == (3, 1)
    assert np.array_equal(out["points"][:, 0], fb.hermite_zeros(3))


def test_json_reader_recovers_batch(tmp_path):
    batch = fb.sample_exact(fb.RootSystemSpec.d(2, 1.5), 1.0, 20, seed=4)
    path = tmp_path / "batch.json"
    write_text(path, batch_json_text(batch, _manifest(kind="D")))
    out = read_run_file(path)
    assert out["kind"] == "batch-json"
    assert out["batch"]["spec"] == batch.spec.to_dict()
    assert out["batch"]["t"] == 1.0
    assert out["batch"]["seed"] == 4
    assert np.array_equal(out["points"], batch.points)


def test_reports_json_roundtrip(tmp_path):
    reports = fb.run_suite("identities", quick=True)
    path = tmp_path / "reports.json"
    write_text(path, reports_json_text(reports, RunManifest("verify", {"suite": "identities"}, None)))
    out = read_run_file(path)
    assert out["kind"] == "reports-json"
    assert len(out["reports"]) == len(reports)
    assert out["reports"][0]["name"] == reports[0].name
    payload = json.loads(path.read_text())
    assert payload["all_passed"] is True


def test_bare_manifest_file(tmp_path):
    # a manifest is read only as the "manifest" entry of a JSON object, never bare
    m = _manifest(alpha=1)
    path = tmp_path / "manifest.json"
    write_text(path, m.to_json() + "\n")
    for read in (read_manifest, read_run_file):
        with pytest.raises(ValueError, match="unrecognized JSON layout"):
            read(path)
    write_text(path, json.dumps({"manifest": m.to_dict(), "zeros": [0.5]}) + "\n")
    assert read_manifest(path) == m
    out = read_run_file(path)
    assert out["kind"] == "manifest-json"
    assert out["manifest"] == m
    assert out["data"] == {"zeros": [0.5]}


# descending, so that every window of them lies in the closed A chamber
_EDGE_FLOATS = np.array([np.finfo(float).max, 1e16, 1.0 / 3.0, 1e-5, 5e-324, -0.0, -1e-5, -1e16])


def _writer_batches():
    for n in (1, 2, 3, 10):
        for spec in (fb.RootSystemSpec.a(n, 1.5), fb.RootSystemSpec.b(n, 1.0, 2.0), fb.RootSystemSpec.d(max(n, 2), 1.5)):
            yield fb.sample_exact(spec, 1.0, 1, seed=n)
            yield fb.sample_exact(spec, 1.0, 7, seed=n)
        if n < len(_EDGE_FLOATS):
            windows = np.lib.stride_tricks.sliding_window_view(_EDGE_FLOATS, n)
            yield SampleBatch(fb.RootSystemSpec.a(n, 1.0), 1.0, SampleMethod.TRIDIAG_A, 0, windows)
    yield SampleBatch(fb.RootSystemSpec.a(2, 1.0), 1.0, SampleMethod.TRIDIAG_A, 0, np.empty((0, 2)))


def test_batch_writers_match_the_formulas_they_replace():
    m = _manifest(kind="A")
    for batch in _writer_batches():
        fields = {
            "spec": batch.spec.to_dict(),
            "t": batch.t,
            "method": batch.method.value,
            "seed": batch.seed,
            "diagnostics": batch.diagnostics.to_dict(),
            "points": batch.points.tolist(),
        }
        want_json = json.dumps({"manifest": m.to_dict(), "batch": fields}, indent=2) + "\n"
        assert batch_json_text(batch, m) == want_json, batch.points.shape
        header = ",".join(f"x{i + 1}" for i in range(batch.spec.n))
        rows = [",".join(map(repr, row)) for row in batch.points.tolist()]
        want_csv = "\n".join([MANIFEST_PREFIX + m.to_json(), header, *rows]) + "\n"
        assert batch_csv_text(batch, m) == want_csv, batch.points.shape


def test_read_manifest_decodes_the_manifest_member_of_any_json_object(tmp_path):
    m = _manifest(kind="B")
    batch = fb.sample_exact(fb.RootSystemSpec.b(2, 1.0, 2.0), 1.0, 40, seed=6)
    path = tmp_path / "out.json"
    for text in (
        json.dumps({"manifest": m.to_dict(), "zeros": [0.5]}, separators=(",", ":")),
        json.dumps({"zeros": [0.5], "note": {"manifest": 1}, "manifest": m.to_dict()}),
        json.dumps({"reports": [{"name": "x"}], "manifest": m.to_dict(), "all_passed": True}, indent=1),
        "\n { \"a\" :\t[1, {\"b\": \"}\"}] ,\r\n \"manifest\" : " + m.to_json() + " }\n",
    ):
        write_text(path, text)
        assert read_manifest(path) == m, text
    for text in ("{}", '{"zeros": [0.5]}', '{"zeros" [0.5], "manifest": {}}', '{"zeros": [0.5] "manifest": {}}'):
        write_text(path, text)
        with pytest.raises(ValueError, match="unrecognized JSON layout"):
            read_manifest(path)
    # a batch cut off inside its points still names its run; its data does not parse
    text = batch_json_text(batch, m)
    write_text(path, text[: text.index('"points"') + 200])
    assert read_manifest(path) == m
    with pytest.raises(ValueError):
        read_run_file(path)


def test_data_section_without_manifest_line_is_identity():
    assert data_section("x1,x2\n1.0,2.0\n") == "x1,x2\n1.0,2.0\n"


def test_read_manifest_matches_read_run_file_for_every_layout(tmp_path):
    batch = fb.sample_exact(fb.RootSystemSpec.a(2, 1.0), 1.0, 10, seed=5)
    reports = fb.run_suite("identities", quick=True)
    files = {
        "batch.csv": batch_csv_text(batch, _manifest(kind="A")),
        "batch.json": batch_json_text(batch, _manifest(kind="A")),
        "reports.json": reports_json_text(reports, RunManifest("verify", {"suite": "identities"}, None)),
    }
    for name, text in files.items():
        write_text(tmp_path / name, text)
        assert read_manifest(tmp_path / name) == read_run_file(tmp_path / name)["manifest"], name


def test_read_manifest_takes_the_csv_header_line(tmp_path):
    path = tmp_path / "batch.csv"
    m = _manifest(kind="A")
    write_text(path, MANIFEST_PREFIX + m.to_json() + "\nx1,x2\nnot,a,number\n")
    assert read_manifest(path) == m
    write_text(path, "x1,x2\n1.0,2.0\n")
    with pytest.raises(ValueError, match="header line"):
        read_manifest(path)
