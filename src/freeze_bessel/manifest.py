"""Run manifests and file serialization for sample batches and reports.

Every output file starts with (or embeds) a RunManifest recording the
command, its full parameter map, the seed, the tool, numpy and scipy
versions, and a timestamp.  CSV files carry it as a first line
``# manifest: <json>`` followed by one ``x1,...,xN`` row per sample; JSON
files mirror the same structure field for field.  Replaying a manifest re-runs the command with
the recorded parameters, reproducing the data section byte for byte.
"""

from __future__ import annotations

import datetime
import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from ._version import __version__
from .report import VerificationReport, _plain
from .sampling import SampleBatch

__all__ = [
    "MANIFEST_PREFIX",
    "RunManifest",
    "batch_csv_text",
    "batch_json_text",
    "reports_json_text",
    "write_text",
    "read_manifest",
    "read_run_file",
    "data_section",
]

MANIFEST_PREFIX = "# manifest: "


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record embedded in every output file."""

    command: str
    parameters: dict
    seed: int | None
    version: str = __version__
    numpy_version: str = np.__version__
    scipy_version: str = scipy.__version__
    timestamp: str = field(default_factory=_utc_now)

    def to_dict(self) -> dict:
        return {**asdict(self), "parameters": _plain(self.parameters)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        if not isinstance(d, dict) or not isinstance(d.get("command"), str):
            raise ValueError("a manifest is a JSON object with a string 'command'")
        parameters = d.get("parameters", {})
        if not isinstance(parameters, dict):
            raise ValueError("manifest 'parameters' must be a JSON object")
        return cls(
            command=d["command"],
            parameters=dict(parameters),
            seed=d.get("seed"),
            version=d.get("version", __version__),
            numpy_version=d.get("numpy_version", ""),
            scipy_version=d.get("scipy_version", ""),
            timestamp=d.get("timestamp", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# writers


def _rows_text(points: np.ndarray, sep: str, row_sep: str) -> str:
    """The repr of every entry of ``points``, ``sep`` between the entries of a
    row and ``row_sep`` between rows.

    One ``%r`` format over the flat list of entries builds no Python object per
    row, and ``%r`` of a float is its repr.
    """
    rows, n = points.shape
    return row_sep.join([sep.join(["%r"] * n)] * rows) % tuple(points.ravel().tolist())


def batch_csv_text(batch: SampleBatch, manifest: RunManifest) -> str:
    header = ",".join(f"x{i + 1}" for i in range(batch.points.shape[1]))
    lines = [MANIFEST_PREFIX + manifest.to_json(), header]
    if batch.count:
        lines.append(_rows_text(batch.points, ",", "\n"))
    lines.append("")  # the final newline, joined in rather than added to a copy
    return "\n".join(lines)


def batch_json_text(batch: SampleBatch, manifest: RunManifest) -> str:
    """The batch as ``json.dumps(..., indent=2)`` writes it, points last.

    json.dumps renders the head; the points block is written by ``_rows_text``
    in the same layout, since json writes a finite float as its repr and a
    SampleBatch holds finite points only.
    """
    fields = {
        "spec": batch.spec.to_dict(),
        "t": batch.t,
        "method": batch.method.value,
        "seed": batch.seed,
        "diagnostics": batch.diagnostics.to_dict(),
        "points": [],
    }
    head = json.dumps({"manifest": manifest.to_dict(), "batch": fields}, indent=2)
    if not batch.count:
        return head + "\n"
    rows = _rows_text(batch.points, ",\n        ", "\n      ],\n      [\n        ")
    return "".join((head.removesuffix("[]\n  }\n}"), "[\n      [\n        ", rows, "\n      ]\n    ]\n  }\n}\n"))


def reports_json_text(reports: list[VerificationReport], manifest: RunManifest) -> str:
    payload = {
        "manifest": manifest.to_dict(),
        "reports": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    return json.dumps(payload, indent=2) + "\n"


def write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def data_section(text: str) -> str:
    """Everything after the manifest line: the part that must be byte-stable."""
    lines = text.splitlines(keepends=True)
    if lines and lines[0].startswith(MANIFEST_PREFIX):
        return "".join(lines[1:])
    return text


# ---------------------------------------------------------------------------
# readers


_DECODER = json.JSONDecoder()
_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _manifest_member(text: str, path) -> RunManifest:
    """The ``"manifest"`` member of the JSON object ``text``.

    The members are decoded one at a time up to that one, so the data after
    it is neither parsed nor checked.
    """
    def skip(i: int) -> int:
        return _JSON_SPACE.match(text, i).end()

    i = skip(skip(0) + 1)  # past the opening brace
    while text.startswith('"', i):
        key, i = _DECODER.raw_decode(text, i)
        i = skip(i)
        if not text.startswith(":", i):
            break
        value, i = _DECODER.raw_decode(text, skip(i + 1))
        if key == "manifest":
            return RunManifest.from_dict(value)
        i = skip(i)
        if not text.startswith(",", i):
            break
        i = skip(i + 1)
    raise ValueError(f"{path}: unrecognized JSON layout")


def read_manifest(path) -> RunManifest:
    """The manifest of any output file, without parsing its data.

    A CSV file's manifest is its first line; otherwise the file is read as a
    JSON object with a ``"manifest"`` member, of which only the members up to
    that one are decoded.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith(MANIFEST_PREFIX):
        return RunManifest.from_json(first[len(MANIFEST_PREFIX):])
    text = Path(path).read_text(encoding="utf-8")
    if not text.lstrip().startswith("{"):
        raise ValueError(f"{path}: missing '{MANIFEST_PREFIX.strip()}' header line")
    return _manifest_member(text, path)


def read_run_file(path) -> dict:
    """Parse any output file; returns {"manifest": RunManifest, "kind": ..., ...}.

    Kinds: "batch-csv" (adds "points"), "batch-json" (adds "batch" dict and
    "points"), "reports-json" (adds "reports" list of dicts) and
    "manifest-json", the ``--out`` JSON of zeros, target, sigma and constants
    (adds "data", the object's entries besides the manifest).
    """
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        manifest = _manifest_member(text, path)
        obj = json.loads(text)
        if "batch" in obj:
            return {
                "manifest": manifest,
                "kind": "batch-json",
                "batch": obj["batch"],
                "points": np.asarray(obj["batch"]["points"], dtype=float),
            }
        if "reports" in obj:
            return {"manifest": manifest, "kind": "reports-json", "reports": obj["reports"]}
        data = {key: value for key, value in obj.items() if key != "manifest"}
        return {"manifest": manifest, "kind": "manifest-json", "data": data}
    manifest = read_manifest(path)
    # every CSV writer puts one header line ("x1,...,xN" or "zero") after the manifest
    rows = [ln for ln in text.splitlines()[2:] if ln.strip()]
    points = None
    if rows:
        try:
            points = np.array([[float(v) for v in ln.split(",")] for ln in rows])
        except ValueError:
            points = None
    return {"manifest": manifest, "kind": "batch-csv", "points": points}
