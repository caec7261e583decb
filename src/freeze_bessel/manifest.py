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
from dataclasses import dataclass, field
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
        return {
            "command": self.command,
            "parameters": _plain(self.parameters),
            "seed": self.seed,
            "version": self.version,
            "numpy_version": self.numpy_version,
            "scipy_version": self.scipy_version,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(
            command=d["command"],
            parameters=dict(d.get("parameters", {})),
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


def batch_csv_text(batch: SampleBatch, manifest: RunManifest) -> str:
    header = ",".join(f"x{i + 1}" for i in range(batch.points.shape[1]))
    lines = [MANIFEST_PREFIX + manifest.to_json(), header]
    lines.extend(",".join(map(repr, row)) for row in batch.points.tolist())
    return "\n".join(lines) + "\n"


def _batch_dict(batch: SampleBatch) -> dict:
    return {
        "spec": batch.spec.to_dict(),
        "t": batch.t,
        "method": batch.method.value,
        "seed": batch.seed,
        "diagnostics": batch.diagnostics.to_dict(),
        "points": batch.points.tolist(),
    }


def batch_json_text(batch: SampleBatch, manifest: RunManifest) -> str:
    payload = {"manifest": manifest.to_dict(), "batch": _batch_dict(batch)}
    return json.dumps(payload, indent=2) + "\n"


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


def _json_manifest(obj: dict, path) -> RunManifest:
    if "command" in obj:
        return RunManifest.from_dict(obj)
    if "manifest" in obj:
        return RunManifest.from_dict(obj["manifest"])
    raise ValueError(f"{path}: unrecognized JSON layout")


def read_manifest(path) -> RunManifest:
    """The manifest of any output file, without parsing its data.

    A CSV file's manifest is its first line; otherwise the file is read as
    JSON, either a bare manifest or an object with a ``"manifest"`` entry.
    """
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith(MANIFEST_PREFIX):
        return RunManifest.from_json(first[len(MANIFEST_PREFIX):])
    text = Path(path).read_text(encoding="utf-8")
    if not text.lstrip().startswith("{"):
        raise ValueError(f"{path}: missing '{MANIFEST_PREFIX.strip()}' header line")
    return _json_manifest(json.loads(text), path)


def read_run_file(path) -> dict:
    """Parse any output file; returns {"manifest": RunManifest, "kind": ..., ...}.

    Kinds: "batch-csv" (adds "points"), "batch-json" (adds "batch" dict and
    "points"), "reports-json" (adds "reports" list of dicts), "manifest-json"
    (a bare manifest).
    """
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        manifest = _json_manifest(obj, path)
        if "batch" in obj:
            return {
                "manifest": manifest,
                "kind": "batch-json",
                "batch": obj["batch"],
                "points": np.asarray(obj["batch"]["points"], dtype=float),
            }
        if "reports" in obj:
            return {"manifest": manifest, "kind": "reports-json", "reports": obj["reports"]}
        return {"manifest": manifest, "kind": "manifest-json"}
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
