"""Verification report records (JSON/CSV serializable)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["VerificationReport"]


def _plain(value):
    """Coerce numpy scalars/arrays into JSON-friendly builtins."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


@dataclass
class VerificationReport:
    """One named check: inputs, measured statistics, tolerances, verdict.

    ``passed`` is a pure function of ``statistics`` and ``tolerances``; the
    check functions set it at construction and never mutate it afterwards.
    """

    name: str
    parameters: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    passed: bool = False
    seed: int | None = None

    def to_dict(self) -> dict:
        return _plain(asdict(self))

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}"
