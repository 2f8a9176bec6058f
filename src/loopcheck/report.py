"""Structured findings shared by the analyzers, audits, and the CLI.

Reports are lists of flat records with a stable field set, so the
``json-lines`` output is diffable across runs; the text format is a
rendering of the same records.  Element ids inside records are 1-based to
match the file format and the CLI.
"""
from __future__ import annotations

import json

from ._record import field, record


def one_based(value):
    """Shift integer element ids to 1-based labels, recursively."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, (tuple, list)):
        return tuple(one_based(v) for v in value)
    if isinstance(value, dict):
        return {k: one_based(v) for k, v in value.items()}
    return value


@record(frozen=True)
class Record:
    kind: str
    level: str = "info"  # info | notice | finding
    loops: tuple[str, ...] = ()
    witness: tuple | None = None
    anchor: str = ""
    data: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "level": self.level,
            "loops": list(self.loops),
            "witness": list(self.witness) if self.witness is not None else None,
            "anchor": self.anchor,
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True, default=str)

    def to_text(self) -> str:
        parts = [f"[{self.level}] {self.kind}"]
        if self.loops:
            parts.append("loops=" + ",".join(self.loops))
        if self.witness is not None:
            parts.append(f"witness={self.witness}")
        if self.anchor:
            parts.append(f"anchor={self.anchor}")
        if self.data:
            parts.append(" ".join(f"{k}={v}" for k, v in sorted(self.data.items())))
        return "  ".join(parts)


@record
class AnalysisReport:
    records: list[Record] = field(default_factory=list)

    def add(
        self,
        kind: str,
        level: str = "info",
        loops: tuple[str, ...] = (),
        witness: tuple | None = None,
        anchor: str = "",
        **data,
    ) -> None:
        self.records.append(Record(kind, level, loops, witness, anchor, data))

    @property
    def findings(self) -> list[Record]:
        return [r for r in self.records if r.level == "finding"]

    @property
    def has_findings(self) -> bool:
        return any(r.level == "finding" for r in self.records)

    def render(self, fmt: str = "text") -> str:
        if fmt == "json-lines":
            return "\n".join(r.to_json() for r in self.records)
        return "\n".join(r.to_text() for r in self.records)
