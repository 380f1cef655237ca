"""Experiment reports: tabular rows plus the metadata that produced them.

Rows hold the deterministic, reproducible quantities; wall-clock timings
always live in metadata (under ``wall_times``) so that a fixed-seed run
produces bitwise-identical rows.  Reports serialize to JSON and render as
plain-text tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

EXPERIMENTS = ("speed", "converge", "price", "calibrate", "generate")


@dataclass
class ExperimentReport:
    experiment: str
    rows: List[Dict] = field(default_factory=list)
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")

    def to_json(self) -> str:
        return json.dumps({"experiment": self.experiment, "rows": self.rows,
                           "metadata": self.metadata}, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        obj = json.loads(text)
        return cls(experiment=obj["experiment"], rows=obj["rows"],
                   metadata=obj["metadata"])

    def to_table(self) -> str:
        """Aligned text table of the rows, metadata appended as key: value."""
        lines = [f"experiment: {self.experiment}"]
        if self.rows:
            cols = list(self.rows[0].keys())
            rendered = [[_fmt(row.get(c)) for c in cols] for row in self.rows]
            widths = [max(len(c), *(len(r[i]) for r in rendered))
                      for i, c in enumerate(cols)]
            lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            lines.append("  ".join("-" * w for w in widths))
            for r in rendered:
                lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        else:
            lines.append("(no rows)")
        for key in sorted(self.metadata):
            lines.append(f"{key}: {_fmt(self.metadata[key])}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)
