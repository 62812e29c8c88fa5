"""Report container and serialization for scenario runs.

JSON and CSV carry 12 significant digits; human-readable tables round
to 6.  JSON is emitted in canonical form (sorted keys, fixed indent)
so that identical runs produce byte-identical output and parsing plus
re-serialization is the identity.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

JSON_DIGITS = 12
TABLE_DIGITS = 6

#: provenance flags carried by every scalar result
EXACT = "exact"
SAMPLED = "sampled"


@dataclass(frozen=True)
class Scalar:
    value: Any
    provenance: str = EXACT


def _round_float(x: float, digits: int) -> float:
    if x == 0.0:
        return 0.0
    if not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}") + 0.0


def _jsonify(value: Any, digits: int = JSON_DIGITS) -> Any:
    if isinstance(value, bool) or isinstance(value, (str, int, type(None))):
        return value
    if isinstance(value, float):
        return _round_float(value, digits)
    if isinstance(value, complex):
        return [_round_float(value.real, digits), _round_float(value.imag, digits)]
    if isinstance(value, np.ndarray):
        return [_jsonify(v, digits) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return _round_float(float(value), digits)
    if isinstance(value, np.complexfloating):
        return _jsonify(complex(value), digits)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v, digits) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v, digits) for k, v in value.items()}
    raise TypeError(f"cannot serialize value of type {type(value)!r}")


def _cell(value: Any, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value + 0.0:.{digits}g}"
    if isinstance(value, complex):
        return f"{value.real + 0.0:.{digits}g}{value.imag + 0.0:+.{digits}g}j"
    return str(value)


@dataclass
class ScenarioReport:
    """Named results of one scenario run.

    ``scalars`` map result names to values tagged exact or sampled;
    ``table`` holds one flat dict per branch or grid point; ``matrices``
    carries any density matrices (serialized as row-major [re, im]
    pairs in JSON).
    """

    scenario: str
    statistics: str
    parameters: dict[str, Any] = field(default_factory=dict)
    scalars: dict[str, Scalar] = field(default_factory=dict)
    table: list[dict[str, Any]] = field(default_factory=list)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def scalar(self, name: str) -> Any:
        return self.scalars[name].value

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "scenario": self.scenario,
            "statistics": self.statistics,
            "parameters": _jsonify(self.parameters),
            "scalars": {
                name: {"value": _jsonify(s.value), "provenance": s.provenance}
                for name, s in self.scalars.items()
            },
            "table": [_jsonify(row) for row in self.table],
        }
        if self.matrices:
            out["matrices"] = {
                name: [[_jsonify(complex(v)) for v in row] for row in np.asarray(m)]
                for name, m in self.matrices.items()
            }
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.table:
            header: list[str] = []
            for row in self.table:
                for key in row:
                    if key not in header:
                        header.append(key)
            buf.write(",".join(header) + "\n")
            for row in self.table:
                buf.write(",".join(_cell(row.get(k), JSON_DIGITS) for k in header) + "\n")
        else:
            buf.write("name,value,provenance\n")
            for name, s in self.scalars.items():
                buf.write(f"{name},{_cell(s.value, JSON_DIGITS)},{s.provenance}\n")
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"scenario: {self.scenario}  [{self.statistics}]"]
        if self.parameters:
            rendered = ", ".join(f"{k}={_cell(v, TABLE_DIGITS)}" for k, v in self.parameters.items())
            lines.append(f"parameters: {rendered}")
        if self.scalars:
            lines.append("")
            width = max(len(n) for n in self.scalars)
            for name, s in self.scalars.items():
                lines.append(f"  {name:<{width}}  {_cell(s.value, TABLE_DIGITS)}  ({s.provenance})")
        if self.table:
            lines.append("")
            header: list[str] = []
            for row in self.table:
                for key in row:
                    if key not in header:
                        header.append(key)
            cells = [[_cell(row.get(k), TABLE_DIGITS) for k in header] for row in self.table]
            widths = [
                max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
                for i, h in enumerate(header)
            ]
            lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)))
            for r in cells:
                lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


def canonical_json(data: Any) -> str:
    """Stable JSON encoding: sorted keys, two-space indent, newline-terminated."""
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
