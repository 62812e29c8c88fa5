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
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Any, TextIO

import numpy as np

JSON_DIGITS = 12
TABLE_DIGITS = 6

#: table rows encoded and written per ``write`` call of ``ScenarioReport.write_json``
_ROW_CHUNK = 1000

#: provenance flags carried by every scalar result
EXACT = "exact"
SAMPLED = "sampled"

#: the types of a table cell, scalar value or parameter
Value = str | int | float


@dataclass(frozen=True)
class Scalar:
    value: Value
    provenance: str = EXACT


def _round_float(x: float) -> float:
    if x == 0.0:
        return 0.0
    if not math.isfinite(x):
        return x
    return float(f"{x:.{JSON_DIGITS}g}") + 0.0


def _json_float(x: float) -> str:
    """``json``'s text of ``_round_float(x)``."""
    if math.isfinite(x):
        return float.__repr__(_round_float(x))
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


#: canonical JSON text of each value type, by exact type (``bool`` and NumPy scalars are refused)
_CELL_ENCODERS = {str: encode_basestring, int: int.__repr__, float: _json_float}


def _kind(value: Any) -> type:
    """The exact type of a report value, which must be ``str``, ``int`` or ``float``."""
    kind = type(value)
    if kind not in _CELL_ENCODERS:
        raise TypeError(f"a report value must be str, int or float, not {kind.__name__}")
    return kind


def _jsonify(value: Value) -> Value:
    """A parameter or scalar value as ``json`` encodes it: floats rounded to JSON_DIGITS."""
    return _round_float(value) if _kind(value) is float else value


def _json_cell(value: Value) -> str:
    return _CELL_ENCODERS[_kind(value)](value)


def _json_column(column: list) -> Iterator[str]:
    """Canonical text of each cell of one table column.

    A column of one type is checked once.  A float column encodes each
    distinct value once: branch tables repeat a few probabilities many times.
    """
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        distinct = set(column)
        return map(dict(zip(distinct, map(_json_float, distinct))).__getitem__, column)
    return map(_CELL_ENCODERS.get(kind, _json_cell), column)


def _json_rows(rows: list[dict], template: str, keys: list[str]) -> Iterator[str]:
    """Canonical text of each table row, with its leading newline and indent."""
    columns = [_json_column([row[k] for row in rows]) for k in keys]
    yield from map(template.__mod__, zip(*columns))


def _cell(value: Value, digits: int) -> str:
    return f"{value + 0.0:.{digits}g}" if _kind(value) is float else str(value)


@dataclass
class ScenarioReport:
    """Named results of one scenario run.

    ``table`` holds one flat dict per branch or grid point, at least one,
    all with the same keys; ``scalars`` map result names to values tagged
    exact or sampled.  Every cell, scalar value and parameter is a
    ``str``, ``int`` or ``float``.  ``matrices`` carries any density
    matrices (serialized as row-major [re, im] pairs in JSON).  Each
    renderer raises ``ValueError`` for an empty or ragged table and
    ``TypeError`` for a value of any other type.
    """

    scenario: str
    statistics: str
    table: list[dict[str, Value]]
    parameters: dict[str, Value] = field(default_factory=dict)
    scalars: dict[str, Scalar] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def scalar(self, name: str) -> Value:
        return self.scalars[name].value

    def _columns(self) -> list[str]:
        """The table's column names, in the first row's order."""
        if not self.table or not self.table[0]:
            raise ValueError("a report table needs at least one row and one column")
        keys = self.table[0].keys()
        if any(row.keys() != keys for row in self.table):
            raise ValueError("every row of a report table needs the same keys")
        return list(keys)

    def write_json(self, stream: TextIO) -> None:
        """Write the canonical JSON report to ``stream``, table rows in chunks.

        The bytes are those of ``canonical_json`` applied to the report
        with every float rounded to JSON_DIGITS; no rounded copy is
        built.  Each table row fills one template, each cell encoded by
        its exact type.  A value of another type raises ``TypeError``,
        possibly after part of the report was written.
        """
        keys = sorted(self._columns())
        head: dict[str, Any] = {
            "scenario": self.scenario,
            "statistics": self.statistics,
            "parameters": {k: _jsonify(v) for k, v in self.parameters.items()},
            "scalars": {
                name: {"value": _jsonify(s.value), "provenance": s.provenance}
                for name, s in self.scalars.items()
            },
        }
        if self.matrices:
            head["matrices"] = {
                name: [
                    [[_round_float(v.real), _round_float(v.imag)] for v in map(complex, row)]
                    for row in np.asarray(m)
                ]
                for name, m in self.matrices.items()
            }
        # "table" sorts after every other key: drop the closing "\n}" and append it
        stream.write(_nested_json(head, 0)[:-2] + ',\n  "table": ')
        body = ",".join(f"\n      {encode_basestring(k).replace('%', '%%')}: %s" for k in keys)
        template = "\n    {" + body + "\n    }"
        opening = "["
        for start in range(0, len(self.table), _ROW_CHUNK):
            chunk = self.table[start:start + _ROW_CHUNK]
            stream.write(opening + ",".join(_json_rows(chunk, template, keys)))
            opening = ","
        stream.write("\n  ]\n}\n")

    def to_json(self) -> str:
        """The text ``write_json`` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    def to_csv(self) -> str:
        header = self._columns()
        lines = [",".join(header)]
        lines += [",".join(_cell(row[k], JSON_DIGITS) for k in header) for row in self.table]
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = self._columns()
        lines = [f"scenario: {self.scenario}  [{self.statistics}]"]
        if self.parameters:
            rendered = ", ".join(f"{k}={_cell(v, TABLE_DIGITS)}" for k, v in self.parameters.items())
            lines.append(f"parameters: {rendered}")
        if self.scalars:
            lines.append("")
            width = max(len(n) for n in self.scalars)
            for name, s in self.scalars.items():
                lines.append(f"  {name:<{width}}  {_cell(s.value, TABLE_DIGITS)}  ({s.provenance})")
        lines.append("")
        cells = [[_cell(row[k], TABLE_DIGITS) for k in header] for row in self.table]
        widths = [max(len(h), *(len(r[i]) for r in cells)) for i, h in enumerate(header)]
        lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in cells:
            lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


def canonical_json(data: Any) -> str:
    """Stable JSON encoding: sorted keys, two-space indent, newline-terminated."""
    return _nested_json(data, 0) + "\n"


def _nested_json(data: Any, depth: int) -> str:
    """Canonical encoding of ``data`` as a value nested ``depth`` levels deep."""
    text = json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)
    return text.replace("\n", "\n" + "  " * depth)
