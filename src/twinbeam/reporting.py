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
from itertools import groupby, repeat
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


def _json_float(x: float) -> str:
    """``json``'s text of ``_round_float(x, JSON_DIGITS)``."""
    if math.isfinite(x):
        return float.__repr__(_round_float(x, JSON_DIGITS))
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_LITERALS = {True: "true", False: "false", None: "null"}

#: encoders of the table cell types that ``_jsonify`` passes through or only rounds
_CELL_ENCODERS = {
    str: encode_basestring,
    int: int.__repr__,
    float: _json_float,
    bool: _LITERALS.__getitem__,
    type(None): _LITERALS.__getitem__,
}


def _json_cell(value: Any) -> str:
    encode = _CELL_ENCODERS.get(type(value))
    return encode(value) if encode else _nested_json(_jsonify(value), 3)


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


def _row_template(keys: tuple) -> tuple[str, list]:
    """``%`` template of a table row with these keys, and the keys in template order."""
    by_label = {str(k): k for k in keys}  # as in _jsonify, the last key of a label wins
    labels = sorted(by_label)
    if not labels:
        return "\n    {}", []
    body = ",".join(f"\n      {encode_basestring(k).replace('%', '%%')}: %s" for k in labels)
    return "\n    {" + body + "\n    }", [by_label[k] for k in labels]


def _json_rows(rows: list[dict], templates: dict) -> Iterator[str]:
    """Canonical text of each table row, with its leading newline and indent."""
    for keys, run in groupby(rows, key=tuple):
        if keys not in templates:
            templates[keys] = _row_template(keys)
        template, order = templates[keys]
        run = list(run)
        columns = [_json_column([row[k] for row in run]) for k in order]
        yield from map(template.__mod__, zip(*columns) if columns else repeat((), len(run)))


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

    def write_json(self, stream: TextIO) -> None:
        """Write the canonical JSON report to ``stream``, table rows in chunks.

        The bytes are those of ``canonical_json`` applied to the report
        with every value rounded by the ``_jsonify`` rules; no rounded
        copy is built.  ``parameters``, ``scalars`` and ``matrices`` go
        through the generic encoder; each table row fills a template
        built once per key set, each cell encoded by its exact type.  A
        value of an unsupported type raises ``TypeError``, possibly after
        part of the report was written.
        """
        head: dict[str, Any] = {
            "scenario": self.scenario,
            "statistics": self.statistics,
            "parameters": _jsonify(self.parameters),
            "scalars": {
                name: {"value": _jsonify(s.value), "provenance": s.provenance}
                for name, s in self.scalars.items()
            },
        }
        if self.matrices:
            head["matrices"] = {
                name: [[_jsonify(complex(v)) for v in row] for row in np.asarray(m)]
                for name, m in self.matrices.items()
            }
        # "table" sorts after every other key: drop the closing "\n}" and append it
        stream.write(_nested_json(head, 0)[:-2] + ',\n  "table": ')
        if not self.table:
            stream.write("[]\n}\n")
            return
        templates: dict[tuple, tuple[str, list]] = {}
        opening = "["
        for start in range(0, len(self.table), _ROW_CHUNK):
            chunk = self.table[start:start + _ROW_CHUNK]
            stream.write(opening + ",".join(_json_rows(chunk, templates)))
            opening = ","
        stream.write("\n  ]\n}\n")

    def to_json(self) -> str:
        """The text ``write_json`` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    def _columns(self) -> list[str]:
        """Table column names in order of first appearance."""
        return list(dict.fromkeys(key for row in self.table for key in row))

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.table:
            header = self._columns()
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
            header = self._columns()
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
    return _nested_json(data, 0) + "\n"


def _nested_json(data: Any, depth: int) -> str:
    """Canonical encoding of ``data`` as a value nested ``depth`` levels deep."""
    text = json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)
    return text.replace("\n", "\n" + "  " * depth)
