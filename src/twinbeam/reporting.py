"""Report container and serialization for scenario runs.

JSON and CSV carry 12 significant digits; human-readable tables round
to 6.  JSON is emitted in canonical form (sorted keys, fixed indent)
so that identical runs produce byte-identical output and parsing plus
re-serialization is the identity.
"""

from __future__ import annotations

import csv
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

#: table rows that ``ScenarioReport.write_json`` joins from one flat list and writes at once
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


def _json_floats(values: list[float]) -> list[str]:
    """``_json_float`` of each value, all formatted to JSON_DIGITS by one ``%`` call.

    A decimal of at most 12 significant digits round-trips through a
    double, so a ``%.12g`` text without exponent has the digits of
    ``repr`` of the rounded float: one with a ``.`` is that ``repr``, and
    an integer lacks only its ``.0``.  Exponent forms (every subnormal
    among them), ``-0``, NaN and the infinities go through ``_json_float``.
    """
    texts = (f"%.{JSON_DIGITS}g\0" * len(values) % tuple(values)).split("\0")
    return [
        t if "." in t and "e" not in t
        else t + ".0" if t.lstrip("-").isdigit() and t != "-0"
        else _json_float(x)
        for t, x in zip(texts, values)
    ]


def _json_column(column: list) -> Iterator[str]:
    """Canonical text of each cell of one table column.

    A column of one type is checked once.  A float or int column encodes
    each distinct value once (probabilities and click counts repeat), a
    float column's all in one ``%`` call (``_json_floats``); the mostly
    distinct pattern names of a str column are encoded cell by cell.
    """
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float or kind is int:
        distinct = list(set(column))
        texts = _json_floats(distinct) if kind is float else map(int.__repr__, distinct)
        return map(dict(zip(distinct, texts)).__getitem__, column)
    return map(_CELL_ENCODERS.get(kind, _json_cell), column)


def _cell(value: Value, digits: int) -> str:
    return f"{value + 0.0:.{digits}g}" if _kind(value) is float else str(value)


@dataclass
class ScenarioReport:
    """Named results of one scenario run.

    ``table`` maps each column name to its list of cells, one per branch
    or grid point, every column the same nonzero length; ``scalars`` map
    result names to values tagged exact or sampled.  Every cell, scalar
    value and parameter is a ``str``, ``int`` or ``float``.  ``matrices``
    carries any density matrices (serialized as row-major [re, im] pairs
    in JSON).  Each renderer raises ``ValueError`` for an empty or ragged
    table and ``TypeError`` for a value of any other type.
    """

    scenario: str
    statistics: str
    table: dict[str, list[Value]]
    parameters: dict[str, Value] = field(default_factory=dict)
    scalars: dict[str, Scalar] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def scalar(self, name: str) -> Value:
        return self.scalars[name].value

    def _rows(self) -> int:
        """The number of table rows: the one length of every column."""
        lengths = set(map(len, self.table.values()))
        if len(lengths) > 1:
            raise ValueError("every column of a report table needs the same length")
        if not lengths or 0 in lengths:
            raise ValueError("a report table needs at least one row and one column")
        return lengths.pop()

    def write_json(self, stream: TextIO) -> None:
        """Write the canonical JSON report to ``stream``, table rows in chunks.

        The bytes are those of ``canonical_json`` applied to the report
        with every float rounded to JSON_DIGITS and the table as a list
        of row objects; no rounded copy is built.  Each chunk of
        :data:`_ROW_CHUNK` rows is encoded column by column by
        ``_json_column`` (a float column's distinct values in one ``%``
        call) and slice-assigned into the cell slots of one flat list that
        repeats a row's fixed text; the list is joined and written in one
        ``write``.  A value of another type raises ``TypeError``, possibly
        after part of the report was written.
        """
        rows, keys = self._rows(), sorted(self.table)
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
        # "table" sorts after every other key: drop the closing "\n}\n" and append it
        stream.write(canonical_json(head)[:-3] + ',\n  "table": ')
        # a row's slots: each column's key text and cell, then "}"; rows after the first open ","
        step = 2 * len(keys) + 1
        row = [""] * step
        row[::2] = [f",\n      {encode_basestring(k)}: " for k in keys] + ["\n    }"]
        row[0] = ",\n    {" + row[0][1:]
        for start in range(0, rows, _ROW_CHUNK):
            flat = row * min(_ROW_CHUNK, rows - start)
            for c, k in enumerate(keys):
                flat[2 * c + 1::step] = _json_column(self.table[k][start:start + _ROW_CHUNK])
            if not start:
                flat[0] = "[" + row[0][1:]
            stream.write("".join(flat))
        stream.write("\n  ]\n}\n")

    def to_json(self) -> str:
        """The text ``write_json`` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    def to_csv(self) -> str:
        """The header and rows as newline-terminated CSV lines, with ``csv``'s minimal quoting."""
        self._rows()
        columns = [[_cell(v, JSON_DIGITS) for v in column] for column in self.table.values()]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.table)
        writer.writerows(zip(*columns))
        return buf.getvalue()

    def to_table(self) -> str:
        self._rows()
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
        cells = [[_cell(v, TABLE_DIGITS) for v in column] for column in self.table.values()]
        widths = [max(len(name), max(map(len, column))) for name, column in zip(self.table, cells)]
        template = "  " + "  ".join(f"{{:<{width}}}" for width in widths)
        lines.append(template.format(*self.table))
        lines += (template.format(*row) for row in zip(*cells))
        # the empty last line ends the text with a newline, without a second copy of it
        lines.append("")
        return "\n".join(lines)


def canonical_json(data: Any) -> str:
    """Stable JSON encoding: sorted keys, two-space indent, newline-terminated."""
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
