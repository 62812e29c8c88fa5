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
from collections.abc import Callable, Iterable
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
#: a table column: a list of cells, or a 1-D float64 or int64 array
Column = list[Value] | np.ndarray


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


#: the array dtypes a table column may have
_ARRAY_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def _json_column(column: Column) -> Callable[[int, int], Iterable[str]]:
    """The canonical texts of rows ``start:stop`` of one table column, as a function of both.

    A numeric column (a float64 or int64 array, or a list of only floats
    or only ints) takes one ``np.unique``: each distinct value is encoded
    once, a float column's all by one ``%`` call (``_json_floats``), and
    each slice gathers its cells' texts.  Str columns, whose pattern names
    are mostly distinct, and mixed lists are encoded cell by cell.
    """
    if isinstance(column, list):
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is float:
            column = np.array(column, dtype=np.float64)
        elif kind is int:
            # never through float64; np.unique sorts the Python ints that int64 cannot hold
            try:
                column = np.array(column, dtype=np.int64)
            except OverflowError:
                column = np.array(column, dtype=object)
        else:
            encode = _CELL_ENCODERS.get(kind, _json_cell)
            return lambda start, stop: map(encode, column[start:stop])
    distinct, inverse = np.unique(column, return_inverse=True)
    values = distinct.tolist()
    texts = _json_floats(values) if column.dtype == np.float64 else map(int.__repr__, values)
    texts = np.array(list(texts), dtype=object)
    return lambda start, stop: texts[inverse[start:stop]].tolist()


def _cells(column: Column) -> list[Value]:
    """A table column's cells as Python values."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _cell(value: Value, digits: int) -> str:
    return f"{value + 0.0:.{digits}g}" if _kind(value) is float else str(value)


@dataclass
class ScenarioReport:
    """Named results of one scenario run.

    ``table`` maps each column name to its cells, one per branch or grid
    point, every column the same nonzero length: a list of cells, or a
    1-D NumPy array of dtype float64 or int64; ``scalars`` map result
    names to values tagged exact or sampled.  Every listed cell, scalar
    value and parameter is a ``str``, ``int`` or ``float``.  ``matrices``
    carries any density matrices (serialized as row-major [re, im] pairs
    in JSON).  Each renderer raises ``ValueError`` for an empty or ragged
    table and ``TypeError`` for a column that is neither such a list nor
    such an array, or a value of any other type.
    """

    scenario: str
    statistics: str
    table: dict[str, Column]
    parameters: dict[str, Value] = field(default_factory=dict)
    scalars: dict[str, Scalar] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def scalar(self, name: str) -> Value:
        return self.scalars[name].value

    def _rows(self) -> int:
        """The number of table rows: the one length of every column, each a list or array."""
        for name, column in self.table.items():
            array = isinstance(column, np.ndarray)
            if not (isinstance(column, list) or array and column.ndim == 1
                    and column.dtype in _ARRAY_DTYPES):
                kind = f"a {column.ndim}-D {column.dtype} array" if array else type(column).__name__
                raise TypeError(
                    f"column {name!r} must be a list or a 1-D float64 or int64 array, not {kind}"
                )
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
        of row objects; no rounded copy is built.  Each column's encoder,
        ``_json_column``, is built once, before the rows; each chunk of
        :data:`_ROW_CHUNK` rows takes its texts column by column and
        slice-assigns them into the cell slots of one flat list that repeats
        a row's fixed text; the list is joined and written in one ``write``.
        A list cell of another type raises ``TypeError``, possibly after
        part of the report was written.
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
        columns = [_json_column(self.table[k]) for k in keys]
        for start in range(0, rows, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, rows)
            flat = row * (stop - start)
            for c, texts in enumerate(columns):
                flat[2 * c + 1::step] = texts(start, stop)
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
        columns = [[_cell(v, JSON_DIGITS) for v in _cells(c)] for c in self.table.values()]
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
        cells = [[_cell(v, TABLE_DIGITS) for v in _cells(c)] for c in self.table.values()]
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
