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
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Any, TextIO

import numpy as np

JSON_DIGITS = 12
TABLE_DIGITS = 6

#: table rows that ``ScenarioReport.write_json`` joins from one flat list and writes at once
_ROW_CHUNK = 1000

#: :func:`_join` joins two row pieces into a slot of at most rows / _JOIN_SHARE texts.  A
#: joined text costs about 67 ns, placing a coded piece in a row 33 ns and a fixed one 11 ns
#: (2-core Xeon VM), so a slot at the bound costs at most 17 ns a row.  A bound of rows made
#: tree7 passes 22% and sweeps 6% slower in-process: tree7's first JSON slot held 6,192 texts
#: for 8,256 rows
_JOIN_SHARE = 4

#: provenance flags carried by every scalar result
EXACT = "exact"
SAMPLED = "sampled"

#: the types of a scalar value or parameter
Value = str | int | float


def _plain(column: Any) -> bool:
    """Whether ``column`` is a list of str or a 1-D float64 or int64 array."""
    if isinstance(column, list):
        return set(map(type, column)) <= {str}
    return (isinstance(column, np.ndarray) and column.ndim == 1
            and column.dtype in (np.float64, np.int64))


@dataclass(frozen=True, eq=False)
class Coded:
    """A table column of repeated cells: its distinct ``values`` and one integer code per row.

    ``values`` is a list of str or a 1-D float64 or int64 array.  With 1-D
    ``codes``, row ``r`` holds ``values[codes[r]]``.  With codes of shape
    ``(rows, 2)``, over str values only, it holds ``values[c0] + values[c1]``.
    Every code is at least 0.  Each value is encoded once, and a value that no
    code names is never written.
    """

    values: list[str] | np.ndarray
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


def _check_coded(name: str, column: Coded) -> None:
    """Raise unless ``column`` has plain values and codes that each name one of them."""
    values, codes = column.values, column.codes
    if not (_plain(values) and isinstance(codes, np.ndarray) and codes.dtype.kind in "iu"
            and (codes.ndim == 1 or codes.shape[1:] == (2,) and isinstance(values, list))):
        raise TypeError(f"coded column {name!r} needs values that are a list of str or a 1-D "
                        "float64 or int64 array and integer codes of shape (rows,), or str "
                        "values and codes of shape (rows, 2)")
    # an index array would wrap a negative code round to the last values unnoticed
    if codes.size and (codes.max() >= len(values) or codes.min() < 0):
        raise ValueError(f"coded column {name!r} has a code outside its {len(values)} values")


#: a table column: a list of str, a 1-D float64 or int64 array, or a coded column
Column = list[str] | np.ndarray | Coded


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


def _kind(value: Value) -> type:
    """The exact type of a scalar value or parameter: ``str``, ``int`` or ``float``."""
    kind = type(value)
    if kind not in (str, int, float):
        raise TypeError(f"a report value must be str, int or float, not {kind.__name__}")
    return kind


def _jsonify(value: Value) -> Value:
    """A parameter or scalar value as ``json`` encodes it: floats rounded to JSON_DIGITS."""
    return _round_float(value) if _kind(value) is float else value


def _text(value: Value) -> str:
    """A parameter or scalar value as a table shows it: floats to TABLE_DIGITS, -0.0 as 0."""
    return f"{value + 0.0:.{TABLE_DIGITS}g}" if _kind(value) is float else str(value)


def _g_floats(values: list[float], digits: int) -> list[str]:
    """Each value's ``%.{digits}g`` text, all formatted by one ``%`` call."""
    return ((f"\0%.{digits}g" * len(values))[1:] % tuple(values)).split("\0")


def _json_floats(values: list[float]) -> list[str]:
    """``_json_float`` of each value, all formatted to JSON_DIGITS by one ``%`` call.

    A decimal of at most 12 significant digits round-trips through a
    double, so a ``%.12g`` text without exponent has the digits of
    ``repr`` of the rounded float: one with a ``.`` is that ``repr``, and
    an integer lacks only its ``.0``.  Exponent forms (every subnormal
    among them), ``-0``, NaN and the infinities go through ``_json_float``.
    """
    return [
        t if "." in t and "e" not in t
        else t + ".0" if t.lstrip("-").isdigit() and t != "-0"
        else _json_float(x)
        for t, x in zip(_g_floats(values, JSON_DIGITS), values)
    ]


#: per renderer, the text of a str and the texts of a column's distinct floats; the float
#: formatters are looked up when called, so that a test can wrap them
_JSON = (encode_basestring, lambda values: _json_floats(values))
_CSV = (str, lambda values: _g_floats(values, JSON_DIGITS))
_TABLE = (str, lambda values: _g_floats(values, TABLE_DIGITS))


def _column(column: Column, text: Callable, floats: Callable) -> list[tuple]:
    """The slots of one table column: pairs ``(texts, codes)``, whose text for row ``r``
    is ``texts[codes[r]]``, or ``texts[r]`` if ``codes`` is None; a cell joins its slots.

    ``column`` has passed ``ScenarioReport._rows``.  A list of str takes ``text`` per
    cell.  A float64 or int64 array takes one
    ``np.unique``: each distinct value gets its text once, a float column's all by one
    ``floats`` call.  A coded column encodes each of its values once, as a column of
    them, and its codes become int64.  With two codes it has two slots: ``text`` of the
    first part without its closing quote, and ``text`` of the second without its opening
    quote, which is the joined text's because ``text`` escapes character by character.
    """
    if isinstance(column, Coded):
        texts = _texts(column.values, text, floats)
        codes = column.codes.astype(np.int64, copy=False)
        if codes.ndim == 1:
            return [(np.array(texts, dtype=object), codes)]
        half = len(text("")) // 2
        return [(np.array([t[:len(t) - half] for t in texts], dtype=object), codes[:, 0]),
                (np.array([t[half:] for t in texts], dtype=object), codes[:, 1])]
    if isinstance(column, list):
        return [(_texts(column, text, floats), None)]
    distinct, inverse = np.unique(column, return_inverse=True)
    return [(np.array(_texts(distinct, text, floats), dtype=object), inverse)]


def _take(slot: tuple, start: int, stop: int) -> list[str]:
    """The texts of rows ``start:stop`` in one slot of :func:`_column`."""
    texts, codes = slot
    return texts[start:stop] if codes is None else texts[codes[start:stop]].tolist()


def _texts(values: list[str] | np.ndarray, text: Callable, floats: Callable) -> list[str]:
    """Each value's text: ``text`` of a str, ``str`` of an int, ``floats`` of floats (-0.0 as 0)."""
    if isinstance(values, list):
        return list(map(text, values))
    if values.dtype == np.int64:
        return list(map(str, values.tolist()))
    # unlike + 0.0, == never warns on a NaN
    return floats(np.where(values == 0, 0.0, values).tolist())


def _join(pieces: list, rows: int) -> list[tuple]:
    """The slots of a table row: ``pieces`` with each run of adjacent joinable pieces joined.

    A piece is a str, the same in every row, which counts as the slot ``([str], 0)``, or
    a slot of :func:`_column`.  Two adjacent pieces that each have codes become the one
    slot ``(ta[i] + tb[j], ca * len(tb) + cb)`` whenever it holds at most
    ``rows / _JOIN_SHARE`` texts, so that a float column with about one value per row,
    like a column of str, stays a slot of its own.  Joined codes take the narrowest
    unsigned type that holds them: as int64 they raised the max RSS of a depth-10 tree
    table from 227 to 236 MiB, as uint16 to 231.
    """
    slots = []
    for piece in pieces:
        texts, codes = (np.array([piece], dtype=object), 0) if isinstance(piece, str) else piece
        if slots and codes is not None:
            ta, ca = slots[-1]
            if ca is not None and len(ta) * len(texts) * _JOIN_SHARE <= rows:
                if isinstance(codes, int):  # a fixed text leaves the codes as they are
                    codes = ca
                elif not isinstance(ca, int):
                    codes = (ca.astype(np.int64, copy=False) * len(texts) + codes).astype(
                        np.min_scalar_type(len(ta) * len(texts)))
                slots[-1] = (np.add.outer(ta, texts).ravel(), codes)
                continue
        slots.append((texts, codes))
    return slots


def _chunks(pieces: list, rows: int) -> Iterator[list[str]]:
    """Table rows as flat lists of :data:`_ROW_CHUNK` rows each.

    A row joins the slots of :func:`_join`.  Each chunk repeats the texts of the
    slots whose code is the same in every row and slice-assigns each other slot's
    texts into its place.
    """
    slots = _join(pieces, rows)
    step = len(slots)
    row = [texts[0] if isinstance(codes, int) else "" for texts, codes in slots]
    for start in range(0, rows, _ROW_CHUNK):
        stop = min(start + _ROW_CHUNK, rows)
        flat = row * (stop - start)
        for c, slot in enumerate(slots):
            if not isinstance(slot[1], int):
                flat[c::step] = _take(slot, start, stop)
        yield flat


@dataclass
class ScenarioReport:
    """Named results of one scenario run.

    ``table`` maps each column name to its cells, one per branch or grid
    point, every column the same nonzero length.  A column is one of three
    things: a list of ``str``, a 1-D NumPy array of dtype float64 or int64,
    or a :class:`Coded` column whose values are one of those two; a list of
    numbers is refused, not converted.  ``scalars`` map result names to
    values tagged exact or sampled.  Every scalar value and parameter is a
    ``str``, ``int`` or ``float``.  ``matrices`` carries any density
    matrices (serialized as row-major [re, im] pairs in JSON).  Each
    renderer raises ``ValueError`` for an empty or ragged table or a code
    that names no value, and ``TypeError`` for any other column or value.
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
        """The number of table rows: the one length of every column, each checked first."""
        for name, column in self.table.items():
            if isinstance(column, Coded):
                _check_coded(name, column)
            elif not _plain(column):
                kind = type(column).__name__
                if isinstance(column, np.ndarray):
                    kind = f"a {column.ndim}-D {column.dtype} array"
                elif isinstance(column, list):
                    kind = "a list of " + ", ".join(sorted({type(v).__name__ for v in column}))
                raise TypeError(f"column {name!r} must be a list of str, a 1-D float64 or int64 "
                                f"array or coded, not {kind}")
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
        of row objects; no rounded copy is built.  Each column's slots,
        ``_column``, are built once, before anything is written, between the
        fixed texts of a row (key, opening, closing), and :func:`_join` joins
        adjacent pieces whose product of texts is small.  Each chunk of
        :data:`_ROW_CHUNK` rows is one flat list (:func:`_chunks`), joined and
        written in one ``write``.
        """
        rows, keys = self._rows(), sorted(self.table)
        pieces = []
        for k in keys:
            # the key text, the first opening the row with ","
            pieces += [f",\n      {encode_basestring(k)}: ", *_column(self.table[k], *_JSON)]
        pieces[0] = ",\n    {" + pieces[0][1:]
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
        for n, flat in enumerate(_chunks(pieces + ["\n    }"], rows)):
            if not n:
                flat[0] = "[" + flat[0][1:]
            stream.write("".join(flat))
        stream.write("\n  ]\n}\n")

    def to_json(self) -> str:
        """The text ``write_json`` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()

    def to_csv(self) -> str:
        """The header and rows as newline-terminated CSV lines, with ``csv``'s minimal quoting."""
        rows = self._rows()
        columns = []
        for column in self.table.values():
            parts = [_take(slot, 0, rows) for slot in _column(column, *_CSV)]
            columns.append(parts[0] if len(parts) == 1 else map(str.__add__, *parts))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.table)
        writer.writerows(zip(*columns))
        return buf.getvalue()

    def to_table(self) -> str:
        """The head, then the table in columns, each left-aligned to its widest used cell."""
        rows = self._rows()
        lines = [f"scenario: {self.scenario}  [{self.statistics}]"]
        if self.parameters:
            rendered = ", ".join(f"{k}={_text(v)}" for k, v in self.parameters.items())
            lines.append(f"parameters: {rendered}")
        if self.scalars:
            lines.append("")
            width = max(len(n) for n in self.scalars)
            for name, s in self.scalars.items():
                lines.append(f"  {name:<{width}}  {_text(s.value)}  ({s.provenance})")
        lines.append("")
        header, pieces = [], []
        for name, column in self.table.items():
            parts = _column(column, *_TABLE)
            # each row's cell length, from the lengths of the texts its codes name
            length = sum(np.array(list(map(len, texts)))[slice(None) if codes is None else codes]
                         for texts, codes in parts)
            width = max(len(name), int(length.max()))
            header.append(name.ljust(width))
            if len(parts) == 1:
                # one slot: its distinct texts padded once, each after the column gap
                ((texts, codes),) = parts
                pieces.append((np.array(["  " + t.ljust(width) for t in texts], dtype=object),
                               codes))
            else:
                # each padding that a row needs, once: memory in the widths that occur
                gaps, gap = np.unique(width - length, return_inverse=True)
                pad = np.array([" " * n for n in gaps.tolist()], dtype=object)
                pieces += ["  ", *parts, (pad, gap)]
        lines.append("  " + "  ".join(header))
        # the empty last line ends the head with a newline; every row ends with its own
        lines.append("")
        body = ("".join(flat) for flat in _chunks(pieces + ["\n"], rows))
        return "\n".join(lines) + "".join(body)


def canonical_json(data: Any) -> str:
    """Stable JSON encoding: sorted keys, two-space indent, newline-terminated."""
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
