"""Tests for the report renderers: JSON against the generic encoder, CSV and table per cell."""

import csv
import io
import json
import math
from typing import Any, Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cells
from twinbeam import reporting
from twinbeam.fock import Statistics
from twinbeam.interferometer import build_tree
from twinbeam.reporting import EXACT, SAMPLED, Coded, Scalar, ScenarioReport, canonical_json
from twinbeam.scenarios import scenario_clicks, scenario_tree


def rounded(value: Any) -> Any:
    """A report value as the JSON report holds it: floats and complex parts rounded."""
    if isinstance(value, complex):
        return [rounded(value.real), rounded(value.imag)]
    return reporting._round_float(value) if isinstance(value, float) else value


def reference_to_dict(report: ScenarioReport) -> dict[str, Any]:
    """The rounded copy of a report that ``to_json`` once encoded with ``canonical_json``."""
    out: dict[str, Any] = {
        "scenario": report.scenario,
        "statistics": report.statistics,
        "parameters": {k: rounded(v) for k, v in report.parameters.items()},
        "scalars": {
            name: {"value": rounded(s.value), "provenance": s.provenance}
            for name, s in report.scalars.items()
        },
        "table": [
            {k: rounded(v) for k, v in zip(report.table, row)}
            for row in zip(*map(cells, report.table.values()))
        ],
    }
    if report.matrices:
        out["matrices"] = {
            name: [[rounded(complex(v)) for v in row] for row in np.asarray(m)]
            for name, m in report.matrices.items()
        }
    return out


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1e300, 0.1, 1 / 3, 1e12, 123456789012345.6, 1e16, 0.5 + 1e-13,
]
TEXT = st.text(
    st.one_of(st.sampled_from('"\\\n\r\t\b\f\x00\x1f\x7f%/é€ 😀'), st.characters()),
    max_size=6,
)
#: SPECIAL_FLOATS and floats whose 12-digit text carries an exponent, rounds to an
#: integer or to a power of ten, or is a subnormal's
EDGE_FLOATS = SPECIAL_FLOATS + [
    999999999999.5, 9.99999999999e15, 1e16, 0.99999999999999, 123456789012.0,
    1e-5, 1e-4, -1e-320, 2.225073858507e-308,
]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
INTS = st.one_of(st.integers(-5, 5), st.integers(-(2**70), 2**70))
COMPLEX = st.builds(complex, FLOATS, FLOATS)
#: what a scalar value or parameter may be
VALUES = st.one_of(INTS, FLOATS, TEXT)


def float64(cells: list) -> np.ndarray:
    return np.array(cells, dtype=np.float64)


def int64(cells: list) -> np.ndarray:
    return np.array(cells, dtype=np.int64)


#: what one table column holds, and what makes the column of its cells: str cells in a
#: list, floats (some drawn from a few, so that they repeat) or ints in an array
COLUMN_KINDS = st.sampled_from([
    (TEXT, list),
    (FLOATS, float64),
    (st.sampled_from([0.25, 0.5, -0.0, math.nan]), float64),
    (st.one_of(st.integers(-5, 5), st.integers(-(2**63), 2**63 - 1)), int64),
])
#: column names, including labels that look like format syntax or need escaping in JSON
KEYS = st.one_of(TEXT, st.sampled_from(["p", "q", "1", "%s", '"']))


@st.composite
def tables(draw) -> dict[str, list | np.ndarray]:
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(1, 12))
    table = {}
    for key in keys:
        kind, make = draw(COLUMN_KINDS)
        table[key] = make(draw(st.lists(kind, min_size=rows, max_size=rows)))
    return table


MATRICES = st.dictionaries(
    TEXT,
    st.lists(st.lists(COMPLEX, min_size=2, max_size=2), min_size=1, max_size=2).map(
        lambda rows: np.array(rows, dtype=complex)
    ),
    max_size=2,
)
REPORTS = st.builds(
    ScenarioReport,
    scenario=TEXT,
    statistics=TEXT,
    parameters=st.dictionaries(TEXT, VALUES, max_size=4),
    scalars=st.dictionaries(
        TEXT,
        st.builds(Scalar, VALUES, st.one_of(st.sampled_from([EXACT, SAMPLED]), TEXT)),
        max_size=4,
    ),
    table=tables(),
    matrices=MATRICES,
)

RENDERERS = {
    "write_json": lambda report: report.write_json(io.StringIO()),
    "to_csv": ScenarioReport.to_csv,
    "to_table": ScenarioReport.to_table,
}
#: values of the types no scenario emits
UNSUPPORTED = [None, True, np.float64(0.5), 1j, [1.0], {1, 2}, object(), np.bool_(True)]
#: list columns that are not lists of str, and a coded column over one: every renderer
#: refuses each rather than convert it
REFUSED_COLUMNS = {
    "float-list": [0.5, 1.5],
    "int-list": [1, 2],
    "mixed-list": [1, 0.5, "a"],
    "int-and-float-list": [1, 1.0],
    "beyond-int64-list": [-1, 2**63],
    "int-bool-list": [1, True],
    "bool-int-list": [True, 1],
    "coded-float-list-values": Coded([0.5, 1.5], np.array([0, 1])),
    # numbered, since True and np.bool_(True) share their type's name
    **{f"{type(v).__name__}{k}-after-str": ["a", v] for k, v in enumerate(UNSUPPORTED)},
    **{f"{type(v).__name__}{k}-alone": [v] for k, v in enumerate(UNSUPPORTED)},
}


def report_of(table, **fields) -> ScenarioReport:
    return ScenarioReport(scenario="s", statistics="boson", table=table, **fields)


def json_texts(column) -> list[str]:
    """The JSON text of each cell of one column, from the writer's column encoder."""
    return reporting._texts(column, *reporting._JSON)


class TestWriteJson:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(report=REPORTS, chunk=st.sampled_from([1, 2, 5, 1000]))
    def test_matches_generic_encoder(self, report, chunk):
        with mock.patch.object(reporting, "_ROW_CHUNK", chunk):
            out = report.to_json()
        assert out == canonical_json(reference_to_dict(report))
        assert canonical_json(json.loads(out)) == out

    def test_rows_are_written_in_chunks(self):
        rows = range(2500)
        report = report_of(
            {"pattern": [str(i) for i in rows], "probability": 1 / (np.arange(2500) + 1)}
        )
        stream = mock.Mock(wraps=io.StringIO())
        report.write_json(stream)
        # the head, one write per 1,000 rows, and the closing brackets
        assert stream.write.call_count == 1 + 3 + 1
        assert stream.getvalue() == canonical_json(reference_to_dict(report))

    @pytest.mark.parametrize("rows", [3, 4, 5, 8, 9])
    def test_chunk_boundaries(self, rows):
        # rows on either side of a 4-row chunk; a str, an int and two float columns, under
        # names that look like format syntax or need escaping in JSON
        indices = range(rows)
        table = {
            "%s": [f"%s{i}" for i in indices],
            '"': np.arange(rows) % 3,
            "\\": np.arange(rows) / 3,
            "é€": np.arange(rows) % 2.0,
        }
        report = report_of(table, scalars={"y": Scalar(0.5)})
        stream = mock.Mock(wraps=io.StringIO())
        with mock.patch.object(reporting, "_ROW_CHUNK", 4):
            report.write_json(stream)
        assert stream.write.call_count == 1 + math.ceil(rows / 4) + 1
        assert stream.getvalue() == canonical_json(reference_to_dict(report))

    def test_int_cells_keep_their_exact_text(self):
        # an int column encodes each distinct value once, never through float64; its 1 and
        # a float column's 1.0 are equal but do not share a text
        column = int64([1, 2**63 - 1, -(2**63), 1, 2**53 + 1])
        report = report_of({"x": column, "y": np.ones(5)})
        out = report.to_json()
        assert out == canonical_json(reference_to_dict(report))
        texts = [line.split(": ")[1] for line in out.splitlines() if '"x": ' in line]
        assert texts == [f"{v}," for v in column.tolist()]
        assert [line.split(": ")[1] for line in out.splitlines() if '"y": ' in line] == ["1.0"] * 5

    @pytest.mark.parametrize("order", [1, -1], ids=["0.0-first", "-0.0-first"])
    def test_float_column_matches_json_float_on_edge_values(self, order):
        # values whose 12-digit text carries an exponent, rounds to an integer or to a
        # power of ten, or is a subnormal's; 0.0 and -0.0 are one distinct value,
        # whichever of them comes first
        column = EDGE_FLOATS[::order]
        assert json_texts(float64(column)) == list(map(reporting._json_float, column))

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        drawn=st.lists(st.floats(), min_size=1, max_size=100),
        padding=st.integers(0, 2400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float_column_matches_json_float(self, drawn, padding, seed):
        # Hypothesis keeps its lists short, so random bit patterns pad the column to up
        # to 2,500 cells, across the 1,000-row chunks of the writer
        rng = np.random.default_rng(seed)
        column = drawn + rng.integers(0, 2**64, padding, np.uint64).view(np.float64).tolist()
        rng.shuffle(column)
        column = float64(column)
        assert json_texts(column) == list(map(reporting._json_float, column.tolist()))
        report = report_of({"x": column})
        assert report.to_json() == canonical_json(reference_to_dict(report))


class TestContract:
    @pytest.mark.parametrize("render", RENDERERS.values(), ids=RENDERERS)
    @pytest.mark.parametrize(
        "table",
        [{}, {"a": []}, {"a": [], "b": []}, {"a": ["1"], "b": []}, {"a": ["1"], "b": ["1", "2"]},
         {"a": ["1", "2"], "b": ["1"]}, {"a": np.array([])}, {"a": ["1"], "b": np.arange(2)}],
        ids=["no-columns", "no-rows", "no-rows-two-columns", "empty-column", "longer-column",
             "shorter-column", "empty-array", "longer-array"],
    )
    def test_empty_or_ragged_table_raises_value_error(self, render, table):
        with pytest.raises(ValueError, match="report table"):
            render(report_of(table))

    @pytest.mark.parametrize("render", RENDERERS, ids=RENDERERS)
    @pytest.mark.parametrize("column", REFUSED_COLUMNS.values(), ids=REFUSED_COLUMNS)
    def test_write_json_checks_cells_before_writing(self, render, column):
        # the column is named, and nothing is written
        report = report_of({"p": ["a"] * len(column), "x": column})
        stream = mock.Mock(wraps=io.StringIO())
        with pytest.raises(TypeError, match="column 'x' "):
            if render == "write_json":
                report.write_json(stream)
            else:
                stream.write(getattr(report, render)())
        stream.write.assert_not_called()

    @pytest.mark.parametrize("render", [RENDERERS["write_json"], RENDERERS["to_table"]],
                             ids=["write_json", "to_table"])
    @pytest.mark.parametrize("value", UNSUPPORTED, ids=lambda v: type(v).__name__)
    def test_unsupported_scalar_or_parameter_raises_type_error(self, render, value):
        table = {"x": ["1"]}
        with pytest.raises(TypeError, match="must be str, int or float"):
            render(report_of(table, scalars={"y": Scalar(value)}))
        with pytest.raises(TypeError, match="must be str, int or float"):
            render(report_of(table, parameters={"y": value}))


class TestColumns:
    def test_csv_and_table_follow_the_mappings_order(self):
        report = report_of({"b": np.array([1, 3]), "a": np.array([2.5, 0.5])})
        assert report.to_csv() == "b,a\n1,2.5\n3,0.5\n"
        assert report.to_table().splitlines()[2].split() == ["b", "a"]


#: floats for the array columns: the edge values, 1e+-300, and values that round to an
#: integer at 12 digits
COLUMN_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS + [1e300, -1e-300, 1e-300, 2.0 - 1e-13, -7.0 + 1e-12]),
)
#: ints inside int64 and at its ends
COLUMN_INTS = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-1, 2**63 - 1, -(2**63)]),
)


@st.composite
def numeric_tables(draw) -> dict[str, np.ndarray]:
    """Float64 and int64 array columns, each drawn from a few values, so that cells repeat."""
    rows = draw(st.integers(1, 40))
    table = {}
    for key in draw(st.lists(KEYS, min_size=1, max_size=3, unique=True)):
        kind, make = draw(st.sampled_from([(COLUMN_FLOATS, float64), (COLUMN_INTS, int64)]))
        pool = draw(st.lists(kind, min_size=1, max_size=6))
        table[key] = make(draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)))
    return table


#: columns that are neither a list nor a 1-D float64 or int64 array, each built afresh;
#: a str, a sequence of its characters, once gave one row per character
BAD_COLUMNS = {
    "str": lambda: "ab",
    "tuple": lambda: (1, 2),
    "generator": lambda: (v for v in [1, 2]),
    "dict": lambda: {1: 0.5, 2: 0.5},
    "bool-array": lambda: np.array([True, False]),
    "complex-array": lambda: np.array([1j, 1.0]),
    "float32-array": lambda: np.array([0.5, 1.0], dtype=np.float32),
    "int32-array": lambda: np.array([1, 2], dtype=np.int32),
    "uint64-array": lambda: np.array([1, 2], dtype=np.uint64),
    "object-array": lambda: np.array([1, 2], dtype=object),
    "str-array": lambda: np.array(["a", "b"]),
    "0-d-array": lambda: np.array(0.5),
    "2-d-array": lambda: np.zeros((2, 1)),
    "2-d-int-array": lambda: np.zeros((2, 2), dtype=np.int64),
}


class TestArrayColumns:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(table=numeric_tables(), chunk=st.sampled_from([1, 2, 5, 1000]))
    @example(table={"x": int64([-1, 2**63 - 1])}, chunk=1000)
    @example(table={"x": int64([-(2**63), -1, -(2**63)])}, chunk=2)
    def test_array_columns_match_the_generic_encoder(self, table, chunk):
        report = report_of(table)
        with mock.patch.object(reporting, "_ROW_CHUNK", chunk):
            out = report.to_json()
        # the per-cell oracle, built on _json_float and int's repr
        assert out == canonical_json(reference_to_dict(report))

    @pytest.mark.parametrize("render", RENDERERS.values(), ids=RENDERERS)
    @pytest.mark.parametrize("make", BAD_COLUMNS.values(), ids=BAD_COLUMNS)
    def test_other_column_raises_type_error(self, render, make):
        with pytest.raises(TypeError, match="column 'x' must be"):
            render(report_of({"p": np.array([0.5, 0.5]), "x": make()}))

    @pytest.mark.parametrize(
        "render, formatter, digits",
        [(ScenarioReport.to_json, "_json_floats", ()), (ScenarioReport.to_csv, "_g_floats", (12,)),
         (ScenarioReport.to_table, "_g_floats", (6,))],
        ids=["to_json", "to_csv", "to_table"],
    )
    def test_each_distinct_value_is_formatted_once(self, render, formatter, digits):
        column = np.array([0.25, 0.5, 0.25, 0.25, 0.5])
        wrapped = getattr(reporting, formatter)
        with mock.patch.object(reporting, formatter, wraps=wrapped) as spy:
            out = render(report_of({"x": column}))
        spy.assert_called_once_with([0.25, 0.5], *digits)
        # a coded column of the same cells renders alike
        coded = Coded(np.array([0.5, 0.25]), np.array([1, 0, 1, 1, 0]))
        assert out == render(report_of({"x": coded}))


def reference_cell(value, digits: int) -> str:
    """A cell, scalar value or parameter as CSV (12 digits) and tables (6) show it."""
    return f"{value + 0.0:.{digits}g}" if type(value) is float else str(value)


def reference_csv(report: ScenarioReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.table)
    rows = zip(*map(cells, report.table.values()))
    writer.writerows([reference_cell(v, 12) for v in row] for row in rows)
    return buf.getvalue()


def reference_table(report: ScenarioReport) -> str:
    lines = [f"scenario: {report.scenario}  [{report.statistics}]"]
    if report.parameters:
        rendered = (f"{k}={reference_cell(v, 6)}" for k, v in report.parameters.items())
        lines.append("parameters: " + ", ".join(rendered))
    if report.scalars:
        width = max(map(len, report.scalars))
        lines.append("")
        for name, s in report.scalars.items():
            lines.append(f"  {name.ljust(width)}  {reference_cell(s.value, 6)}  ({s.provenance})")
    rows = [list(report.table)] + [
        [reference_cell(v, 6) for v in row] for row in zip(*map(cells, report.table.values()))
    ]
    widths = [max(len(row[c]) for row in rows) for c in range(len(report.table))]
    lines.append("")
    lines += ["  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join(lines) + "\n"


#: -0.0 before and after 0.0, NaN, the infinities, subnormals, the ends of int64, and
#: str cells that CSV quotes
EDGE_COLUMNS = {
    "-0.0-first": float64([-0.0, 0.0, -0.0]),
    "0.0-first": float64([0.0, -0.0, 1.0]),
    "special": float64(
        [math.nan, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308, -0.0]
    ),
    "int64-ends": int64([2**63 - 1, -1, -(2**63), 2**63 - 1]),
    "str": ["a,b", '"q"', "", "x\ny"],
}


class TestCsvAndTable:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        report=st.one_of(
            REPORTS,
            st.builds(report_of, numeric_tables()),
        )
    )
    def test_match_the_per_cell_reference(self, report):
        assert report.to_csv() == reference_csv(report)
        assert report.to_table() == reference_table(report)

    @pytest.mark.parametrize("column", EDGE_COLUMNS.values(), ids=EDGE_COLUMNS)
    def test_edge_values_match_the_per_cell_reference(self, column):
        # a parameter and a scalar of such values too, in the table's head
        report = report_of(
            {"x": column}, parameters={"p": -0.0, "q": 2**64}, scalars={"y": Scalar(math.nan)}
        )
        assert report.to_csv() == reference_csv(report)
        assert report.to_table() == reference_table(report)


#: detector names, among them ones that need escaping in JSON or quoting in CSV
NAMES = st.one_of(TEXT, st.sampled_from(['"', "\\", ",", "\n", "é€", 'a"b\\c,d\ne', "none"]))


@st.composite
def coded_columns(draw, rows: int) -> Coded:
    """A coded column of ``rows`` rows: one or two codes over names, or one over floats or ints.

    Two codes draw over the names, ``""`` and the names after a ``+``, as
    pattern labels are coded.  Some values are never named by a code.
    """
    two = draw(st.booleans())
    kind, make = (NAMES, list) if two else draw(
        st.sampled_from([(NAMES, list), (COLUMN_FLOATS, float64), (COLUMN_INTS, int64)])
    )
    values = make(draw(st.lists(kind, min_size=1, max_size=6)))
    if two:
        values += ["", *("+" + v for v in values)]
    codes = st.lists(st.integers(0, len(values) - 1), min_size=rows, max_size=rows)
    if not two:
        return Coded(values, np.array(draw(codes)))
    return Coded(values, np.array([draw(codes), draw(codes)]).T)


@st.composite
def coded_tables(draw) -> dict[str, Coded | np.ndarray]:
    """Coded columns, and none, one or two float columns, so that the slots of several
    columns share a row.

    With no float column, the ``[`` and the row's closing text land on coded texts;
    two float columns sort next to each other, with a key text between them that no
    coded column takes.
    """
    rows = draw(st.integers(1, 30))
    plain = [draw(KEYS)]
    plain = draw(st.sampled_from([[], plain, [plain[0], plain[0] + "0"]]))
    # no coded key sorts between the float columns' keys
    keys = draw(st.lists(KEYS.filter(lambda k: not plain or not plain[0] <= k <= plain[-1]),
                         min_size=1, max_size=3, unique=True))
    table = {key: draw(coded_columns(rows)) for key in keys}
    for n, key in enumerate(plain):
        table[key] = np.arange(rows) / (n + 1.0)
    return table


#: coded columns that each renderer must refuse, and the error it raises
BAD_CODED = {
    "negative-code": (Coded(["a", "b"], np.array([0, -1])), ValueError),
    "negative-first-part": (Coded(["a", "b"], np.array([[-1, 0]])), ValueError),
    "negative-second-part": (Coded(["a", "b"], np.array([[0, -1]])), ValueError),
    "out-of-range": (Coded(["a", "b"], np.array([0, 2])), ValueError),
    "out-of-range-second-part": (Coded(["a"], np.array([[0, 1]])), ValueError),
    "no-values": (Coded([], np.array([0])), ValueError),
    "float-codes": (Coded(["a", "b"], np.array([0.0, 1.0])), TypeError),
    "bool-codes": (Coded(["a", "b"], np.array([False, True])), TypeError),
    "list-codes": (Coded(["a", "b"], [0, 1]), TypeError),
    "0-d-codes": (Coded(["a", "b"], np.array(0)), TypeError),
    "three-codes": (Coded(["a", "b"], np.zeros((2, 3), dtype=np.int64)), TypeError),
    "3-d-codes": (Coded(["a", "b"], np.zeros((2, 2, 1), dtype=np.int64)), TypeError),
    "tuple-values": (Coded(("a", "b"), np.array([0, 1])), TypeError),
    "int-values-in-two-codes": (Coded([1, 2], np.array([[0, 1], [1, 0]])), TypeError),
    "int-array-values-in-two-codes": (Coded(int64([1, 2]), np.array([[0, 1]])), TypeError),
    "float32-array-values": (Coded(np.ones(2, np.float32), np.array([0, 1])), TypeError),
    "2-d-array-values": (Coded(np.ones((2, 1)), np.array([0, 1])), TypeError),
    "none-value": (Coded(["a", None], np.array([0, 0])), TypeError),
    "numpy-float-value": (Coded([0.5, np.float64(0.5)], np.array([0, 1])), TypeError),
    "bool-value": (Coded([1, True], np.array([1, 0])), TypeError),
}


def plain_column(column):
    """A coded column's cells as a plain column: an array over array values, else a list."""
    if not isinstance(column, Coded):
        return column
    return column.values[column.codes] if isinstance(column.values, np.ndarray) else cells(column)


def pieces_per_row(render: Callable) -> float:
    """The pieces that each row of ``render``'s table joins, from a spy on ``reporting._chunks``."""
    counts, chunks = set(), reporting._chunks

    def spy(pieces, rows):
        for start, flat in zip(range(0, rows, reporting._ROW_CHUNK), chunks(pieces, rows)):
            counts.add(len(flat) / min(reporting._ROW_CHUNK, rows - start))
            yield flat

    with mock.patch.object(reporting, "_chunks", spy):
        render()
    (count,) = counts
    return count


def names(n: int) -> list[str]:
    """Two-code values over ``n`` names, as pattern labels are coded: ``2 n + 1`` texts a part."""
    base = [f"n{k}" for k in range(n)]
    return [*base, "", *("+" + v for v in base)]


#: 400-row tables whose adjacent columns join into at most 100 texts or not, and a one-row
#: table, which joins nothing; each with the pieces per row of its JSON and table rows
ROWS = np.arange(400)
JOIN_TABLES = {
    "3-values-beside-2-floats": ({"a": Coded(["x", "y", "z"], ROWS % 3), "b": ROWS % 2 / 2}, 1, 1),
    "50-values-beside-2-floats": ({"a": Coded([f"v{k}" for k in range(50)], ROWS % 50),
                                   "b": ROWS % 2 / 2}, 1, 1),
    "51-values-beside-2-floats": ({"a": Coded([f"v{k}" for k in range(51)], ROWS % 51),
                                   "b": ROWS % 2 / 2}, 2, 2),
    "two-codes-of-9-beside-floats": (
        {"a": Coded(names(4), np.stack([ROWS % 4, 4 + ROWS % 5], axis=1)), "b": ROWS % 3 / 4},
        2, 2),
    "two-codes-of-11-beside-floats": (
        {"a": Coded(names(5), np.stack([ROWS % 5, 5 + ROWS % 6], axis=1)), "b": ROWS % 3 / 4},
        2, 2),
    "a-float-per-row": ({"a": Coded(["x", "y", "z"], ROWS % 3), "b": ROWS / 7}, 3, 3),
    "one-row": ({"a": Coded(["x"], np.zeros(1, dtype=np.int64)), "b": np.array([0.5])}, 5, 3),
}


class TestCodedColumns:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(table=coded_tables(), chunk=st.sampled_from([1, 2, 5, 1000]))
    @example(
        table={"pattern": Coded(['"', "\\", ",", "\n", "é€", "none", "",
                                 '+"', "+\\", "+,", "+\n", "+é€"],
                                np.array([[5, 6], [0, 6], [0, 8], [2, 10], [4, 11]])),
               "p": np.full(5, 0.5)},
        chunk=2,
    )
    def test_coded_and_plain_columns_render_alike(self, table, chunk):
        coded, plain = report_of(table), report_of({k: plain_column(c) for k, c in table.items()})
        with mock.patch.object(reporting, "_ROW_CHUNK", chunk):
            assert coded.to_json() == plain.to_json()
            assert coded.to_table() == plain.to_table()
        assert coded.to_csv() == plain.to_csv()
        assert plain.to_json() == canonical_json(reference_to_dict(plain))

    @pytest.mark.parametrize(
        "make, json_pieces, table_pieces",
        [(lambda: scenario_clicks(build_tree(7), Statistics.FERMION, 1000, 3), 3, 3),
         (lambda: scenario_tree(7, Statistics.BOSON), 3, 4),
         (lambda: report_of({"a": Coded(["x", "y"], np.arange(1001) % 2),
                             "b": np.arange(1001) / 7}), 3, 3)],
        ids=["clicks", "tree", "distinct-floats"],
    )
    def test_rows_join_few_pieces(self, make, json_pieces, table_pieces):
        # without joins a clicks row is 11 pieces and a tree row 15 in JSON; a float
        # column with a value per row is a piece of its own in both renderers
        report = make()
        assert pieces_per_row(report.to_json) == json_pieces
        assert pieces_per_row(report.to_table) == table_pieces

    @pytest.mark.parametrize("chunk", [7, 1000])
    @pytest.mark.parametrize("table, json_pieces, table_pieces", JOIN_TABLES.values(),
                             ids=JOIN_TABLES)
    def test_joins_on_either_side_of_the_bound(self, table, json_pieces, table_pieces, chunk):
        # two pieces join when the joined slot holds at most a quarter as many texts as rows
        report = report_of(table)
        with mock.patch.object(reporting, "_ROW_CHUNK", chunk):
            assert report.to_json() == canonical_json(reference_to_dict(report))
            assert report.to_table() == reference_table(report)
            assert pieces_per_row(report.to_json) == json_pieces
            assert pieces_per_row(report.to_table) == table_pieces

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
    def test_narrow_codes_join_without_wrapping(self, dtype):
        # 150 values beside two floats join into 300 texts for 1,200 rows: codes past 255
        rows = np.arange(1200)
        report = report_of({"a": Coded([f"v{k}" for k in range(150)], (rows % 150).astype(dtype)),
                            "b": rows % 2 / 2})
        assert report.to_json() == canonical_json(reference_to_dict(report))
        assert report.to_table() == reference_table(report)
        assert pieces_per_row(report.to_json) == 1

    def test_joined_codes_widen_before_the_next_join(self):
        # three 10-value columns join into 100 texts, coded in uint8, then into 1,000
        rows = np.arange(4000)
        report = report_of({k: Coded([f"{k}{v}" for v in range(10)], rows // 10 ** i % 10)
                            for i, k in enumerate("abc")})
        assert report.to_json() == canonical_json(reference_to_dict(report))
        assert report.to_table() == reference_table(report)
        assert pieces_per_row(report.to_json) == pieces_per_row(report.to_table) == 1

    def test_unused_values_do_not_widen_the_table(self):
        column = Coded(["a", "a-very-long-unused-name", "b", "", "+b", "+a-very-long-unused-name"],
                       np.array([[0, 4], [2, 3]]))
        assert report_of({"x": column}).to_table().endswith("\n  x  \n  a+b\n  b  \n")

    def test_each_value_is_encoded_once(self):
        # the slots hold one text per value, not one per row
        column = Coded(["C", "D", "none", "", "+C", "+D"], np.array([[2, 3], [0, 3], [0, 5]] * 1000))
        for style in (reporting._JSON, reporting._CSV, reporting._TABLE):
            slots = reporting._column(column, *style)
            assert [len(texts) for texts, _ in slots] == [6, 6]
        assert [list(texts) for texts, _ in reporting._column(column, *reporting._JSON)] == [
            ['"C', '"D', '"none', '"', '"+C', '"+D'], ['C"', 'D"', 'none"', '"', '+C"', '+D"']
        ]

    @pytest.mark.parametrize("render", RENDERERS.values(), ids=RENDERERS)
    @pytest.mark.parametrize("column, error", BAD_CODED.values(), ids=BAD_CODED)
    def test_bad_coded_column_raises(self, render, column, error):
        with pytest.raises(error):
            render(report_of({"x": column}))

    @pytest.mark.parametrize("column, error", BAD_CODED.values(), ids=BAD_CODED)
    def test_write_json_checks_coded_columns_before_writing(self, column, error):
        stream = mock.Mock(wraps=io.StringIO())
        with pytest.raises(error):
            report_of({"x": column}).write_json(stream)
        stream.write.assert_not_called()

