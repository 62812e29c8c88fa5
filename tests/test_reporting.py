"""Tests for the report renderers: the streaming JSON writer against the generic encoder."""

import io
import json
import math
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinbeam import reporting
from twinbeam.reporting import EXACT, SAMPLED, Scalar, ScenarioReport, canonical_json


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
            for row in zip(*report.table.values())
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
#: what a cell, scalar value or parameter may be
VALUES = st.one_of(INTS, FLOATS, TEXT)
#: what one table column holds: one type (the writer's per-column path) or a mix
COLUMN_KINDS = st.sampled_from(
    [INTS, FLOATS, st.sampled_from([0.25, 0.5, -0.0, math.nan]), TEXT, VALUES]
)
#: column names, including labels that look like format syntax or need escaping in JSON
KEYS = st.one_of(TEXT, st.sampled_from(["p", "q", "1", "%s", '"']))


@st.composite
def tables(draw) -> dict[str, list]:
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(1, 12))
    return {key: draw(st.lists(draw(COLUMN_KINDS), min_size=rows, max_size=rows)) for key in keys}


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


def report_of(table, **fields) -> ScenarioReport:
    return ScenarioReport(scenario="s", statistics="boson", table=table, **fields)


def json_texts(column) -> list[str]:
    """The JSON text of each cell of one column, from the writer's column encoder."""
    return list(reporting._json_column(column)(0, len(column)))


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
            {"pattern": [str(i) for i in rows], "probability": [1 / (i + 1) for i in rows]}
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
            '"': [i % 3 for i in indices],
            "\\": [i / 3 for i in indices],
            "é€": [float(i % 2) for i in indices],
        }
        report = report_of(table, scalars={"y": Scalar(0.5)})
        stream = mock.Mock(wraps=io.StringIO())
        with mock.patch.object(reporting, "_ROW_CHUNK", 4):
            report.write_json(stream)
        assert stream.write.call_count == 1 + math.ceil(rows / 4) + 1
        assert stream.getvalue() == canonical_json(reference_to_dict(report))

    @pytest.mark.parametrize("column", [[1, True], [True, 1]], ids=["int-bool", "bool-int"])
    def test_bool_in_int_column_raises_type_error(self, column):
        with pytest.raises(TypeError, match="must be str, int or float, not bool"):
            report_of({"x": column}).to_json()

    @pytest.mark.parametrize(
        "column", [[1, 1.0, 1, 1.0], [2**70, -(2**70), 2**70, 0, -(2**70)]],
        ids=["int-and-float", "big-ints"],
    )
    def test_int_cells_keep_their_exact_text(self, column):
        # an int column encodes each distinct value once; 1 == 1.0 must not share a text
        report = report_of({"x": column})
        out = report.to_json()
        assert out == canonical_json(reference_to_dict(report))
        assert [line.split(": ")[1] for line in out.splitlines() if '"x": ' in line] == list(
            map(repr, column)
        )

    @pytest.mark.parametrize("order", [1, -1], ids=["0.0-first", "-0.0-first"])
    def test_float_column_matches_json_float_on_edge_values(self, order):
        # values whose 12-digit text carries an exponent, rounds to an integer or to a
        # power of ten, or is a subnormal's; 0.0 and -0.0 are one distinct value,
        # whichever of them comes first
        column = EDGE_FLOATS[::order]
        assert json_texts(column) == list(map(reporting._json_float, column))

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
        assert json_texts(column) == list(map(reporting._json_float, column))
        report = report_of({"x": column})
        assert report.to_json() == canonical_json(reference_to_dict(report))


class TestContract:
    @pytest.mark.parametrize("render", RENDERERS.values(), ids=RENDERERS)
    @pytest.mark.parametrize(
        "table",
        [{}, {"a": []}, {"a": [], "b": []}, {"a": [1], "b": []}, {"a": [1], "b": [1, 2]},
         {"a": [1, 2], "b": [1]}, {"a": np.array([])}, {"a": [1], "b": np.arange(2)}],
        ids=["no-columns", "no-rows", "no-rows-two-columns", "empty-column", "longer-column",
             "shorter-column", "empty-array", "longer-array"],
    )
    def test_empty_or_ragged_table_raises_value_error(self, render, table):
        with pytest.raises(ValueError, match="report table"):
            render(report_of(table))

    @pytest.mark.parametrize("render", RENDERERS.values(), ids=RENDERERS)
    @pytest.mark.parametrize("value", UNSUPPORTED, ids=lambda v: type(v).__name__)
    def test_unsupported_cell_raises_type_error(self, render, value):
        with pytest.raises(TypeError, match="must be str, int or float"):
            render(report_of({"x": [1.5, value]}))
        with pytest.raises(TypeError, match="must be str, int or float"):
            render(report_of({"x": [value]}))

    @pytest.mark.parametrize("render", [RENDERERS["write_json"], RENDERERS["to_table"]],
                             ids=["write_json", "to_table"])
    @pytest.mark.parametrize("value", UNSUPPORTED, ids=lambda v: type(v).__name__)
    def test_unsupported_scalar_or_parameter_raises_type_error(self, render, value):
        table = {"x": [1]}
        with pytest.raises(TypeError, match="must be str, int or float"):
            render(report_of(table, scalars={"y": Scalar(value)}))
        with pytest.raises(TypeError, match="must be str, int or float"):
            render(report_of(table, parameters={"y": value}))


class TestColumns:
    def test_csv_and_table_follow_the_mappings_order(self):
        report = report_of({"b": [1, 3], "a": [2.5, 0.5]})
        assert report.to_csv() == "b,a\n1,2.5\n3,0.5\n"
        assert report.to_table().splitlines()[2].split() == ["b", "a"]


#: floats for the list-or-array columns: the edge values, 1e+-300, and values that
#: round to an integer at 12 digits
COLUMN_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS + [1e300, -1e-300, 1e-300, 2.0 - 1e-13, -7.0 + 1e-12]),
)
#: ints inside int64, at its ends, and beyond it (a list column only)
COLUMN_INTS = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
)


@st.composite
def numeric_tables(draw) -> dict[str, list]:
    """Float and int list columns, each drawn from a few values, so that cells repeat."""
    rows = draw(st.integers(1, 40))
    table = {}
    for key in draw(st.lists(KEYS, min_size=1, max_size=3, unique=True)):
        pool = draw(st.lists(draw(st.sampled_from([COLUMN_FLOATS, COLUMN_INTS])), min_size=1,
                             max_size=6))
        table[key] = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
    return table


def as_arrays(table: dict[str, list]) -> dict[str, list | np.ndarray]:
    """Each column as a float64 or int64 array; an int column beyond int64 stays a list."""
    arrays = {}
    for key, column in table.items():
        if all(type(v) is float for v in column):
            arrays[key] = np.array(column, dtype=np.float64)
        elif all(-(2**63) <= v < 2**63 for v in column):
            arrays[key] = np.array(column, dtype=np.int64)
        else:
            arrays[key] = column
    return arrays


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
    @example(table={"x": [-1, 2**63]}, chunk=1000)
    @example(table={"x": [2**63, -1, 2**63]}, chunk=2)
    def test_list_and_array_columns_render_alike(self, table, chunk):
        listed, arrayed = report_of(table), report_of(as_arrays(table))
        with mock.patch.object(reporting, "_ROW_CHUNK", chunk):
            out = listed.to_json()
            assert arrayed.to_json() == out
        # the per-cell oracle, built on _json_float and int's repr
        assert out == canonical_json(reference_to_dict(listed))
        assert arrayed.to_csv() == listed.to_csv()
        assert arrayed.to_table() == listed.to_table()

    def test_int_list_beyond_int64_keeps_its_exact_text(self):
        # np.array([-1, 2**63]) would be float64, which rounds 2**63 + 1 to 2**63
        column = [-1, 2**63 + 1, 2**63 + 1, -1]
        out = report_of({"x": column}).to_json()
        assert [line.split(": ")[1] for line in out.splitlines() if '"x": ' in line] == list(
            map(repr, column)
        )

    @pytest.mark.parametrize("render", RENDERERS.values(), ids=RENDERERS)
    @pytest.mark.parametrize("make", BAD_COLUMNS.values(), ids=BAD_COLUMNS)
    def test_other_column_raises_type_error(self, render, make):
        with pytest.raises(TypeError, match="column 'x' must be"):
            render(report_of({"p": [0.5, 0.5], "x": make()}))

    def test_json_encodes_each_distinct_value_once(self):
        column = np.array([0.25, 0.5, 0.25, 0.25, 0.5])
        with mock.patch.object(reporting, "_json_floats", wraps=reporting._json_floats) as spy:
            out = report_of({"x": column}).to_json()
        spy.assert_called_once_with([0.25, 0.5])
        assert out == report_of({"x": column.tolist()}).to_json()
