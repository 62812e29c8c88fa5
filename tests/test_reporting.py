"""Tests for the report renderers: the streaming JSON writer against the generic encoder."""

import io
import json
import math
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinbeam import reporting
from twinbeam.reporting import EXACT, SAMPLED, Scalar, ScenarioReport, _jsonify, canonical_json


def reference_to_dict(report: ScenarioReport) -> dict[str, Any]:
    """The rounded copy of a report that ``to_json`` once encoded with ``canonical_json``."""
    out: dict[str, Any] = {
        "scenario": report.scenario,
        "statistics": report.statistics,
        "parameters": _jsonify(report.parameters),
        "scalars": {
            name: {"value": _jsonify(s.value), "provenance": s.provenance}
            for name, s in report.scalars.items()
        },
        "table": [_jsonify(row) for row in report.table],
    }
    if report.matrices:
        out["matrices"] = {
            name: [[_jsonify(complex(v)) for v in row] for row in np.asarray(m)]
            for name, m in report.matrices.items()
        }
    return out


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1e300, 0.1, 1 / 3, 1e12, 123456789012345.6, 1e16, 0.5 + 1e-13,
]
TEXT = st.text(
    st.one_of(st.sampled_from('"\\\n\r\t\b\f\x00\x1f\x7f%/é€ 😀'), st.characters()),
    max_size=6,
)
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
INTS = st.one_of(st.integers(-5, 5), st.integers(-(2**70), 2**70))
COMPLEX = st.builds(complex, FLOATS, FLOATS)
NUMPY_SCALARS = st.one_of(
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    COMPLEX.map(np.complex128),
)
ARRAYS = st.one_of(
    st.lists(FLOATS, max_size=4).map(np.array),
    st.lists(st.lists(COMPLEX, min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows, dtype=complex).reshape(-1, 2)
    ),
)
PLAIN = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
LEAVES = st.one_of(PLAIN, COMPLEX, NUMPY_SCALARS, ARRAYS, st.frozensets(TEXT, max_size=3))
VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(TEXT, INTS), children, max_size=3),
    ),
    max_leaves=8,
)
#: what one table column holds: one plain type (the writer's per-column path) or anything
COLUMN_KINDS = st.sampled_from(
    [st.none(), st.booleans(), INTS, FLOATS, st.sampled_from([0.25, 0.5, -0.0, math.nan]),
     TEXT, PLAIN, VALUES]
)
#: row keys, including labels that collide once turned into strings
KEYS = st.one_of(TEXT, st.sampled_from(["p", "q", "1", "%s", '"']), st.integers(0, 2))


@st.composite
def tables(draw) -> list[dict]:
    key_sets = draw(st.lists(st.lists(KEYS, max_size=4, unique=True), min_size=1, max_size=3))
    columns = {key: draw(COLUMN_KINDS) for keys in key_sets for key in keys}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        keys = draw(st.sampled_from(key_sets))
        if draw(st.booleans()):
            keys = draw(st.permutations(keys))
        rows.append({key: draw(columns[key]) for key in keys})
    return rows


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
    parameters=st.dictionaries(st.one_of(TEXT, INTS), VALUES, max_size=4),
    scalars=st.dictionaries(
        TEXT,
        st.builds(Scalar, VALUES, st.one_of(st.sampled_from([EXACT, SAMPLED]), TEXT)),
        max_size=4,
    ),
    table=tables(),
    matrices=MATRICES,
)


class TestWriteJson:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(report=REPORTS, chunk=st.sampled_from([1, 2, 5, 1000]))
    def test_matches_generic_encoder(self, report, chunk):
        with mock.patch.object(reporting, "_ROW_CHUNK", chunk):
            out = report.to_json()
        assert out == canonical_json(reference_to_dict(report))
        assert canonical_json(json.loads(out)) == out

    def test_empty_report(self):
        report = ScenarioReport(scenario="s", statistics="boson")
        assert report.to_json() == canonical_json(reference_to_dict(report))
        assert '"table": []' in report.to_json()

    def test_empty_rows(self):
        report = ScenarioReport(scenario="s", statistics="boson", table=[{}, {"a": 1}, {}])
        assert report.to_json() == canonical_json(reference_to_dict(report))

    @pytest.mark.parametrize("value", [{1, 2}, object(), np.bool_(True)], ids=type)
    def test_unsupported_cell_raises_type_error(self, value):
        report = ScenarioReport(scenario="s", statistics="boson", table=[{"x": 1.5}, {"x": value}])
        with pytest.raises(TypeError):
            reference_to_dict(report)
        with pytest.raises(TypeError):
            report.to_json()

    def test_rows_are_written_in_chunks(self):
        rows = [{"pattern": str(i), "probability": 1 / (i + 1)} for i in range(2500)]
        report = ScenarioReport(scenario="s", statistics="fermion", table=rows)
        stream = mock.Mock(wraps=io.StringIO())
        report.write_json(stream)
        # the head, one write per 1,000 rows, and the closing brackets
        assert stream.write.call_count == 1 + 3 + 1
        assert stream.getvalue() == canonical_json(reference_to_dict(report))


class TestColumns:
    def test_csv_and_table_share_first_appearance_order(self):
        report = ScenarioReport(
            scenario="s", statistics="boson",
            table=[{"b": 1, "a": 2.5}, {"c": "x", "a": 0.5}, {"b": 3}],
        )
        assert report.to_csv().splitlines()[0] == "b,a,c"
        assert report.to_table().splitlines()[2].split() == ["b", "a", "c"]
