"""Differential test of load_raw's two readers: numpy's C reader, which reads
a file without quotes whose mapped values it can read, and csv.reader, which
reads any other."""

import gzip
import tempfile
from pathlib import Path

import numpy as np
import pytest

import modechoice.dataset as dataset
from modechoice.dataset import ColumnMap, DatasetError, load_raw

from conftest import RAW_COLUMNS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CMAP = ColumnMap()

NUMBERS = st.one_of(
    st.integers(0, 300).map(str),
    st.decimals(-5, 300, places=2, allow_nan=False, allow_infinity=False).map(str),
)


def odd_values(delimiter):
    """Values a survey file may hold that are not plain numbers."""
    return st.sampled_from(
        [
            "nan", "inf", "-Infinity", "1_000", " 12 ", "", "n/a", "12 4",
            '"12"', f'"Zurich{delimiter} HB"', '"say ""hi"""',
        ]
    )


def stations(delimiter):
    """Values of an unmapped text column, some quoted, one holding the delimiter."""
    return st.sampled_from(["Bern", "Basel SBB", '"Bern"', f'"Zurich{delimiter} HB"'])


@st.composite
def surveys(draw):
    """A survey's delimiter and text: shuffled columns, among them a text
    column, a few rows of numbers with a few odd values, short rows, blank
    or space-only lines, and LF or CRLF line endings."""
    delimiter = draw(st.sampled_from(["\t", ","]))
    columns = draw(st.permutations([*RAW_COLUMNS, "STATION"]))
    n_rows = draw(st.integers(0, 5))
    rows = [
        [draw(stations(delimiter) if name == "STATION" else NUMBERS) for name in columns]
        for _ in range(n_rows)
    ]
    if n_rows:
        places = st.tuples(st.integers(0, n_rows - 1), st.integers(0, len(columns) - 1))
        for (row, column), text in draw(
            st.lists(st.tuples(places, odd_values(delimiter)), max_size=3)
        ):
            rows[row][column] = text
        for row, width in draw(st.lists(places, max_size=2)):  # a short row
            del rows[row][width:]
    lines = [delimiter.join(columns)] + [delimiter.join(row) for row in rows]
    for at, line in draw(
        st.lists(st.tuples(st.integers(1, len(lines)), st.sampled_from(["", " "])), max_size=2)
    ):
        lines.insert(at, line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return delimiter, ending.join(lines) + draw(st.sampled_from(["", ending]))


def outcome(path, delimiter):
    """load_raw's columns as lists, or its error's type, row, column and message."""
    try:
        columns = load_raw(path, CMAP, delimiter=delimiter)
    except DatasetError as exc:
        message = str(exc).replace(str(path), "<path>")
        return type(exc), getattr(exc, "row_index", None), getattr(exc, "column", None), message
    assert list(columns) == CMAP.mapped_columns()
    assert all(values.dtype == np.float64 for values in columns.values())
    return {name: values.tolist() for name, values in columns.items()}


@hypothesis.given(surveys())
def test_both_ingest_paths_read_the_same_values_or_raise_the_same_error(survey):
    delimiter, text = survey
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "survey.dat"
        path.write_bytes(text.encode("utf-8"))
        read = outcome(path, delimiter)
        with pytest.MonkeyPatch.context() as patch:  # no C reader: every file goes to csv
            patch.setattr(dataset, "_read_with_numpy", lambda *args: None)
            assert read == outcome(path, delimiter)
        packed = path.with_name("survey.dat.gz")
        packed.write_bytes(gzip.compress(text.encode("utf-8")))
        assert outcome(packed, delimiter) == read
