"""The CSV report writer against the `csv.writer` path it replaced.

`cli._write_csv` formats and quotes each field itself and fills one
%-template per row. The reference below is the body it replaced, kept
verbatim: a QUOTE_MINIMAL `csv.writer` ending lines in "\\r\\n", each line
then ended in "\\n" alone. The bytes must be equal on every table a report
can hold; the reference is given each array column as its list of Python
scalars, as the columns were before they could be arrays.
"""

import csv
import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detraceval import cli
from detraceval.datamodel import Rows

_CHUNK_ROWS = cli._CHUNK_ROWS


def _reference_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        # A writer ending lines in "\n" alone leaves "\r" unquoted, and a
        # reader then splits the row. This one quotes both, and passes
        # each row, line end included, to one write call.
        lf = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lf, lineterminator="\r\n")
        writer.writerow(header)
        for lo in range(0, len(rows), _CHUNK_ROWS):
            writer.writerows(zip(*(
                [str(v) if not isinstance(v, float) else
                 f"{v:.6g}" if math.isfinite(v) else ""
                 for v in rows[k][lo:lo + _CHUNK_ROWS]] for k in header)))


def _lists(rows: Rows) -> Rows:
    return Rows({k: c.tolist() if isinstance(c, np.ndarray) else c
                 for k, c in rows.columns.items()})


def _bytes(write, root: Path, header, rows) -> bytes:
    path = root / "table.csv"
    # A new file: truncating a just-written file can wait on its writeback.
    path.unlink(missing_ok=True)
    write(path, header, rows)
    return path.read_bytes()


def _assert_same(root: Path, header, rows: Rows) -> None:
    assert (_bytes(cli._write_csv, root, header, rows)
            == _bytes(_reference_csv, root, header, _lists(rows)))


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e16, 1e15,
                  999999.5, 9999995.0, 123456.5, 1e-5, 0.1234565, 5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 1 / 3)
SPECIAL_STRINGS = ("", '""', ",", '"', "\r", "\n", "\r\n", " lead", "  ",
                   "trail ", "%", "%s", "%d", "a,b", 'say "x"', "é", "\t",
                   "\x00", "\x0b", "-", "1e5", "None")

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
strings = st.text(max_size=6) | st.sampled_from(SPECIAL_STRINGS)
scalars = (floats | st.integers() | st.booleans() | st.none() | strings
           | floats.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64))


def _column(n):
    """A list of any mix of scalars, or an int64 or float64 array."""
    return (st.lists(scalars, min_size=n, max_size=n)
            | st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)
            .map(lambda v: np.array(v, dtype=np.int64))
            | st.lists(floats, min_size=n, max_size=n)
            .map(lambda v: np.array(v, dtype=np.float64)))


@st.composite
def tables(draw):
    """(header, `Rows`): up to 12 rows; the header names some of the
    columns, in any order."""
    keys = draw(st.lists(strings, max_size=5, unique=True))
    n = draw(st.integers(0, 12))
    rows = Rows({k: draw(_column(n)) for k in keys})
    header = draw(st.permutations(keys))[:draw(st.integers(0, len(keys)))]
    return tuple(header), rows


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=400, deadline=None)
@given(table=tables(), chunk=st.integers(1, 5))
def test_writer_bytes_equal_csv_writer(root, table, chunk):
    """Any table, in chunks of 1 to 5 rows so that lists, arrays and
    non-finite floats meet chunk seams."""
    with mock.patch.object(cli, "_CHUNK_ROWS", chunk):
        _assert_same(root, *table)


@pytest.mark.parametrize("header, rows", [
    (("a",), Rows({"a": [""]})),
    (("a",), Rows({"a": ["", "x", ""]})),
    (("",), Rows({"": ['""', ""]})),
    (("a",), Rows({"a": np.array([math.nan, 1.0, -math.inf])})),
    (("a", "b"), Rows({"a": ["", ""], "b": [math.nan, None]})),
    (("a,b", 'q"', "c\r", "%s"), Rows({"a,b": [" lead", "%"], 'q"': [1, 2],
                                      "c\r": ["\r\n", ","], "%s": ['"', ""]})),
    ((), Rows({"a": [1, 2]})),
    (("a",), Rows({})),
    (("f", "i"), Rows({"f": np.array(SPECIAL_FLOATS),
                       "i": np.arange(len(SPECIAL_FLOATS)) - 2**62})),
], ids=["one-empty", "one-column-empties", "empty-name", "one-float-column",
        "two-empty-fields", "quoted-names", "no-header", "no-rows",
        "special-arrays"])
def test_writer_quotes_as_csv_does(tmp_path, header, rows):
    _assert_same(tmp_path, header, rows)


def test_writer_long_tables_cross_chunks(tmp_path):
    """Array and list columns over several real chunks, with non-finite
    floats in the middle chunk only."""
    n = 2 * _CHUNK_ROWS + 1000
    rng = np.random.default_rng(0)
    threshold = rng.uniform(size=n)
    threshold[_CHUNK_ROWS + 7] = math.nan
    threshold[2 * _CHUNK_ROWS - 1] = math.inf
    scaled = rng.uniform(-1e7, 1e7, size=n)
    names = [("car", "a,b", 'say "x"', "", "\r")[i % 5] for i in range(n)]
    rows = Rows({"threshold": threshold, "scaled": scaled,
                 "tp": rng.integers(0, 10**6, size=n), "name": names,
                 "mixed": [1, 2.5, None, math.nan] * (n // 4)})
    _assert_same(tmp_path, ("threshold", "tp", "scaled", "name", "mixed"),
                 rows)
    _assert_same(tmp_path, ("threshold",), rows)
