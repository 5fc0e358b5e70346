"""The report writer against the json.dump path it replaced.

`cli._write_json` formats JSON itself: sorted keys, 2-space indent, floats
at 6 significant digits, non-finite floats as null. The reference below is
the code it replaced, kept verbatim: round every float, then
``json.dump(..., sort_keys=True, indent=2)`` and a newline. The bytes must
be equal on every value a report can hold; the reference is given each
`Rows` as the list of its row dicts, an array column as its list of Python
scalars.
"""

import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detraceval import cli
from detraceval.datamodel import Rows


def _round6(obj):
    """Clamp floats to 6 significant digits for stable report output."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round6(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round6(v) for v in obj]
    return obj


def _plain(obj):
    """`obj` with every `Rows` turned into the list of its row dicts."""
    if isinstance(obj, Rows):
        return [dict(zip(obj.columns, row)) for row in zip(*(
            c.tolist() if isinstance(c, np.ndarray) else c
            for c in obj.columns.values()))]
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _reference(obj) -> str:
    buf = io.StringIO()
    json.dump(_round6(_plain(obj)), buf, sort_keys=True, indent=2)
    buf.write("\n")
    return buf.getvalue()


def _written(obj, root: Path) -> str:
    path = root / "report.json"
    # A new file: truncating a just-written file can wait on its writeback.
    path.unlink(missing_ok=True)
    cli._write_json(path, obj)
    return path.read_text()


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e16, 1e15,
                  123456.5, 999999.5, 9999995.0, 1234567.0, 1e-4, 1e-5,
                  0.00012345650, 0.1234565, 1.0000005, 2.5e-7, 5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 100000.0,
                  0.5, 1.0, -1.0, 3.0, 1 / 3, 0.9999996, -0.99999, 1e-300)
SPECIAL_STRINGS = ("", "a", "é", "日本", "😀", "\x00", "\x1f", "\n\t\r", '"',
                   "\\", "%", "%s", "%%s", "\ud800", "\x7f", "a b", "Z", "z")

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
strings = st.text(max_size=6) | st.sampled_from(SPECIAL_STRINGS)
scalars = (floats | st.integers() | st.booleans() | st.none() | strings
           | floats.map(np.float64))


@st.composite
def rows(draw, values):
    """A list of flat dicts that share one key set, as report points are,
    with now and then a row of another shape or with a nested value."""
    keys = draw(st.lists(strings, min_size=1, max_size=6, unique=True))
    out = []
    for _ in range(draw(st.integers(0, 6))):
        row = {k: draw(scalars) for k in keys}
        if draw(st.integers(0, 5)) == 0:
            row[draw(strings)] = draw(values)
        out.append(row)
    return out


def _column(n):
    """A list of any mix of scalars, or an int64 or float64 array."""
    return (st.lists(scalars, min_size=n, max_size=n)
            | st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)
            .map(lambda v: np.array(v, dtype=np.int64))
            | st.lists(floats, min_size=n, max_size=n)
            .map(lambda v: np.array(v, dtype=np.float64)))


@st.composite
def tables(draw):
    """`Rows` of 0 to 6 rows; a column holds any mix of scalars, or is an
    int64 or float64 array."""
    keys = draw(st.lists(strings, max_size=6, unique=True))
    n = draw(st.integers(0, 6))
    return Rows({k: draw(_column(n)) for k in keys})


def _extend(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(strings, children, max_size=5)
            | rows(children))


documents = st.recursive(scalars | tables(), _extend, max_leaves=40)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@settings(max_examples=500, deadline=None)
@given(obj=documents)
def test_writer_bytes_equal_round6_json_dump(root, obj):
    assert _written(obj, root) == _reference(obj)


@pytest.mark.parametrize("value", SPECIAL_FLOATS)
def test_writer_special_floats(tmp_path, value):
    obj = {"v": value, "rows": [{"a": value, "b": 1}, {"a": -value, "b": 2}]}
    assert _written(obj, tmp_path) == _reference(obj)


def test_writer_long_lists_cross_chunks(tmp_path):
    """Rows long enough to be written in several chunks, and long lists
    with row shapes that change and rows that hold nested values."""
    rng = np.random.default_rng(0)
    points = [{"threshold": float(t), "precision": float(p), "recall": float(r),
               "tp": i, "fp": 2 * i, "fn": -i}
              for i, (t, p, r) in enumerate(rng.uniform(size=(30000, 3)))]
    points[100] = {"threshold": None, "tp": [1, 2.5, {"x": math.nan}]}
    points[200] = {}
    points[300] = {"other": "é", "keys": (1, 2)}
    columns = {k: [p.get(k) for p in points[:100]] * 300
               for k in ("threshold", "precision", "tp")}
    floats = rng.uniform(-2.0, 2.0, size=30000)
    floats[::997] = rng.choice(SPECIAL_FLOATS, size=len(floats[::997]))
    arrays = {"threshold": floats, "tp": rng.integers(-2**63, 2**63 - 1,
                                                      size=30000),
              "%s": np.array([1e-300, 1e-301, 0.99999, 0.9999996] * 7500)}
    obj = {"overall": {"ap": 0.1234567, "points": points},
           "rows": Rows(columns), "arrays": Rows(arrays),
           "nested": [[{"a": 1.0}] * 3, [], {}, ()] * 2000}
    assert _written(obj, tmp_path) == _reference(obj)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("obj", [
    Rows({}),
    Rows({"a": [], "b": []}),
    Rows({"%": [1, 2], "%s": [0.5, None], "é": ["x", "%d"], "日本": [True, 3],
          "": [-0.0, 1e16]}),
    Rows({"x": NON_FINITE + [1, 2.5, np.float64(1 / 3), 7],
          "y": [0, 1.0, -2, 1e-5, math.inf, 10**20, 0.1234565]}),
    {"a": [Rows({"v": [1, 2.5]}), {"b": (Rows({"w": NON_FINITE}), Rows({}))}],
     "c": Rows({"z": [1]})},
    [[[Rows({"deep": [0.1, 2]})]]],
], ids=["no-columns", "no-rows", "keys", "mixed-and-non-finite", "nested",
        "deep"])
def test_writer_rows_equal_their_row_dicts(tmp_path, obj):
    assert _written(obj, tmp_path) == _reference(obj)


@pytest.mark.parametrize("value", [{1, 2}, np.int64(3), np.float32(0.5),
                                   object()])
def test_writer_rejects_what_json_rejects(tmp_path, value):
    with pytest.raises(TypeError):
        _reference({"v": value})
    for obj in ({"v": value}, Rows({"v": [1, value]})):
        with pytest.raises(TypeError):
            _written(obj, tmp_path)


@pytest.mark.parametrize("dtype", [np.float32, np.bool_, object])
def test_writer_rejects_array_columns_json_rejects(tmp_path, dtype):
    """An array column of another dtype than int64 or float64 is a
    TypeError, as `json.dump` refuses numpy scalars: `Rows` refuses it."""
    with pytest.raises(TypeError, match="int64 or float64"):
        _written(Rows({"v": np.array([1, 0], dtype=dtype)}), tmp_path)


@pytest.mark.parametrize("value", [[1], (1,), {"a": 1}])
def test_writer_rejects_rows_holding_containers(tmp_path, value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        _written(Rows({"v": [1.0, value]}), tmp_path)
