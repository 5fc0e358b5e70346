"""The report writer against the json.dump path it replaced.

`cli._write_json` formats JSON itself: sorted keys, 2-space indent, floats
at 6 significant digits, non-finite floats as null. The reference below is
the code it replaced, kept verbatim: round every float, then
``json.dump(..., sort_keys=True, indent=2)`` and a newline. The bytes must
be equal on every value a report can hold.
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


def _reference(obj) -> str:
    buf = io.StringIO()
    json.dump(_round6(obj), buf, sort_keys=True, indent=2)
    buf.write("\n")
    return buf.getvalue()


def _written(obj, root: Path) -> str:
    path = root / "sub" / "report.json"
    cli._write_json(path, obj)
    return path.read_text()


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e16, 1e15,
                  123456.5, 999999.5, 9999995.0, 1234567.0, 1e-4, 1e-5,
                  0.00012345650, 0.1234565, 1.0000005, 2.5e-7, 5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 100000.0,
                  0.5, 1.0, -1.0, 3.0, 1 / 3)
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


def _extend(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(strings, children, max_size=5)
            | rows(children))


documents = st.recursive(scalars, _extend, max_leaves=40)


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
    """Lists long enough to be written in several chunks, with row shapes
    that change and rows that hold nested values."""
    rng = np.random.default_rng(0)
    points = [{"threshold": float(t), "precision": float(p), "recall": float(r),
               "tp": i, "fp": 2 * i, "fn": -i}
              for i, (t, p, r) in enumerate(rng.uniform(size=(30000, 3)))]
    points[100] = {"threshold": None, "tp": [1, 2.5, {"x": math.nan}]}
    points[200] = {}
    points[300] = {"other": "é", "keys": (1, 2)}
    obj = {"overall": {"ap": 0.1234567, "points": points},
           "nested": [[{"a": 1.0}] * 3, [], {}, ()] * 2000}
    assert _written(obj, tmp_path) == _reference(obj)


@pytest.mark.parametrize("value", [{1, 2}, np.int64(3), np.float32(0.5),
                                   object()])
def test_writer_rejects_what_json_rejects(tmp_path, value):
    with pytest.raises(TypeError):
        _reference({"v": value})
    with pytest.raises(TypeError):
        _written({"v": value}, tmp_path)
