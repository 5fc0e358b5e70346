"""tools/code_lines.py, the code-line count that simplicity changes are
measured by: its counting rules on one sample source, and its output."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''\
"""Module docstring,
over two lines."""

# a comment-only line
import os
"""A string after a statement, so no docstring."""


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring,
        over two lines."""
        width = 2  # a trailing comment
        text = """a string that is
not a docstring"""
        return width


async def fetch():
    """Async function docstring."""
    return os.sep
'''

# import os; the string after it; class Box; def area; width = 2;
# text = ... (2 lines); return width; async def fetch; return os.sep
SAMPLE_LINES = 10


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counting_rules_on_a_sample():
    assert _tool().code_lines(SAMPLE) == SAMPLE_LINES


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert _tool().main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [line.split(maxsplit=1) for line in lines]
    assert counts == [[str(SAMPLE_LINES), str(tmp_path / "pkg" / "a.py")],
                      ["2", str(tmp_path / "pkg" / "b.py")],
                      [str(SAMPLE_LINES + 2), "total"]]
