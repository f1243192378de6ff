"""tools/code_lines.py on fixture sources: which lines count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment on its own line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        "a later string statement is code"
        return """a string
over two lines"""

    async def g(self):
        \'\'\'Async function docstring.\'\'\'
        x = (1,
             2)
        return x
'''


def test_counts_code_lines_only():
    # import, class, def f, the later string, both return lines,
    # async def g, both lines of x, return x
    assert code_lines.code_lines(SOURCE) == 10
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 8, 11, 17}


def test_a_file_without_code_counts_zero():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    (tmp_path / "c.py").write_text("y = 2\nz = 3\n")
    code_lines.main([str(tmp_path / "pkg"), str(tmp_path / "c.py")])
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["2", "1", "10", "13"]  # sorted paths: c.py, pkg/a.py, pkg/b.py
