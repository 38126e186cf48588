"""`scripts/code_lines.py` counts the lines that hold code: not blank, not a
comment and not a docstring."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
_C = importlib.util.module_from_spec(spec)
spec.loader.exec_module(_C)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code

# A comment line.


def f(x):
    """A function docstring."""
    text = """a string that is
    not a docstring"""
    return x


class K:
    """A class docstring
    over two lines."""

    y = 1
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, text (two lines), return, class, y
    assert _C.code_lines(SOURCE) == 7


def test_a_module_of_only_a_docstring_has_no_code_lines():
    assert _C.code_lines('"""Only a docstring."""\n') == 0
    assert _C.code_lines("") == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert _C.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     2  a.py\n     7  b.py\n     9  total\n"


def test_main_wants_one_directory(tmp_path, capsys):
    assert _C.main([]) == 2
    assert _C.main([str(tmp_path / "missing")]) == 2
    assert capsys.readouterr().err == "usage: code_lines.py DIR\n" * 2
