import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

# counted by hand: lines 4, 7, 10, 11, 12, 14, 15, 16 and 17
SOURCE = '''"""A module docstring
over two lines."""

import os


def f(x):
    """A function docstring."""
    # a comment-only line
    y = x
    """A string statement
    that is not a docstring."""

    return print(
        y,
        os.sep,
    )
'''


def test_code_lines_skips_comments_blanks_and_docstrings():
    assert code_lines.code_lines(SOURCE) == 9


def test_main_lists_every_package_file_and_their_total(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *files, (total, label) = rows
    assert label == "total"
    assert [name for _, name in files] == sorted(path.name for path in (ROOT / "src" / "class_spectrum").glob("*.py"))
    assert sum(int(count) for count, _ in files) == int(total)
