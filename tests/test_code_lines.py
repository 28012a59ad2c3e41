"""The code-line counter in tools/: which lines it counts as code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment

X = """a string that is not a docstring
# so this line is code"""


class A:
    """Class docstring."""

    def f(self):  # a trailing comment leaves the line code
        """Function docstring."""
        return (
            1
        )
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # code: the two lines of X, class A, def f and the three lines of the return
    assert code_lines.count(SOURCE) == (len(SOURCE.splitlines()), 7)


def test_the_package_is_counted_per_module_and_in_total(capsys):
    assert code_lines.main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["module", "lines", "code"]
    modules = [row.split() for row in rows[1:-1]]
    total = rows[-1].split()
    assert total[0] == "total" and "cli.py" in [m[0] for m in modules]
    assert [int(total[1]), int(total[2])] == [
        sum(int(m[1]) for m in modules),
        sum(int(m[2]) for m in modules),
    ]
