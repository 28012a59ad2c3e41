"""Count the lines of each module of ``src/delgov``, and how many of them are code.

A code line is one that is not blank, not a comment and not part of a
docstring: the string literal that opens a module, class or function body,
found with ``ast``. A line is code when any token on it is code, so a
statement with a trailing comment counts, and every line of a multi-line
statement or of a string that is not a docstring counts.

    python tools/code_lines.py

One line per module, then the total; nothing is gated on the figures.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> int:
    package = Path(__file__).resolve().parent.parent / "src" / "delgov"
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    totals = [0, 0]
    for module in sorted(package.glob("*.py")):
        lines, code = count(module.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{module.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
