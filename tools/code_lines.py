"""Count the code lines of each module of the package.

Usage, from the root of a checkout:

    python3 tools/code_lines.py

A code line is a physical line that holds part of a token other than a
comment, and that is not part of a docstring: the string statement that
opens a module, class or function body.  Blank lines, comment lines and
docstrings are not counted; a string that is not a docstring counts on every
line it spans.  It prints one line per module of ``src/contmach/`` and their
total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contmach"

#: Tokens that put no code on a line.
_NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                       tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER})


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python text ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,}  {path.name}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
