"""Print each module's lines and code lines, and their totals.

    python3 tools/code_lines.py [--src DIR]

``--src`` names the ``src/`` directory whose ``*.py`` files are counted,
recursively (by default this checkout's).  A code line is a line that
holds some token other than a comment, is not blank, and lies outside
every docstring: comments are found with ``tokenize`` and docstrings
(the first statement of a module, class or function, when it is a string
literal) with ``ast``.  A statement that spans several lines counts each
of them.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings in ``tree`` cover."""
    lines = set()
    for node in ast.walk(tree):
        if not (isinstance(node, _HAS_DOCSTRING) and node.body):
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(lines, code lines)`` of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    src = ap.parse_args().src
    totals = [0, 0]
    print(f"{'module':32s} {'lines':>6s} {'code':>6s}")
    for path in sorted(src.rglob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{str(path.relative_to(src)):32s} {lines:6d} {code:6d}")
    print(f"{'total':32s} {totals[0]:6d} {totals[1]:6d}")


if __name__ == "__main__":
    main()
