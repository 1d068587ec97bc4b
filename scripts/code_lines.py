#!/usr/bin/env python3
"""Print the code lines, tokens and syntax-tree nodes of each module under
src/posdec, and their totals.

A code line holds some token other than a comment; blank lines, comment
lines and the lines of module, class and function docstrings do not
count.  Tokens are every token ``tokenize`` yields, comments and line
breaks included; nodes are every node of the module's syntax tree.  The
compile in every cold import, and with it start-up time and peak memory,
tracks tokens and nodes more closely than lines.  Run from anywhere:
``python3 scripts/code_lines.py``.
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "posdec"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines)


def sizes(source: str) -> tuple[int, int, int]:
    """(code lines, tokens, syntax-tree nodes) of a module's source."""
    tokens = sum(1 for _ in tokenize.generate_tokens(io.StringIO(source).readline))
    nodes = sum(1 for _ in ast.walk(ast.parse(source)))
    return code_lines(source), tokens, nodes


def main() -> None:
    totals = [0, 0, 0]
    print(f"{'lines':>6}  {'tokens':>6}  {'nodes':>6}  module")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = sizes(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print("  ".join(f"{c:6d}" for c in counts) + f"  {path.name}")
    print("  ".join(f"{c:6d}" for c in totals) + "  total")


if __name__ == "__main__":
    main()
