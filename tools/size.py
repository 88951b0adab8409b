"""Print the size of ``src/attnlab``: lines and non-docstring code tokens.

Usage: ``python3 tools/size.py [ROOT]``, where ROOT is a checkout (default:
the one this file sits in). One row per module, then the total.

Lines are ``wc -l``'s count. Tokens are Python ``tokenize`` tokens, leaving
out comments, layout (NL, NEWLINE, INDENT, DEDENT), ENCODING and ENDMARKER,
and docstrings: the first statement of a module, class or function when it
is a string. Line counts reward reformatting; the token count does not.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) (line, column) positions of every docstring statement."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(
                    ((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset))
                )
    return spans


def code_tokens(source: str) -> int:
    """Non-docstring code tokens of one module's source."""
    spans = _docstring_spans(source)
    return sum(
        1
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in _SKIPPED
        and not any(start <= tok.start < end for start, end in spans)
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    total_lines = total_tokens = 0
    for path in sorted((root / "src" / "attnlab").glob("*.py")):
        source = path.read_text()
        lines, tokens = source.count("\n"), code_tokens(source)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<16} {lines:>6} lines {tokens:>7} tokens")
    print(f"{'total':<16} {total_lines:>6} lines {total_tokens:>7} tokens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
