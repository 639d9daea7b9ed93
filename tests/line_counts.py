"""Raw and stripped line counts of each module of `src/siegelcy`.

A stripped count leaves out blank lines, lines that hold only a comment and
the lines of docstrings (a string that is the first statement of a module,
class or function).  `tokenize` finds the lines that hold code and `ast`
the docstrings.  Run from the root of the repository:

    python tests/line_counts.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "siegelcy"

#: tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int]:
    """(raw lines, stripped lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main() -> None:
    total_raw = total_stripped = 0
    for path in sorted(SOURCE.glob("*.py")):
        raw, stripped = counts(path.read_text())
        total_raw += raw
        total_stripped += stripped
        print(f"{path.name:20} {raw:5} {stripped:5}")
    print(f"{'total':20} {total_raw:5} {total_stripped:5}")


if __name__ == "__main__":
    main()
