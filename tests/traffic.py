"""Traffic report: the statements of `src/siegelcy` that no command-line run
executes.

One process runs `siegelcy.cli.main` on the invocations behind the committed
reports (the arguments of the `stable` lines of `tests/golden_reports.sh`,
read from the script), then on three refusals: a truncation of 3,
`--tol nan` and a `--json` path in a missing folder.  `sys.settrace`
records every line the package executes, imports included.  The report
prints, per function, the lines of the statements that no run reached, or
that the function was never entered.  It is printed for the record, with
no gate.  Standard library only; run from the root of the repository:

    PYTHONPATH=src python tests/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "siegelcy"

#: the committed reports' invocations: each `stable GOLDEN MAX_EXIT ARGS...`
#: line of tests/golden_reports.sh gives its ARGS
GOLDEN_RUNS = [shlex.split(line)[3:] for line in
               (Path(__file__).parent / "golden_reports.sh").read_text().splitlines()
               if line.startswith("stable ")]


def statements(tree: ast.Module) -> dict[str, list[int]]:
    """qualified function name -> first lines of its own statements (those
    of nested functions and classes excluded), docstring left out."""
    found: dict[str, list[int]] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                body = child.body
                if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                found[name] = sorted(own_lines(body))
                visit(child, f"{name}.")

    def own_lines(body: list[ast.stmt]) -> set[int]:
        lines = set()
        for stmt in body:
            lines.add(stmt.lineno)
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for field in ("body", "orelse", "finalbody"):
                    lines |= own_lines(getattr(stmt, field, []))
                for handler in getattr(stmt, "handlers", []):
                    lines |= {handler.lineno} | own_lines(handler.body)
        return lines

    visit(tree, "")
    return found


def main() -> None:
    executed: set[tuple[str, int]] = set()
    package = str(SOURCE)

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(package):
            executed.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(tracer)
        from siegelcy.cli import main as cli_main
        runs = [[*argv, "--json", f"{out}/{k}.json"] for k, argv in enumerate(GOLDEN_RUNS)]
        runs += [["relations", "--truncation", "3"], ["chars", "--tol", "nan"],
                 ["chars", "--json", f"{out}/missing/report.json"]]
        for argv in runs:
            cli_main(argv)
        sys.settrace(None)

    for path in sorted(SOURCE.glob("*.py")):
        for name, lines in statements(ast.parse(path.read_text())).items():
            missed = [n for n in lines if (str(path), n) not in executed]
            if lines and missed == lines:
                print(f"{path.stem}.{name}: never entered")
            elif missed:
                print(f"{path.stem}.{name}: lines {', '.join(map(str, missed))}")


if __name__ == "__main__":
    main()
