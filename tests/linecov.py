"""Statement coverage of ``src/sobolev_adjoint`` under the test suite, with no
coverage package: a stand-in for ``coverage run -m pytest``.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/linecov.py -q

pytest runs in this process under a ``sys.settrace`` recorder, set for new
threads too by ``threading.settrace``, that records line events only in
frames whose code lives in ``src/sobolev_adjoint``.  The report lists, per
module, each statement inside a function that never ran: its first line and
source.  Docstrings, ``def`` and ``class`` lines, ``try:`` headers and
module- and class-level statements (they run at import) are left out.  A
compound statement counts as run when its header ran, a simple one when any
of its lines did.  Tests that run the CLI in a subprocess add nothing.  The
exit code is pytest's.  Over the whole suite it takes ~45 s on a 2-vCPU VM.
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "sobolev_adjoint"
_NO_CODE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Try,
            ast.Global, ast.Nonlocal)
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)


def statements(source: str) -> dict[int, range]:
    """First line of each statement inside a function -> the lines that run it."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if (not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE)
                    or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
                continue
            end = (max(node.lineno, node.body[0].lineno - 1)
                   if isinstance(node, _COMPOUND) else node.end_lineno)
            found[node.lineno] = range(node.lineno, end + 1)
    return found


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each file under PACKAGE."""
    hits = defaultdict(set)
    prefix = str(PACKAGE)

    def on_line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(args: list[str]) -> int:
    code, hits = run_traced(args)
    missed_total = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        stmts = statements(source)
        ran = hits.get(str(path), set())
        missed = [first for first, span in sorted(stmts.items()) if ran.isdisjoint(span)]
        total += len(stmts)
        missed_total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(stmts)} statements never ran")
        for first in missed:
            print(f"  {path.name}:{first}  {lines[first - 1].strip()}")
    print(f"total: {missed_total} of {total} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
