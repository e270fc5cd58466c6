#!/usr/bin/env python3
"""The statements of src/dfsmn/ that no test in tests/ runs.

Runs pytest on tests/ in this process under a line trace (sys.settrace, and
threading.settrace for the threads the package starts), then prints
"path:line" for each statement of src/dfsmn/ that never ran, and their
count. Statements come from an ast walk that leaves out docstrings and
`if TYPE_CHECKING:` blocks; a compound statement counts as run when its
header runs, and its body's statements count on their own. Exits with
pytest's status, so nonzero if a test fails. Takes no option:

    python scripts/unrun_statements.py
"""

import ast
import os
import sys
import threading
from collections import defaultdict

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "dfsmn")
SCOPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(source: str) -> dict:
    """{line: lines} for each statement of source: the line it is reported
    by, and the lines any of which, when run, mean it ran. Those are a simple
    statement's own lines and a compound statement's header, decorators
    included."""
    found = {}

    def walk(body, scope=False):
        for i, stmt in enumerate(body):
            if i == 0 and scope and _is_docstring(stmt):
                continue
            if (isinstance(stmt, ast.If) and isinstance(stmt.test, ast.Name)
                    and stmt.test.id == "TYPE_CHECKING"):
                continue
            first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
            last = stmt.body[0].lineno - 1 if hasattr(stmt, "body") else stmt.end_lineno
            found[stmt.lineno] = range(first, max(first, last) + 1)
            walk(getattr(stmt, "body", []), isinstance(stmt, SCOPES))
            walk(getattr(stmt, "orelse", []) + getattr(stmt, "finalbody", []))
            for handler in getattr(stmt, "handlers", []):
                walk(handler.body)

    walk(ast.parse(source).body, scope=True)
    return found


def _is_docstring(stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def main() -> int:
    found = {}  # read before the run, so the lines match the code traced
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                found[os.path.join(PACKAGE, name)] = statements(f.read())
    ran = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(PACKAGE + os.sep) else None

    sys.path.insert(0, SRC)
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = [f"{os.path.relpath(path, ROOT)}:{n}" for path, stmts in found.items()
             for n, lines in sorted(stmts.items()) if ran[path].isdisjoint(lines)]
    print(*unrun, sep="\n")
    print(f"{len(unrun)} of {sum(map(len, found.values()))} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
