"""Print each statement of a checkout's `src/fracmax` that no benchmark pool op executes.

Runs every op of the three workloads of `pool_ops.py` (the `verify` suites,
and the `experiments` and `dimension` pools of `benchmarks/workloads.py`,
which hold the shipped configs) through the checkout's `fracmax.cli.main`,
one after the other in this process, under `sys.settrace`, inside temporary
directories that are removed afterwards.  Nothing is written under the
checkout.  Needs the standard library only.

    python tools/unreached.py                 # this checkout
    python tools/unreached.py --root OTHER    # another checkout, e.g. the parent commit

A statement is reached when one of its own lines runs (a line of a statement
nested in it does not count), or when a statement nested in it is reached;
statements that compile to no bytecode are never listed.  The body of an
unreached statement is not listed again (an `except` clause is not a statement:
its body is listed instead), and a function whose body never runs is listed
once, on its `def` line.  Unreached statements are printed as
`path:line: first source line` in three groups: code, `raise` statements, and
docstrings (a function's docstring is unreached when its body never runs).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

from pool_ops import pool_ops

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def run_all(root: Path) -> dict[str, set[int]]:
    """Run the three workloads' ops under a line tracer; return the lines run per source file."""
    prefix = str(root / "src" / "fracmax") + os.sep
    executed: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        if event == "call":
            if not frame.f_code.co_filename.startswith(prefix):
                return None
        elif event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return tracer

    sys.dont_write_bytecode = True  # no __pycache__ under the checkout
    sys.settrace(tracer)  # before the package is imported, so its module-level lines count
    threading.settrace(tracer)
    try:
        for workload in ("verify", "experiments", "dimension"):
            for _, _, run in pool_ops(root, workload):
                run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed


def _children(node: ast.AST) -> list[ast.AST]:
    """The statements and except handlers directly nested in a statement."""
    out = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, []):
            out.extend(child.body if isinstance(child, ast.match_case) else [child])
    return out


def _span(node: ast.AST) -> set[int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_docstring(node: ast.AST) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def unreached(path: Path, ran: set[int]) -> dict[str, list[int]]:
    """Unreached statements of one module by group, as first lines."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    groups = {"code": [], "raise": [], "docstring": []}

    def own(node):  # a statement's lines outside the statements nested in it
        return _span(node).difference(*[_span(c) for c in _children(node)])

    def touches(node, lines):  # an own line or a nested statement's line is in `lines`; a def's body is its own code
        return bool(own(node) & lines) or not isinstance(node, DEFS) and any(touches(c, lines) for c in _children(node))

    def visit(stmts):
        for node in stmts:
            if isinstance(node, ast.ExceptHandler):  # not a statement: its body is listed in its place
                visit(node.body)
            elif _is_docstring(node) or not touches(node, executable):
                continue
            elif not touches(node, ran):
                groups["raise" if isinstance(node, ast.Raise) else "code"].append(node.lineno)
            elif not isinstance(node, DEFS):
                visit(_children(node))
            elif any(touches(s, ran) for s in node.body):
                visit(node.body)
            else:  # defined, never called
                groups["code"].append(node.lineno)
                groups["docstring"] += [s.lineno for s in node.body[:1] if _is_docstring(s)]

    visit(ast.parse(source).body)
    return groups


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent, help="checkout to run")
    root = parser.parse_args().root.resolve()
    executed = run_all(root)
    report = {"code": [], "raise": [], "docstring": []}
    for path in sorted((root / "src" / "fracmax").glob("*.py")):
        lines = path.read_text().splitlines()
        for group, linenos in unreached(path, executed.get(str(path), set())).items():
            rel = path.relative_to(root).as_posix()
            report[group] += [f"{rel}:{n}: {lines[n - 1].strip()}" for n in sorted(linenos)]
    for group, entries in report.items():
        print(f"# {group}: {len(entries)} unreached")
        for entry in entries:
            print(entry)


if __name__ == "__main__":
    main()
