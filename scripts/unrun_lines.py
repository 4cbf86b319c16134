#!/usr/bin/env python3
"""Function-body lines of the package that no tier-1 test runs.

    python3 scripts/unrun_lines.py

Runs the tier-1 tests in this process with a line tracer on the code of
``src/casimir_bec/`` (``sys.settrace`` and ``threading.settrace``), takes each
function's lines from its code object's ``co_lines()``, and prints every
line that no test ran.  A function's ``def`` line and module or class
bodies do not count.

Exit 1 when such a line is not in UNRUN, when an UNRUN entry names a line
that now runs or no longer exists, or when the tests fail.  Tests that run
the package in a fresh process (the console-script and compare-runs tests)
are not traced, so a line that only they reach must be listed.  Needs the
package's test dependencies and nothing else; about twice the untraced
tier-1 time.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "casimir_bec"

# (file under src/casimir_bec/, function, the line's source text) -> why no
# tier-1 test runs it.
UNRUN: dict[tuple[str, str, str], str] = {}


def function_lines(path: Path) -> dict[int, str]:
    """{line: qualified function name} of each function-body line of a module."""
    lines: dict[int, str] = {}
    # (code, the qualified-name prefix of what it defines); co_qualname
    # itself is not on Python 3.10.
    stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
    while stack:
        code, prefix = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            name = prefix + code.co_name
            inner = name + ".<locals>."
            for _, _, line in code.co_lines():
                if line is not None and line != code.co_firstlineno:
                    # An enclosing function is popped before what it defines.
                    lines.setdefault(line, name)
        else:
            inner = "" if code.co_name == "<module>" else prefix + code.co_name + "."
        stack += [(c, inner) for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_traced(pytest_args) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code and the (file name, line) pairs run in the package."""
    import pytest

    executed: set[tuple[str, int]] = set()
    names: dict[str, str | None] = {}  # co_filename -> file name in the package, or None

    def line_tracer(frame, event, arg):
        if event == "line":
            executed.add((names[frame.f_code.co_filename], frame.f_lineno))
        return line_tracer

    def call_tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            path = Path(filename).resolve()
            names[filename] = path.name if path.parent == PACKAGE else None
        return line_tracer if names[filename] else None

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])
    status, executed = run_traced(["-q", "-p", "no:cacheprovider",
                                   "--continue-on-collection-errors", "tests"])
    if status != 0:
        print(f"the tests fail (pytest exit {status}); lines not checked", file=sys.stderr)
        return 1

    failures, listed = 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, function in sorted(function_lines(path).items()):
            if (path.name, line) in executed:
                continue
            text = source[line - 1].strip()
            key = (path.name, function, text)
            if key in UNRUN:
                listed.add(key)
                print(f"listed    {path.name}:{line} {function}: {text}  ({UNRUN[key]})")
            else:
                failures += 1
                print(f"UNRUN     {path.name}:{line} {function}: {text}")
    for key in sorted(set(UNRUN) - listed):
        failures += 1
        print(f"STALE     {key[0]} {key[1]}: {key[2]}  (runs now, or is gone)")
    print(f"{failures} unlisted or stale, {len(listed)} listed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
