"""Line coverage of ``src/spin7ac`` by the test suite, with the standard library only.

Run from anywhere: ``python tests/linecov.py``.  It runs ``pytest tests`` in
this process under ``sys.settrace`` and ``threading.settrace``, takes the
executable lines of each ``src/spin7ac/*.py`` from its code objects
(``co_lines``), and prints per module the unrun and total executable lines,
then the unrun line numbers.  CLI calls the tests make in subprocesses are
not traced.  The traced run is about five times slower than an untraced one.
The file has no ``test_`` prefix, so pytest does not collect it.

It is a gate: it exits 1 when a line is unrun and not excused, or when a
``# pragma: no cover`` gives no reason after it on its line, and 0
otherwise, whatever the tests' own status.  A line is excused when it lies
in a statement (found with ``ast``) whose header carries the pragma: the
whole statement for a simple one, the header and its blocks for a compound
one.  Excused unrun lines print in parentheses.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spin7ac"
PRAGMA = "# pragma: no cover"


def executable_lines(path: Path) -> set[int]:
    """The lines of the module and of every code object nested in it."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def excused_lines(source: str) -> tuple[set[int], list[int]]:
    """The lines excused by a pragma, and the pragma lines that give no reason."""
    lines = source.splitlines()
    marked = {n for n, line in enumerate(lines, 1) if PRAGMA in line}
    bare = sorted(n for n in marked if not lines[n - 1].split(PRAGMA, 1)[1].strip(" -"))
    excused: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            body = getattr(node, "body", None)
            header_end = body[0].lineno - 1 if body else node.end_lineno
            if marked.intersection(range(node.lineno, header_end + 1)):
                excused.update(range(node.lineno, node.end_lineno + 1))
    return excused, bare


def main() -> int:
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None  # no line events outside the package
        lines = hits.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    print(f"\npytest exit status {int(status)}; unrun/total executable lines per module, excused in parentheses:")
    unrun_total = lines_total = 0
    failures = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        excused, bare = excused_lines(path.read_text())
        unrun = sorted(lines - hits.get(str(path), set()))
        unrun_total += len(unrun)
        lines_total += len(lines)
        shown = " ".join(f"({n})" if n in excused else str(n) for n in unrun)
        print(f"{path.name:16} {len(unrun):4}/{len(lines):<5} {shown}")
        failures += [f"{path.name}:{n} unrun" for n in unrun if n not in excused]
        failures += [f"{path.name}:{n} pragma without a reason" for n in bare]
    print(f"{'total':16} {unrun_total:4}/{lines_total}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
