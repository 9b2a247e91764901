"""Line coverage of ``src/spin7ac`` by the test suite, with the standard library only.

Run from anywhere: ``python tests/linecov.py``.  It runs ``pytest tests`` in
this process under ``sys.settrace`` and ``threading.settrace``, takes the
executable lines of each ``src/spin7ac/*.py`` from its code objects
(``co_lines``), and prints per module the unrun and total executable lines,
then the unrun line numbers.  CLI calls the tests make in subprocesses are
not traced.  It exits 0 whatever the tests do; the traced run is about five
times slower than an untraced one.  The file has no ``test_`` prefix, so
pytest does not collect it.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spin7ac"


def executable_lines(path: Path) -> set[int]:
    """The lines of the module and of every code object nested in it."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


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

    print(f"\npytest exit status {int(status)}; unrun/total executable lines per module:")
    unrun_total = lines_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - hits.get(str(path), set()))
        unrun_total += len(unrun)
        lines_total += len(lines)
        print(f"{path.name:16} {len(unrun):4}/{len(lines):<5} {' '.join(map(str, unrun))}")
    print(f"{'total':16} {unrun_total:4}/{lines_total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
