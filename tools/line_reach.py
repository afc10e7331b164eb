"""Which lines of ``src/ldpvec`` the tier-1 suite never executes.

    PYTHONPATH=src python tools/line_reach.py [pytest arguments]

Runs pytest in this process (by default on ``tests/``, the tier-1 suite) under a line tracer installed with
``sys.settrace`` and ``threading.settrace``, so the hit-count workers' lines count too, and limited to the files of
``src/ldpvec``.  It then prints every line of the package that carries bytecode (every code object's lines, from
``co_lines``) and never ran, and exits 1 if any is left but the body of a module's ``if __name__ == "__main__":``
guard, else 0.  The test outcomes do not change the exit status: a failing test still runs its lines.  Lines run
only in a child process (a CLI test that starts a fresh interpreter) are not seen.  Tracing roughly doubles the
suite's time.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ldpvec"


def code_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it that carry an instruction."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def main_guard_lines(tree: ast.Module) -> set[int]:
    """The lines of a module's ``if __name__ == "__main__":`` guards, which run only as a script."""
    return {
        line
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("__name__ == '__main__'", "'__main__' == __name__")
        for line in range(node.lineno, node.end_lineno + 1)
    }


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    by_code_file: dict[str, set[int] | None] = {}  # a code object's file name, as imported, to its file's lines

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_code_file:
            by_code_file[name] = ran.get(str(Path(name).resolve()))
        seen = by_code_file[name]
        if seen is None:
            return None  # no line events outside the package

        def lines(frame, event, arg):
            if event in ("call", "line"):
                seen.add(frame.f_lineno)
            return lines

        return lines(frame, event, arg)

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, path in files.items():
        source = path.read_text()
        guard = main_guard_lines(ast.parse(source))
        text = source.splitlines()
        for line in sorted(code_lines(compile(source, name, "exec")) - ran[name]):
            if line not in guard:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missed} line(s) of src/ldpvec never executed (pytest exit status {int(status)})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
