"""List the statements of the ricci_spectrum package that no test or demo runs.

Usage, from anywhere:

    python tools/unrun.py

Runs the tier-1 tests (pytest on tests/, in this process) and then every
demo under demos/ with a ``sys.settrace`` line tracer on, and prints
``file:line: statement`` for each statement of src/ricci_spectrum/ that
never ran.  A statement counts as run when any line of it ran; for a
compound statement (def, if, for, ...) only its header lines count, and
its body's statements are judged one by one.  Docstrings are not
statements here.

Exits 1 when a statement that is not in ALLOWED never ran, or when the
tests or a demo fail, and 0 otherwise.  Apart from pytest, which runs the
tests, it uses the standard library only.  Tracing makes tier-1 about three
times slower.  Every hypothesis test is derandomized, so the result does
not change from run to run.
"""

from __future__ import annotations

import ast
import contextlib
import io
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ricci_spectrum"

#: (file name, statement source) -> why it may stay unrun
ALLOWED = {
    ("cli.py", "sys.exit(main())"): (
        "the __main__ guard runs only under `python -m ricci_spectrum.cli`; "
        "the tests call main() in process"
    ),
}


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source: str) -> list:
    """(first line, lines that count as running it) of each statement."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        if body:
            # a header ends where its body starts; `if x: y` on one line keeps its own line
            lines = range(start, max(body[0].lineno, start + 1))
        else:
            lines = range(start, node.end_lineno + 1)
        found.append((node.lineno, lines))
    return found


def unrun(source: str, ran: set) -> list:
    """(line, its source) of each line where a statement starts none of whose lines ran.

    Sorted by line; two statements on one line, as in `if x: y`, give one entry.
    """
    text = source.splitlines()
    starts = {line for line, lines in statements(source) if ran.isdisjoint(lines)}
    return [(line, text[line - 1].strip()) for line in sorted(starts)]


def _trace(ran: dict):
    """A settrace function recording the lines that run in the package's files."""
    prefix = str(PACKAGE)

    def on_line(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(prefix) else None

    return on_call


def _run_all() -> bool:
    """Tier-1 and the demos, in this process; whether all of them passed."""
    import pytest

    ok = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]) == 0
    for demo in sorted((ROOT / "demos").glob("*.py")):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
        except Exception as exc:  # noqa: BLE001 - reported, and the run fails
            print(f"{demo.relative_to(ROOT)} failed: {exc!r}")
            ok = False
    return ok


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    ran: dict = {}
    tracer = _trace(ran)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        passed = _run_all()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    failing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, statement in unrun(path.read_text(), ran.get(str(path), set())):
            reason = ALLOWED.get((path.name, statement))
            note = f"  (allowed: {reason})" if reason else ""
            print(f"{path.relative_to(ROOT)}:{line}: {statement}{note}")
            failing += reason is None
    print(f"{failing} unrun statement(s) outside the allowlist")
    if not passed:
        print("the tests or a demo failed")
    return 1 if failing or not passed else 0


if __name__ == "__main__":
    sys.exit(main())
