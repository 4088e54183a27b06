"""tools/unrun.py: which statements count as run, given the lines that ran."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unrun.py"
_spec = importlib.util.spec_from_file_location("unrun", TOOL)
unrun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun)

SOURCE = '''"""Module docstring."""
import os


@staticmethod
def f(x):
    """Function docstring."""
    if x: os.sep
    return (
        x
    )
'''


def test_a_statement_runs_when_any_of_its_lines_ran():
    # docstrings are no statements; the decorator's line runs the def
    assert unrun.unrun(SOURCE, {2, 5, 8, 10}) == []
    assert unrun.unrun(SOURCE, {2, 6, 8}) == [(9, "return (")]


def test_a_compound_statement_runs_by_its_header_alone():
    # `if x: os.sep` is one line, so it is both the header and the body
    assert unrun.unrun(SOURCE, {2, 6, 10}) == [(8, "if x: os.sep")]
    assert unrun.unrun(SOURCE, {8, 10}) == [(2, "import os"), (6, "def f(x):")]


def test_every_allowlist_entry_gives_a_reason():
    assert unrun.ALLOWED and all(reason.strip() for reason in unrun.ALLOWED.values())
