"""The report JSON and the G[4] edge list of the golden corpus match tests/goldens/.

Strings ("p/q" rationals, labels, the edge-list text), ints, bools and nulls
must be equal; floats come from the eigensolver, whose last printed digit
depends on the BLAS, so they match within EIGENVALUE_TOL.  The G[4] edge
lists hold only labels and "p/q" weights and must match byte for byte.
Regenerate with ``python3 tests/record_goldens.py``.
"""

import json

import pytest

from record_goldens import ARGS, GOLDENS, ROOT, WALK_ARGS, golden_inputs, input_path
from ricci_spectrum.cli import EXIT_OK, main
from ricci_spectrum.tolerances import EIGENVALUE_TOL

NAMES = sorted(p.stem for p in GOLDENS.glob("*.json"))


def _mismatch(got, want, where="$"):
    """Path of the first difference between two JSON trees, or None."""
    if isinstance(want, float) and type(got) is float:
        return None if abs(got - want) <= EIGENVALUE_TOL else where
    if type(got) is not type(want):
        return where
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return where
        children = [(got[k], want[k], f"{where}.{k}") for k in want]
    elif isinstance(want, list):
        if len(got) != len(want):
            return where
        children = [(a, b, f"{where}[{i}]") for i, (a, b) in enumerate(zip(got, want))]
    else:
        return None if got == want else where
    for child in children:
        found = _mismatch(*child)
        if found is not None:
            return found
    return None


def test_golden_corpus_is_complete():
    assert NAMES == sorted(golden_inputs())
    assert NAMES == sorted(p.name.removesuffix(".g4.txt") for p in GOLDENS.glob("*.g4.txt"))
    for name, text in golden_inputs().items():
        assert (GOLDENS / f"{name}.edges").read_text(encoding="utf-8") == text


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main([ARGS[0], input_path(name), *ARGS[1:]]) == EXIT_OK
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))
    assert _mismatch(got, want) is None, _mismatch(got, want)


@pytest.mark.parametrize("name", NAMES)
def test_walk_graph_matches_golden(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main([WALK_ARGS[0], input_path(name), *WALK_ARGS[1:]]) == EXIT_OK
    want = (GOLDENS / f"{name}.g4.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want
