"""Record tests/goldens/: the report JSON of a fixed graph corpus.

    python3 tests/record_goldens.py

Writes ``<name>.edges`` (the input, in the edge-list dialect),
``<name>.json`` (the stdout of ``report --format json --t-max 5`` run from
the repository root on ``tests/goldens/<name>.edges``) and ``<name>.g4.txt``
(the stdout of ``neighborhood --t 4``, the exact edge list of G[4]) for
every graph of the golden corpus.  tests/test_goldens.py compares the
program against them.
Regenerate them only when an output is meant to change, and say which one
and why.
"""

import contextlib
import io
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
ARGS = ("report", "--format", "json", "--t-max", "5")
WALK_ARGS = ("neighborhood", "--t", "4")
#: Output file suffix and CLI arguments of each recorded run.
RUNS = {".json": ARGS, ".g4.txt": WALK_ARGS}

#: Members of conftest.random_corpus() recorded next to the named corpus.
RANDOM_PICKS = (0, 1, 2, 3)
#: Seed of the 20-vertex random golden graph.
LADDER_SEED = 20


def golden_inputs() -> dict:
    """Name -> edge-list text of every graph in the golden corpus."""
    from conftest import grid_graph, named_corpus, random_connected_graph, random_corpus
    from ricci_spectrum.cli import format_edge_list

    graphs = named_corpus() + [random_corpus()[i] for i in RANDOM_PICKS]
    # two graphs of ladder size, kept out of named_corpus() so that the
    # full_corpus()[:k] slices of other tests do not shift
    graphs.append(("grid5", grid_graph(5)))
    graphs.append(("random20", random_connected_graph(random.Random(LADDER_SEED), 20, 0.15)))
    texts = {name: format_edge_list(g, [str(v) for v in g.vertices()]) for name, g in graphs}
    texts["loop_only"] = "a a\n"
    return texts


def input_path(name: str) -> str:
    """The relative path each report is run on; the report echoes it."""
    return f"tests/goldens/{name}.edges"


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from ricci_spectrum.cli import main as cli_main

    GOLDENS.mkdir(exist_ok=True)
    for name, text in golden_inputs().items():
        (GOLDENS / f"{name}.edges").write_text(text, encoding="utf-8")
        for suffix, args in RUNS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main([args[0], input_path(name), *args[1:]])
            if code != 0:
                print(f"{name} {args[0]}: exit code {code}", file=sys.stderr)
                return 1
            (GOLDENS / f"{name}{suffix}").write_text(out.getvalue(), encoding="utf-8")
        print(f"{name}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
