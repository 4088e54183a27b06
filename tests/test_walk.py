import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_spectrum import (
    ProbMeasure,
    build_graph,
    first_complete_t,
    heat_kernel,
    is_bipartite,
    lazy_graph,
    neighborhood_graph,
    one_step_measure,
    t_step_measure,
)
from ricci_spectrum import walk
from ricci_spectrum.errors import InternalInconsistency, LoopAlreadyPresent
from ricci_spectrum.graph import WeightedGraph

from conftest import (
    complete_graph,
    cycle_graph,
    full_corpus,
    lazy_complete,
    random_corpus,
    weighted_graphs,
)


def _fraction_step(g, mass):
    """y -> sum_v mass(v) w_vy / d_v in Fraction arithmetic: the oracle for P."""
    out = {}
    for v, m in mass.items():
        share = Fraction(m) / g.degree(v)
        for y, w in g.neighbor_items(v):
            out[y] = out.get(y, 0) + share * w
    return out


def _walk_rows(g, t):
    """Rows W_s*M^(t-1) = s*L^(t-1)*W[t] of G[t], and s*L^(t-1).

    Each row takes t-1 products from g's own row: G[t] built from scratch,
    the oracle for the chain that ``neighborhood_graph`` builds.
    """
    big = math.lcm(*g._degrees)
    rows = []
    for row in g._rows:
        for _ in range(t - 1):
            row = walk._times_step(g, row, big)
        rows.append(row)
    return rows, g._scale * big ** (t - 1)


def _scratch_walk_graph(g, t):
    return WeightedGraph(*_walk_rows(g, t))


def test_one_step_pentagon():
    assert one_step_measure(cycle_graph(5), 0) == ProbMeasure(
        {1: Fraction(1, 2), 4: Fraction(1, 2)}
    )


def test_one_step_lazy_complete_is_uniform():
    for n in (3, 5, 8):
        g = lazy_complete(n)
        uniform = ProbMeasure({v: Fraction(1, n) for v in range(n)})
        assert all(one_step_measure(g, x) == uniform for x in range(n))


def test_one_step_single_loop():
    g = build_graph([(0, 0, 1)])
    assert one_step_measure(g, 0) == ProbMeasure({0: Fraction(1)})


def test_two_step_pentagon():
    # hand enumeration: stay with 1/2, reach either 2-hop vertex with 1/4
    assert t_step_measure(cycle_graph(5), 0, 2) == ProbMeasure(
        {0: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
    )


def test_one_step_measure_is_built_once_per_graph():
    for _, g in full_corpus()[:20]:
        n = g.n_vertices
        for x in g.vertices():
            m = one_step_measure(g, x)
            assert one_step_measure(g, x) is m
            assert m == ProbMeasure(_fraction_step(g, {x: 1}))
        # every slot is filled now, so a wrapped index would find a measure
        for bad in (-1, n):
            with pytest.raises(ValueError):
                one_step_measure(g, bad)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_pushforward_matches_fraction_step_property(data):
    # multi-vertex measures, not only point masses, through 1-3 steps
    g = data.draw(weighted_graphs(loops=True))
    support = data.draw(st.lists(st.sampled_from(range(g.n_vertices)), min_size=1, unique=True))
    weights = data.draw(st.lists(st.integers(1, 7), min_size=len(support), max_size=len(support)))
    mass = {v: Fraction(w, sum(weights)) for v, w in zip(support, weights)}
    mu = ProbMeasure(mass)
    for _ in range(data.draw(st.integers(1, 3))):
        mass = _fraction_step(g, mass)
        assert sum(mass.values()) == 1
        mu = mu.pushforward(g)
        assert mu == ProbMeasure(mass)
        assert dict(mu.items()) == mass


def test_prob_measure_checks_masses_exactly():
    with pytest.raises(ValueError, match="negative"):
        ProbMeasure({0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(ValueError, match="sum to exactly 1"):
        ProbMeasure({0: Fraction(1, 2), 1: Fraction(1, 2) - Fraction(1, 2**200)})
    assert ProbMeasure({0: Fraction(1, 3), 1: 0, 2: Fraction(2, 3)}).support == (0, 2)
    # floats are not exact: 0.5 + 0.5 used to pass and 0.1 + 0.9 to fail the sum
    for masses in ({0: 0.5, 1: 0.5}, {0: 0.1, 1: 0.9}, {0: Fraction(1, 2), 1: 0.5}):
        with pytest.raises(TypeError, match="exact"):
            ProbMeasure(masses)


def test_prob_measure_equality_hash_and_repr():
    c5 = cycle_graph(5)
    built = ProbMeasure({1: Fraction(1, 2), 4: Fraction(1, 2)})
    walked = one_step_measure(c5, 0)
    assert built == walked and hash(built) == hash(walked)
    assert built != {1: Fraction(1, 2), 4: Fraction(1, 2)}
    assert (built == "ProbMeasure") is False
    assert repr(built) == "ProbMeasure({1: 1/2, 4: 1/2})"


def test_walk_graph_order_must_be_positive():
    with pytest.raises(ValueError, match="t must be >= 1"):
        neighborhood_graph(cycle_graph(5), 0)


def test_one_step_equals_t1():
    for _, g in full_corpus()[:20]:
        for x in g.vertices():
            assert t_step_measure(g, x, 1) == one_step_measure(g, x)


def test_bipartite_parity_of_supports():
    c4 = cycle_graph(4)
    assert t_step_measure(c4, 0, 2).support == (0, 2)
    assert t_step_measure(c4, 0, 3).support == (1, 3)


def test_pentagon_walk_graph_weights():
    c5 = cycle_graph(5)
    g2 = neighborhood_graph(c5, 2)
    for x in range(5):
        assert g2.weight(x, x) == 1
    two_hop = {(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)}
    assert {(u, v) for u, v, _ in g2.edges() if u != v} == two_hop
    assert all(w == Fraction(1, 2) for u, v, w in g2.edges() if u != v)

    g3 = neighborhood_graph(c5, 3)
    assert all(not g3.has_loop(x) for x in range(5))
    for u, v, w in g3.edges():
        expected = Fraction(3, 4) if c5.adjacent(u, v) else Fraction(1, 4)
        assert w == expected

    g4 = neighborhood_graph(c5, 4)
    for x in range(5):
        assert g4.weight(x, x) == Fraction(3, 4)
    for u, v, w in g4.edges():
        if u == v:
            continue
        assert w == (Fraction(1, 8) if c5.adjacent(u, v) else Fraction(1, 2))


def _dense_transition_power(g, t):
    """P^t as a dense Fraction matrix, P[x][y] = w_xy / d_x."""
    n = g.n_vertices
    p = [[g.weight(x, y) / g.degree(x) for y in range(n)] for x in range(n)]
    power = p
    for _ in range(t - 1):
        power = [
            [sum((power[x][z] * p[z][y] for z in range(n)), Fraction(0)) for y in range(n)]
            for x in range(n)
        ]
    return power


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(weighted_graphs(loops=True))
def test_walk_graph_weights_match_dense_matrix_power_property(g):
    # w_xy[t] = d_x (P^t)_xy exactly; a zero entry is a missing edge
    for t in (1, 2, 3):
        gt = neighborhood_graph(g, t)
        power = _dense_transition_power(g, t)
        for x in g.vertices():
            for y in g.vertices():
                assert gt.weight(x, y) == g.degree(x) * power[x][y]
                assert gt.adjacent(x, y) == (power[x][y] != 0)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(weighted_graphs(loops=True))
def test_walk_kernel_matches_repeated_pushforward_property(g):
    # G[t] row x is d_x times t pushforwards of the point mass at x; G[t]
    # keeps every degree, and d_x P^t(x, y) == d_y P^t(y, x)
    for t in range(1, 5):
        gt = neighborhood_graph(g, t)
        assert gt.degrees == g.degrees
        measures = [t_step_measure(g, x, t) for x in g.vertices()]
        for x in g.vertices():
            mu = ProbMeasure({x: 1})
            for _ in range(t):
                mu = mu.pushforward(g)
            assert measures[x] == mu
            assert dict(gt.neighbor_items(x)) == {y: g.degree(x) * m for y, m in mu.items()}
            for y in g.vertices():
                assert g.degree(x) * measures[x].mass(y) == g.degree(y) * measures[y].mass(x)


def test_order_one_walk_graph_is_the_graph():
    for _, g in full_corpus()[:15]:
        assert neighborhood_graph(g, 1) is g


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(weighted_graphs(loops=True), st.permutations(range(1, 6)))
def test_chained_walk_graphs_match_scratch_builds_property(g, order):
    # each G[t] is chained from G[t-1] and kept, in whatever order t is asked for
    built = {}
    for t in order:
        built[t] = neighborhood_graph(g, t)
        assert built[t] == _scratch_walk_graph(g, t)
    for t in order:
        assert neighborhood_graph(g, t) is built[t]
    assert built[1] is g


def test_degrees_preserved_exactly():
    for _, g in full_corpus():
        for t in range(1, 7):
            assert neighborhood_graph(g, t).degrees == g.degrees


def test_walk_reversibility():
    # d_x * P^t(x, y) == d_y * P^t(y, x), straight from the measures
    for _, g in full_corpus()[:15]:
        for t in (1, 2, 3):
            measures = [t_step_measure(g, x, t) for x in g.vertices()]
            for x in g.vertices():
                for y in g.vertices():
                    lhs = measures[x].mass(y) * g.degree(x)
                    rhs = measures[y].mass(x) * g.degree(y)
                    assert lhs == rhs


def test_walk_support_matches_boolean_matrix_power():
    rng = random.Random(7)
    for _, g in random_corpus()[:12]:
        n = g.n_vertices
        adj = np.zeros((n, n), dtype=bool)
        for u, v, _ in g.edges():
            adj[u, v] = adj[v, u] = True
        power = adj.copy()
        for t in range(1, 6):
            if t > 1:
                power = (power.astype(int) @ adj.astype(int)) > 0
            for x in range(n):
                assert set(t_step_measure(g, x, t).support) == set(np.nonzero(power[x])[0])


def test_connectivity_transfer_laws():
    for _, g in full_corpus():
        bipartite, _ = is_bipartite(g)
        for t in range(1, 7):
            gt = neighborhood_graph(g, t)
            if bipartite:
                if t % 2 == 0:
                    assert not gt.is_connected()
                else:
                    assert gt.is_connected()
                    assert is_bipartite(gt)[0]
            else:
                assert gt.is_connected()


def test_even_walk_graph_never_bipartite():
    for _, g in full_corpus()[:20]:
        gt = neighborhood_graph(g, 2)
        if gt.is_connected():
            assert is_bipartite(gt)[0] is False
        else:
            # every vertex carries a loop, an odd closed walk per component
            assert all(gt.has_loop(x) for x in gt.vertices())


def test_heat_kernel_values():
    c5 = cycle_graph(5)
    assert heat_kernel(c5, 2, 0, 0) == Fraction(1, 4)
    assert heat_kernel(c5, 2, 0, 1) == 0  # no 2-walk between neighbors
    k2 = complete_graph(2)
    assert heat_kernel(k2, 1, 0, 1) == 1


def test_heat_kernel_symmetric():
    for _, g in full_corpus()[:15]:
        n = g.n_vertices
        for t in (1, 2, 3):
            for x in range(n):
                for y in range(x, n):
                    assert heat_kernel(g, t, x, y) == heat_kernel(g, t, y, x)


def test_lazy_graph_uniform_walk():
    for n in (3, 5):
        lazy = lazy_graph(complete_graph(n), Fraction(1, n))
        assert lazy.weight(0, 0) == 1
        uniform = ProbMeasure({v: Fraction(1, n) for v in range(n)})
        assert one_step_measure(lazy, 0) == uniform


def test_lazy_graph_zero_laziness_is_identity():
    c5 = cycle_graph(5)
    assert lazy_graph(c5, 0) == c5


def test_lazy_edge_half():
    g = lazy_graph(complete_graph(2), Fraction(1, 2))
    assert one_step_measure(g, 0) == ProbMeasure({0: Fraction(1, 2), 1: Fraction(1, 2)})


def test_lazy_graph_rejects_loops():
    with pytest.raises(LoopAlreadyPresent):
        lazy_graph(build_graph([(0, 0, 1), (0, 1, 1)]), Fraction(1, 2))


def test_lazy_graph_rejects_bad_probability():
    with pytest.raises(ValueError, match=r"laziness must lie in \[0, 1\), got 1$"):
        lazy_graph(complete_graph(2), 1)
    with pytest.raises(ValueError, match=r"laziness must lie in \[0, 1\), got -1/2$"):
        lazy_graph(complete_graph(2), Fraction(-1, 2))


def test_first_complete_t():
    assert first_complete_t(cycle_graph(5), 16) == 4
    assert first_complete_t(complete_graph(3), 16) == 2
    assert first_complete_t(cycle_graph(4), 16) is None
    assert first_complete_t(cycle_graph(5), 3) is None  # budget too small
    assert first_complete_t(lazy_complete(4), 16) == 1


def test_first_complete_t_matches_boolean_oracle():
    for _, g in random_corpus()[:10]:
        n = g.n_vertices
        adj = np.zeros((n, n), dtype=bool)
        for u, v, _ in g.edges():
            adj[u, v] = adj[v, u] = True
        expected = None
        power = np.eye(n, dtype=bool)
        for t in range(1, 13):
            power = (power.astype(int) @ adj.astype(int)) > 0
            if power.all():
                expected = t
                break
        assert first_complete_t(g, 12) == expected


_NEXT_ROWS = walk._next_rows


def _support_fault(g, prev):
    """Stays put: for t >= 2 on a cycle the support misses reachable vertices."""
    rows, scale = _NEXT_ROWS(g, prev)
    return [{x: sum(row.values())} for x, row in enumerate(rows)], scale


def _symmetry_fault(g, prev):
    """Right support and row sums, but one unit moves from the last vertex to the first."""
    rows, scale = _NEXT_ROWS(g, prev)
    faulty = []
    for row in rows:
        row = {y: 2 * w for y, w in row.items()}
        row[min(row)] += 1
        row[max(row)] -= 1
        faulty.append(row)
    return faulty, 2 * scale


def _mass_fault(g, prev):
    """Right support and symmetric, but every row sums to twice its degree."""
    rows, scale = _NEXT_ROWS(g, prev)
    return [{y: 2 * w for y, w in row.items()} for row in rows], scale


def _late_mass_fault(g, prev):
    """The step to G[2] is right; every later step doubles the row sums."""
    return _NEXT_ROWS(g, prev) if prev is g else _mass_fault(g, prev)


#: fault name -> (chain step, the first level t it corrupts)
FAULTS = {
    "mass": (_mass_fault, 2),
    "support": (_support_fault, 2),
    "symmetry": (_symmetry_fault, 2),
    "late_mass": (_late_mass_fault, 3),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_walk_graph_consistency_checks_raise(fault, monkeypatch):
    step, t = FAULTS[fault]
    g = cycle_graph(5)
    monkeypatch.setattr(walk, "_next_rows", step)
    # the levels before the faulty one pass their checks and are kept
    good = [neighborhood_graph(g, s) for s in range(2, t)]
    with pytest.raises(InternalInconsistency):
        neighborhood_graph(g, t)
    # the failed level was not kept: without the fault it builds right
    monkeypatch.undo()
    assert all(neighborhood_graph(g, s) is gs for s, gs in zip(range(2, t), good))
    assert neighborhood_graph(g, t) == _scratch_walk_graph(g, t)


def test_walk_graph_consistency_checks_survive_optimize():
    # the same test under python -O, where assert statements are stripped
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTEST_DISABLE_PLUGIN_AUTOLOAD="1",  # the test needs no plugin; they load slowly
    )
    # pytest warns that -O strips asserts, which is the point here; the
    # filterwarnings = ["error"] setting would turn that warning into a failure
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "ignore:assertions not in test modules:pytest.PytestConfigWarning",
         f"{__file__}::test_walk_graph_consistency_checks_raise"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"{len(FAULTS)} passed" in result.stdout
