import math
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings

from ricci_spectrum import (
    ProbMeasure,
    UNREACHABLE,
    build_graph,
    heat_kernel,
    is_bipartite,
    lazy_graph,
    lower_bound_formula,
    neighbor_partition,
    neighborhood_graph,
    one_step_measure,
    ricci_curvature,
    sharpness_case,
    t_step_measure,
    upper_bound_formula,
)
from ricci_spectrum.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    EmptyGraph,
    NonPositiveWeight,
    NotNeighbors,
    SameVertex,
)
from ricci_spectrum.graph import WeightedGraph, _adjacent_pairs

from conftest import (
    complete_graph,
    cycle_graph,
    full_corpus,
    petersen_graph,
    weighted_graphs,
)


def test_cycle_degrees():
    c5 = cycle_graph(5)
    assert c5.degrees == (Fraction(2),) * 5


def test_triangle_degrees():
    assert complete_graph(3).degrees == (Fraction(2),) * 3


def test_single_loop_vertex():
    g = build_graph([(0, 0, 1)])
    assert g.degree(0) == 1
    assert g.adjacent(0, 0)
    assert g.has_loop(0)


def test_build_rejects_bad_input():
    with pytest.raises(NonPositiveWeight):
        build_graph([(0, 1, -1)])
    with pytest.raises(NonPositiveWeight):
        build_graph([(0, 1, 0)])
    with pytest.raises(DuplicateEdge):
        build_graph([(0, 1, 1), (1, 0, 2)])
    with pytest.raises(EmptyGraph):
        build_graph([])
    with pytest.raises(ValueError):
        build_graph([(0, 2, 1)])  # vertex 1 missing from the dense range
    with pytest.raises(TypeError):
        build_graph([(0, 1, 0.5)])  # floats are not exact
    with pytest.raises(ValueError, match="nonnegative"):
        build_graph([(-1, 0, 1)])


def test_build_rejects_pair_without_weight():
    # only the CLI's edge-list reader fills in a missing weight of 1
    with pytest.raises(ValueError, match="expected 3, got 2"):
        build_graph([(0, 1), (1, 2, 3)])


def test_weight_strings_parse_exactly():
    g = build_graph([(0, 1, "0.25"), (1, 2, "3/4")])
    assert g.weight(0, 1) == Fraction(1, 4)
    assert g.weight(2, 1) == Fraction(3, 4)


def test_hop_distance_pentagon():
    c5 = cycle_graph(5)
    assert c5.distance(0, 2) == 2
    assert all(c5.distance(x, x) == 0 for x in c5.vertices())


def test_loops_do_not_shorten_paths():
    g = build_graph([(0, 0, 5), (0, 1, 1), (1, 2, 1)])
    assert g.distance(0, 2) == 2


def test_unreachable_across_walk_components():
    c4_2 = neighborhood_graph(cycle_graph(4), 2)
    assert c4_2.distance(0, 1) == UNREACHABLE
    assert math.isinf(c4_2.distance(0, 1))


def test_distance_reads_the_cached_table(monkeypatch):
    # transport looks up one distance per cell, so a lookup must not go
    # through distance_matrix once the table is built
    pet = petersen_graph()
    table = pet.distance_matrix()
    calls = []
    build = WeightedGraph.distance_matrix
    monkeypatch.setattr(WeightedGraph, "distance_matrix",
                        lambda self: calls.append(self) or build(self))
    pairs = [(x, y) for x in pet.vertices() for y in pet.vertices()]
    assert [pet.distance(x, y) for x, y in pairs] == [table[x][y] for x, y in pairs]
    assert calls == []


def test_bipartite_detection():
    assert is_bipartite(cycle_graph(4))[0] is True
    assert is_bipartite(cycle_graph(5))[0] is False
    assert is_bipartite(complete_graph(3))[0] is False
    assert is_bipartite(build_graph([(0, 0, 1)]))[0] is False  # loop = odd walk
    ok, coloring = is_bipartite(cycle_graph(6))
    assert ok
    assert all(coloring[i] != coloring[(i + 1) % 6] for i in range(6))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(weighted_graphs(loops=False))
def test_is_bipartite_matches_networkx_property(g):
    ok, coloring = is_bipartite(g)
    assert ok == nx.is_bipartite(nx.Graph([(u, v) for u, v, _ in g.edges()]))
    if ok:
        assert set(coloring) <= {0, 1}
        assert all(coloring[u] != coloring[v] for u, v, _ in g.edges())
    else:
        assert coloring is None


def test_bipartite_requires_connected():
    disconnected = build_graph([(0, 1, 1), (2, 3, 1)])
    with pytest.raises(DisconnectedGraph):
        is_bipartite(disconnected)


def test_validate_connected():
    assert cycle_graph(5).is_connected()
    assert not build_graph([(0, 1, 1), (2, 3, 1)]).is_connected()
    assert not neighborhood_graph(cycle_graph(4), 2).is_connected()


def test_partition_triangle_tie_goes_to_ge():
    part = neighbor_partition(complete_graph(3), 0, 1)
    assert part.n_x_ge_y == {2}  # 1/2 >= 1/2 is a tie
    assert part.n_x_lt_y == frozenset()
    assert part.n_x1 == part.n_y1 == frozenset()


def test_partition_pentagon():
    part = neighbor_partition(cycle_graph(5), 0, 1)
    assert part.n_xy == frozenset()
    assert part.n_x1 == {4}
    assert part.n_y1 == {2}
    assert part.loop_x == part.loop_y == 0
    assert Fraction(part.edge_mass_x, part.den) == Fraction(1, 2)
    assert Fraction(part.edge_mass_y, part.den) == Fraction(1, 2)


def test_partition_triangle_with_loop():
    # adding a loop at vertex 0 lifts d_0 to 3
    g = build_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 0, 1)])
    assert g.degree(0) == 3
    part = neighbor_partition(g, 0, 1)
    assert Fraction(part.loop_x, part.den) == Fraction(1, 3)
    assert part.n_xy == {2}


#: The partition's masses, each an integer numerator over its ``den``.
MASSES = ("loop_x", "loop_y", "edge_mass_x", "edge_mass_y", "common_min", "common_max")


def _partition_reference(g, x, y):
    """The partition of an adjacent pair, written from its definition in Fractions."""
    dx, dy = g.degree(x), g.degree(y)
    nx = set(g.neighbors(x)) - {x, y}
    ny = set(g.neighbors(y)) - {x, y}
    masses = {z: (g.weight(x, z) / dx, g.weight(z, y) / dy) for z in nx & ny}
    return dict(
        n_x1=nx - ny,
        n_y1=ny - nx,
        n_x_ge_y={z for z, (a, b) in masses.items() if a >= b},
        n_x_lt_y={z for z, (a, b) in masses.items() if a < b},
        loop_x=g.weight(x, x) / dx,
        loop_y=g.weight(y, y) / dy,
        edge_mass_x=g.weight(x, y) / dx,
        edge_mass_y=g.weight(x, y) / dy,
        common_min=sum((min(a, b) for a, b in masses.values()), Fraction(0)),
        common_max=sum((max(a, b) for a, b in masses.values()), Fraction(0)),
    )


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(weighted_graphs(loops=True))
def test_partition_matches_fraction_reference_property(g):
    for u, v, _ in g.edges():
        if u == v:
            continue
        for x, y in ((u, v), (v, u)):
            part = neighbor_partition(g, x, y)
            assert all(type(getattr(part, key)) is int for key in ("den", *MASSES))
            reference = _partition_reference(g, x, y)
            got = {key: getattr(part, key) for key in reference}
            got.update((key, Fraction(got[key], part.den)) for key in MASSES)
            assert got == reference


def test_graph_equality_with_other_types_and_repr():
    g = build_graph([(0, 1, 1), (1, 2, 1), (2, 2, Fraction(1, 2))])
    assert g.__eq__(g._rows) is NotImplemented
    assert g != g._rows and g != "graph"
    assert repr(g) == "WeightedGraph(n=3, edges=2, loops=1)"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(weighted_graphs(loops=True))
def test_equal_graphs_compare_and_hash_equal_property(g):
    edges = list(g.edges())
    bare = build_graph([(u, v, w) for u, v, w in edges if u != v])
    g2 = neighborhood_graph(g, 2)
    pairs = [
        # an unreduced ratio string and a Fraction of the same value
        (build_graph([(u, v, f"{2 * w.numerator}/{2 * w.denominator}") for u, v, w in edges]),
         build_graph([(u, v, Fraction(2 * w.numerator, 2 * w.denominator)) for u, v, w in edges])),
        (build_graph(edges), g),
        (neighborhood_graph(g, 1), g),
        # G[2] comes from the walk kernel over s*L, rebuilding it from its weights
        (build_graph(list(g2.edges())), g2),
        (lazy_graph(bare, 0), bare),
        (lazy_graph(bare, Fraction(1, 2)),
         build_graph([*bare.edges(), *((x, x, bare.degree(x)) for x in bare.vertices())])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(weighted_graphs(loops=True))
def test_weight_and_degree_accessors_return_fractions_property(g):
    for h in (g, neighborhood_graph(g, 2)):
        assert all(type(d) is Fraction for d in h.degrees)
        assert all(type(w) is Fraction for _, _, w in h.edges())
        for x in h.vertices():
            assert type(h.degree(x)) is Fraction
            assert all(type(h.weight(x, y)) is Fraction for y in h.vertices())
            items = list(h.neighbor_items(x))
            assert all(type(w) is Fraction for _, w in items)
            assert sum(w for _, w in items) == h.degree(x) == h.degrees[x]
    weight = next(g.edges())[2]
    uniform = build_graph([(u, v, weight) for u, v, _ in g.edges()]).uniform_weight()
    assert type(uniform) is Fraction and uniform == weight


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(weighted_graphs(loops=True))
def test_adjacent_pairs_are_the_distinct_vertex_edges_property(g):
    for h in (g, neighborhood_graph(g, 2)):
        assert list(_adjacent_pairs(h)) == [(u, v) for u, v, _ in h.edges() if u != v]


def test_partition_errors():
    c5 = cycle_graph(5)
    with pytest.raises(NotNeighbors):
        neighbor_partition(c5, 0, 2)
    with pytest.raises(SameVertex):
        neighbor_partition(c5, 1, 1)


@pytest.mark.parametrize("bad", [-1, 5, 7, "0", 1.0])
def test_pair_and_walk_functions_reject_ids_that_are_not_vertices(bad):
    # a negative id used to wrap around to vertex N - 1, one past the end
    # raised IndexError, and a larger id raised NotNeighbors
    c5 = cycle_graph(5)
    calls = (
        lambda: ricci_curvature(c5, 0, bad),
        lambda: ricci_curvature(c5, bad, 0),
        lambda: one_step_measure(c5, bad),
        lambda: t_step_measure(c5, bad, 2),
        lambda: heat_kernel(c5, 2, 0, bad),
        lambda: heat_kernel(c5, 2, bad, 0),
        lambda: lower_bound_formula(c5, bad, 0),
        lambda: upper_bound_formula(c5, 0, bad),
        lambda: neighbor_partition(c5, bad, 0),
        lambda: sharpness_case(c5, 0, bad),
        lambda: ProbMeasure({bad: 1}).pushforward(c5),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_degree_symmetry_corpus():
    for _, g in full_corpus():
        assert all(
            d == sum(dict(g.neighbor_items(x)).values(), Fraction(0))
            for x, d in enumerate(g.degrees)
        )
        total = sum(g.degrees, Fraction(0))
        double = sum(
            (w if u == v else 2 * w for u, v, w in g.edges()), Fraction(0)
        )
        assert total == double


def test_mass_identity_every_adjacent_pair():
    # 1 - w_xy/d_x - sum_{z in N_xy} w_zx/d_x == w_xx/d_x + sum_{z in N_x1} w_zx/d_x
    for _, g in full_corpus():
        for x, y, _ in g.edges():
            if x == y:
                continue
            for a, b in ((x, y), (y, x)):
                part = neighbor_partition(g, a, b)
                da = g.degree(a)
                lhs = 1 - g.weight(a, b) / da - sum(
                    (g.weight(z, a) / da for z in part.n_xy), Fraction(0)
                )
                rhs = g.weight(a, a) / da + sum(
                    (g.weight(z, a) / da for z in part.n_x1), Fraction(0)
                )
                assert lhs == rhs


def test_partition_sets_disjoint_and_exclude_endpoints():
    for _, g in full_corpus():
        for x, y, _ in g.edges():
            if x == y:
                continue
            part = neighbor_partition(g, x, y)
            sets = [part.n_x1, part.n_y1, part.n_x_ge_y, part.n_x_lt_y]
            union = set().union(*sets)
            assert sum(len(s) for s in sets) == len(union)
            assert x not in union and y not in union


def test_hop_metric_axioms_small_graphs():
    for name, g in full_corpus():
        if g.n_vertices > 8:
            continue
        dist = g.distance_matrix()
        n = g.n_vertices
        for x in range(n):
            assert dist[x][x] == 0
            for y in range(n):
                assert dist[x][y] == dist[y][x]
                for z in range(n):
                    assert dist[x][z] <= dist[x][y] + dist[y][z]


def test_petersen_shape():
    pet = petersen_graph()
    assert pet.n_vertices == 10
    assert all(d == 3 for d in pet.degrees)
    assert max(max(row) for row in pet.distance_matrix()) == 2


def test_distance_matrix_matches_networkx_bfs():
    # the frontier-at-a-time BFS against networkx, on connected and split G[2]
    for _, g in full_corpus():
        for h in (g, neighborhood_graph(g, 2)):
            nxg = nx.Graph([(u, v) for u, v, _ in h.edges()])
            lengths = dict(nx.all_pairs_shortest_path_length(nxg))
            assert h.distance_matrix() == tuple(
                tuple(lengths[x].get(y, UNREACHABLE) for y in h.vertices()) for x in h.vertices()
            )
