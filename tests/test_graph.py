import math
from fractions import Fraction

import pytest

from ricci_spectrum import (
    UNREACHABLE,
    build_graph,
    is_bipartite,
    neighbor_partition,
    neighborhood_graph,
)
from ricci_spectrum.errors import (
    DisconnectedGraph,
    DuplicateEdge,
    EmptyGraph,
    NonPositiveWeight,
    NotNeighbors,
    SameVertex,
)

from conftest import complete_graph, cycle_graph, full_corpus, petersen_graph


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


def test_bipartite_detection():
    assert is_bipartite(cycle_graph(4))[0] is True
    assert is_bipartite(cycle_graph(5))[0] is False
    assert is_bipartite(complete_graph(3))[0] is False
    assert is_bipartite(build_graph([(0, 0, 1)]))[0] is False  # loop = odd walk
    ok, coloring = is_bipartite(cycle_graph(6))
    assert ok
    assert all(coloring[i] != coloring[(i + 1) % 6] for i in range(6))


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
    assert part.edge_mass_x == part.edge_mass_y == Fraction(1, 2)


def test_partition_triangle_with_loop():
    # adding a loop at vertex 0 lifts d_0 to 3
    g = build_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 0, 1)])
    assert g.degree(0) == 3
    part = neighbor_partition(g, 0, 1)
    assert part.loop_x == Fraction(1, 3)
    assert part.n_xy == {2}


def test_partition_errors():
    c5 = cycle_graph(5)
    with pytest.raises(NotNeighbors):
        neighbor_partition(c5, 0, 2)
    with pytest.raises(SameVertex):
        neighbor_partition(c5, 1, 1)


def test_degree_symmetry_corpus():
    for _, g in full_corpus():
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
                rhs = g.loop_weight(a) / da + sum(
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
