from fractions import Fraction

import pytest
from hypothesis import given, settings

from ricci_spectrum import (
    build_graph,
    global_lower_bound,
    lower_bound_formula,
    neighbor_partition,
    neighborhood_graph,
    ricci_curvature,
    sharpness_case,
    unweighted_terms,
    upper_bound_formula,
)
from ricci_spectrum.errors import InfiniteDistance, NotNeighbors, SameVertex

from conftest import (
    complete_graph,
    cycle_graph,
    full_corpus,
    lazy_complete,
    petersen_graph,
    weighted_graphs,
)


def _distinct_edges(g):
    return [(u, v) for u, v, _ in g.edges() if u != v]


def test_complete_graph_curvature():
    for n in (3, 5, 8):
        g = complete_graph(n)
        expected = Fraction(n - 2, n - 1)
        assert all(ricci_curvature(g, u, v).kappa == expected for u, v in _distinct_edges(g))


def test_lazy_complete_curvature_is_one():
    for n in (3, 5):
        g = lazy_complete(n)
        assert all(ricci_curvature(g, u, v).kappa == 1 for u, v in _distinct_edges(g))


def test_pentagon_curvature_is_zero():
    c5 = cycle_graph(5)
    assert all(ricci_curvature(c5, u, v).kappa == 0 for u, v in _distinct_edges(c5))


def test_curvature_errors():
    c5 = cycle_graph(5)
    with pytest.raises(SameVertex):
        ricci_curvature(c5, 2, 2)
    split = build_graph([(0, 1, 1), (2, 3, 1)])
    with pytest.raises(InfiniteDistance):
        ricci_curvature(split, 0, 2)
    with pytest.raises(NotNeighbors):
        lower_bound_formula(c5, 0, 2)
    with pytest.raises(NotNeighbors):
        upper_bound_formula(c5, 0, 2)


def test_triangle_formula_values():
    k3 = complete_graph(3)
    case = sharpness_case(k3, 0, 1)
    assert case.a_xy == case.b_xy == Fraction(-1, 2)
    assert case.lower_k == Fraction(1, 2) == ricci_curvature(k3, 0, 1).kappa
    assert upper_bound_formula(k3, 0, 1) == Fraction(1, 2)


def test_edge_formula_values():
    k2 = complete_graph(2)
    case = sharpness_case(k2, 0, 1)
    assert case.a_xy == case.b_xy == Fraction(-1)
    assert case.lower_k == 0 == ricci_curvature(k2, 0, 1).kappa
    assert upper_bound_formula(k2, 0, 1) == 0


def test_lazy_complete_formulas_sharp():
    for n in (3, 5, 8):
        g = lazy_complete(n)
        assert lower_bound_formula(g, 0, 1) == 1
        assert upper_bound_formula(g, 0, 1) == 1


def test_pentagon_upper_is_empty_sum():
    assert upper_bound_formula(cycle_graph(5), 0, 1) == 0


def test_global_bound_walk_graph_goldens():
    c5 = cycle_graph(5)
    assert global_lower_bound(c5) == 0
    assert global_lower_bound(neighborhood_graph(c5, 2)) == Fraction(1, 4)
    assert global_lower_bound(neighborhood_graph(c5, 3)) == Fraction(3, 8)
    assert global_lower_bound(neighborhood_graph(c5, 4)) == Fraction(1, 2)


def test_global_bound_without_distinct_edges_is_none():
    assert global_lower_bound(build_graph([(0, 0, 1)])) is None


def test_sharpness_cases():
    k3 = sharpness_case(complete_graph(3), 0, 1)
    assert k3.case == "B<0" and k3.conditions_hold and k3.equality

    c5 = sharpness_case(cycle_graph(5), 0, 1)
    # A = B = 0; the distance-3 requirement between the one-sided sets fails
    # in a pentagon, yet the bound still happens to be attained
    assert c5.case == "A>=0"
    assert not c5.conditions_hold
    assert c5.equality and c5.lower_k == 0

    lazy = sharpness_case(lazy_complete(5), 0, 1)
    assert lazy.conditions_hold and lazy.equality and lazy.lower_k == 1

    pet = sharpness_case(petersen_graph(), 0, 1)
    assert pet.case == "A>=0"
    assert not pet.conditions_hold
    assert not pet.equality
    assert pet.lower_k == Fraction(-2, 3)
    assert ricci_curvature(petersen_graph(), 0, 1).kappa == Fraction(-1, 3)


def test_sandwich_and_conditions_imply_equality_corpus():
    for _, g in full_corpus():
        for u, v in _distinct_edges(g):
            case = sharpness_case(g, u, v)
            kappa = ricci_curvature(g, u, v).kappa
            assert case.lower_k <= kappa <= case.upper
            assert case.a_xy <= case.b_xy
            assert -2 <= kappa <= 1
            if case.conditions_hold:
                assert case.equality and case.lower_k == kappa
            assert case.equality == (case.lower_k == kappa)


def test_positive_curvature_needs_triangle_or_loop():
    for _, g in full_corpus():
        for u, v in _distinct_edges(g):
            if ricci_curvature(g, u, v).kappa > 0:
                part = neighbor_partition(g, u, v)
                has_support = part.n_xy or g.has_loop(u) or g.has_loop(v)
                assert has_support


def test_loop_free_reduction():
    # with no loops the bound reduces to the loop-term-free expression
    for _, g in full_corpus():
        if any(g.has_loop(x) for x in g.vertices()):
            continue
        for u, v in _distinct_edges(g):
            part = neighbor_partition(g, u, v)
            assert part.loop_x == part.loop_y == 0 < part.den
            du, dv = g.degree(u), g.degree(v)
            s_min = sum(
                (min(g.weight(u, z) / du, g.weight(z, v) / dv) for z in part.n_xy),
                Fraction(0),
            )
            s_max = sum(
                (max(g.weight(u, z) / du, g.weight(z, v) / dv) for z in part.n_xy),
                Fraction(0),
            )
            shared = 1 - g.weight(u, v) / du - g.weight(u, v) / dv
            loop_free = (
                -max(shared - s_max, Fraction(0))
                - max(shared - s_min, Fraction(0))
                + s_min
            )
            assert lower_bound_formula(g, u, v) == loop_free


def test_unweighted_terms_match_general_formula():
    for g in (cycle_graph(5), complete_graph(5), lazy_complete(4), petersen_graph()):
        w = g.uniform_weight()
        for u, v, _ in g.edges():
            if u == v:
                continue
            terms = unweighted_terms(g, u, v)
            assert terms is not None
            # the docstring's triangle/loop form, from the counts alone
            tri = Fraction(terms["triangles"])
            nx, ny = g.degree(u) / w, g.degree(v) / w
            lo, hi = min(nx, ny), max(nx, ny)
            value = (
                -max(1 - 1 / nx - 1 / ny - tri / lo, Fraction(0))
                - max(1 - 1 / nx - 1 / ny - tri / hi, Fraction(0))
                + tri / hi
                + terms["loop_x"] / nx
                + terms["loop_y"] / ny
            )
            assert value == lower_bound_formula(g, u, v)


def test_unweighted_terms_none_for_weighted():
    g = build_graph([(0, 1, 1), (1, 2, "1/2")])
    assert unweighted_terms(g, 0, 1) is None


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(weighted_graphs())
def test_formula_bounds_sandwich_kappa_property(g):
    for x, y in _distinct_edges(g):
        lower = lower_bound_formula(g, x, y)
        upper = upper_bound_formula(g, x, y)
        assert lower <= ricci_curvature(g, x, y).kappa <= upper
        case = sharpness_case(g, x, y)
        assert (case.lower_k, case.upper) == (lower, upper)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(weighted_graphs(loops=True))
def test_closed_forms_match_module_docstring_property(g):
    # A, B, lower and upper as curvature's module docstring writes them,
    # from direct sums of w/d over the common neighbors
    for x, y in _distinct_edges(g):
        dx, dy = g.degree(x), g.degree(y)
        common = (set(g.neighbors(x)) & set(g.neighbors(y))) - {x, y}
        masses = [(g.weight(z, x) / dx, g.weight(z, y) / dy) for z in common]
        s_min = sum((min(pair) for pair in masses), Fraction(0))
        s_max = sum((max(pair) for pair in masses), Fraction(0))
        shared = 1 - g.weight(x, y) / dx - g.weight(x, y) / dy
        a, b = shared - s_max, shared - s_min
        lower = (
            -max(a, Fraction(0))
            - max(b, Fraction(0))
            + s_min
            + g.weight(x, x) / dx
            + g.weight(y, y) / dy
        )
        upper = sum(
            (min(g.weight(z, x) / dx, g.weight(z, y) / dy) for z in {x, y} | common),
            Fraction(0),
        )
        assert lower_bound_formula(g, x, y) == lower
        assert upper_bound_formula(g, x, y) == upper
        case = sharpness_case(g, x, y)
        assert (case.a_xy, case.b_xy) == (a, b)
