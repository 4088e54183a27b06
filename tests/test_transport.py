import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ricci_spectrum import (
    TransportPlan,
    dual_certificate,
    neighborhood_graph,
    one_step_measure,
    verify_plan,
    wasserstein,
)
from ricci_spectrum.errors import InfiniteDistance, UnbalancedMeasures

from conftest import (
    complete_graph,
    cycle_graph,
    enumerate_transport_optimum,
    full_corpus,
    random_corpus,
    random_measure,
)


def test_identical_measures_have_identity_plan():
    c5 = cycle_graph(5)
    mu = one_step_measure(c5, 0)
    cost, plan = wasserstein(c5.distance, mu, mu)
    assert cost == 0
    assert plan.entries == {(v, v): m for v, m in mu.items()}


def test_pentagon_neighbor_cost_is_one():
    c5 = cycle_graph(5)
    cost, plan = wasserstein(
        c5.distance, one_step_measure(c5, 0), one_step_measure(c5, 1)
    )
    assert cost == 1
    assert verify_plan(plan, one_step_measure(c5, 0), one_step_measure(c5, 1), c5.distance)


def test_single_atom_swap():
    k2 = complete_graph(2)
    cost, plan = wasserstein(k2.distance, {1: Fraction(1)}, {0: Fraction(1)})
    assert cost == 1
    assert plan.entries == {(1, 0): Fraction(1)}


def test_verify_plan_rejects_perturbation():
    c5 = cycle_graph(5)
    mu, nu = one_step_measure(c5, 0), one_step_measure(c5, 1)
    cost, plan = wasserstein(c5.distance, mu, nu)
    assert verify_plan(plan, mu, nu, c5.distance)
    entries = dict(plan.entries)
    key = next(iter(entries))
    entries[key] += Fraction(1, 1000)
    assert not verify_plan(TransportPlan(entries=entries, cost=plan.cost), mu, nu, c5.distance)
    assert not verify_plan(TransportPlan(entries={}, cost=Fraction(0)), mu, nu, c5.distance)


def test_unbalanced_rejected():
    c5 = cycle_graph(5)
    with pytest.raises(UnbalancedMeasures):
        wasserstein(c5.distance, {0: Fraction(1)}, {1: Fraction(1, 2)})
    # an unbalanced pair must not get a certificate either
    with pytest.raises(UnbalancedMeasures):
        dual_certificate(c5.distance, {0: Fraction(1, 2)}, {1: Fraction(1)}, Fraction(1))


def test_zero_mass_measures_cost_nothing():
    c5 = cycle_graph(5)
    for mu, nu in (({}, {}), ({0: 0}, {1: 0})):
        cost, plan = wasserstein(c5.distance, mu, nu)
        assert cost == 0 and isinstance(cost, Fraction)
        assert plan == TransportPlan(entries={}, cost=Fraction(0))
        assert dual_certificate(c5.distance, mu, nu, cost).potential == {}


def test_split_supports_rejected():
    disconnected_metric = lambda u, v: float("inf") if (u < 2) != (v < 2) else 1
    with pytest.raises(InfiniteDistance):
        wasserstein(disconnected_metric, {0: Fraction(1)}, {2: Fraction(1)})


def test_dual_certificate_pentagon():
    c5 = cycle_graph(5)
    mu, nu = one_step_measure(c5, 0), one_step_measure(c5, 1)
    cost, _ = wasserstein(c5.distance, mu, nu)
    cert = dual_certificate(c5.distance, mu, nu, cost)
    value = sum(cert.potential[v] * m for v, m in mu.items()) - sum(
        cert.potential[v] * m for v, m in nu.items()
    )
    assert value == cost
    # the hand-checkable potential f(v1)=f(v4)=1, f(v0)=f(v2)=0 also reaches it
    hand = {1: 1, 4: 1, 0: 0, 2: 0}
    pairs = [(a, b) for a in hand for b in hand]
    assert all(abs(hand[a] - hand[b]) <= c5.distance(a, b) for a, b in pairs)
    assert sum(hand[v] * m for v, m in mu.items()) - sum(hand[v] * m for v, m in nu.items()) == 1


def test_dual_certificate_equal_measures():
    c5 = cycle_graph(5)
    mu = one_step_measure(c5, 2)
    cert = dual_certificate(c5.distance, mu, mu, Fraction(0))
    gap = sum(cert.potential[v] * m for v, m in mu.items()) - sum(
        cert.potential[v] * m for v, m in mu.items()
    )
    assert gap == 0
    # the zero potential is itself a valid certificate here
    assert all(0 <= c5.distance(a, b) for a in mu.support for b in mu.support)


def test_dual_certificate_k2():
    k2 = complete_graph(2)
    cert = dual_certificate(k2.distance, {1: Fraction(1)}, {0: Fraction(1)}, Fraction(1))
    assert cert.potential[1] - cert.potential[0] == 1


def _random_instance(rng):
    graphs = random_corpus()
    _, g = graphs[rng.randrange(len(graphs))]
    mu = random_measure(rng, g.vertices(), 4)
    nu = random_measure(rng, g.vertices(), 4)
    return g, mu, nu


def test_simplex_matches_polytope_enumeration():
    rng = random.Random(99)
    for _ in range(40):
        g, mu, nu = _random_instance(rng)
        cost, plan = wasserstein(g.distance, mu, nu)
        assert verify_plan(plan, mu, nu, g.distance)
        assert cost == enumerate_transport_optimum(g.distance, mu, nu)
        dual_certificate(g.distance, mu, nu, cost)  # raises on any gap


def test_triangle_inequality_random_triples():
    rng = random.Random(31)
    for _ in range(30):
        graphs = random_corpus()
        _, g = graphs[rng.randrange(len(graphs))]
        mu = random_measure(rng, g.vertices(), 4)
        nu = random_measure(rng, g.vertices(), 4)
        rho = random_measure(rng, g.vertices(), 4)
        d_mu_nu, _ = wasserstein(g.distance, mu, nu)
        d_nu_rho, _ = wasserstein(g.distance, nu, rho)
        d_mu_rho, _ = wasserstein(g.distance, mu, rho)
        assert d_mu_rho <= d_mu_nu + d_nu_rho


def test_cost_scales_linearly_with_the_metric():
    rng = random.Random(13)
    for _ in range(20):
        g, mu, nu = _random_instance(rng)
        cost, _ = wasserstein(g.distance, mu, nu)
        doubled, _ = wasserstein(lambda u, v: 2 * g.distance(u, v), mu, nu)
        assert doubled == 2 * cost


def _network_simplex_cost(metric, mu, nu):
    """W_1 from networkx's network simplex on the measures scaled to integers."""
    scale = math.lcm(*(m.denominator for m in [*mu.values(), *nu.values()]))
    flow = nx.DiGraph()
    for u, m in mu.items():
        flow.add_node(("s", u), demand=-int(m * scale))
    for v, m in nu.items():
        flow.add_node(("t", v), demand=int(m * scale))
    for u in mu:
        for v in nu:
            flow.add_edge(("s", u), ("t", v), weight=int(metric(u, v)))
    cost, _ = nx.network_simplex(flow)
    return Fraction(cost, scale)


def test_walk_graph_edges_match_network_simplex():
    # G[2] and G[3] are dense, so their one-step measures span most of the
    # graph and the simplex needs many pivots
    solves = 0
    for _, g in full_corpus():
        if g.n_vertices < 6:
            continue
        for t in (2, 3):
            gt = neighborhood_graph(g, t)
            for u, v, _ in gt.edges():
                if u == v:
                    continue
                mu = dict(one_step_measure(gt, u).items())
                nu = dict(one_step_measure(gt, v).items())
                cost, plan = wasserstein(gt.distance, mu, nu)
                assert cost == _network_simplex_cost(gt.distance, mu, nu)
                assert verify_plan(plan, mu, nu, gt.distance)
                dual_certificate(gt.distance, mu, nu, cost)  # raises on any gap
                solves += 1
    assert solves > 500


# distinct Mersenne primes: any two of them multiply to more than 2**64
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1)


@st.composite
def big_denominator_pairs(draw):
    """Balanced plain mappings on <= 3 atoms each, total mass not 1.

    Every mu atom has its own large prime denominator; nu spreads mu's total
    over weights with further primes, so the LCM of all denominators is huge.
    """
    graphs = [g for _, g in full_corpus() if g.n_vertices >= 3]
    g = draw(st.sampled_from(graphs))
    vertices = sorted(g.vertices())
    primes = draw(st.permutations(BIG_PRIMES))
    sources = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=3, unique=True))
    sinks = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True))
    numerators = st.integers(1, 10**6)
    mu = {v: Fraction(draw(numerators), p) for v, p in zip(sources, primes)}
    weights = {v: Fraction(draw(numerators), p) for v, p in zip(sinks, primes[3:])}
    total = sum(mu.values())
    nu = {v: w * total / sum(weights.values()) for v, w in weights.items()}
    return g, mu, nu


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(big_denominator_pairs())
def test_integer_simplex_on_huge_denominators(instance):
    g, mu, nu = instance
    assert sum(mu.values()) != 1
    assert math.lcm(*(q.denominator for q in [*mu.values(), *nu.values()])) > 2**64
    cost, plan = wasserstein(g.distance, mu, nu)
    assert cost == _network_simplex_cost(g.distance, mu, nu)
    assert cost == enumerate_transport_optimum(g.distance, mu, nu)
    reverse, _ = wasserstein(g.distance, nu, mu)
    assert reverse == cost
    assert verify_plan(plan, mu, nu, g.distance)
    cert = dual_certificate(g.distance, mu, nu, cost)
    dual_value = sum(cert.potential[v] * m for v, m in mu.items()) - sum(
        cert.potential[v] * m for v, m in nu.items()
    )
    assert dual_value == cost
    assert isinstance(cost, Fraction) and isinstance(plan.cost, Fraction)
    assert all(isinstance(q, Fraction) for q in plan.entries.values())
    assert all(isinstance(f, Fraction) for f in cert.potential.values())
