import math
import pickle
import random
from fractions import Fraction
from operator import mul

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from ricci_spectrum import (
    ProbMeasure,
    TransportPlan,
    dual_certificate,
    neighborhood_graph,
    one_step_measure,
    ricci_curvature,
    verify_plan,
    wasserstein,
)
from ricci_spectrum import transport
from ricci_spectrum.cli import parse_edge_list
from ricci_spectrum.errors import CertificateGapNonzero, InfiniteDistance, InternalInconsistency
from ricci_spectrum.transport import (
    _leftover,
    _least_cost,
    _max_flow,
    _reach,
    _solve_transportation,
)

from conftest import (
    SOLVER_FAULTS,
    complete_graph,
    cycle_graph,
    enumerate_transport_optimum,
    faulty_solver,
    full_corpus,
    random_corpus,
    random_measure,
    weighted_graphs,
)
from record_goldens import golden_inputs


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
    cost, plan = wasserstein(k2.distance, ProbMeasure({1: 1}), ProbMeasure({0: 1}))
    assert cost == 1
    assert plan.entries == {(1, 0): Fraction(1)}
    assert repr(plan.entries) == "{(1, 0): Fraction(1, 1)}"


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


def test_verify_plan_rejects_negative_and_unreachable_entries():
    # marginals and cost add up; only the sign of two entries is wrong
    half = ProbMeasure({0: Fraction(1, 2), 1: Fraction(1, 2)})
    entries = {(0, 0): 1, (0, 1): Fraction(-1, 2), (1, 0): Fraction(-1, 2), (1, 1): 1}
    plan = TransportPlan(entries, Fraction(-1))
    assert not verify_plan(plan, half, half, cycle_graph(5).distance)
    unreachable = lambda u, v: math.inf if u != v else 0
    plan = TransportPlan({(0, 1): Fraction(1)}, Fraction(1))
    assert not verify_plan(plan, ProbMeasure({0: 1}), ProbMeasure({1: 1}), unreachable)


def test_only_prob_measures_are_transported():
    c5 = cycle_graph(5)
    mu, plain = one_step_measure(c5, 0), {1: Fraction(1)}
    _, plan = wasserstein(c5.distance, mu, mu)
    for call in (
        lambda: wasserstein(c5.distance, mu, plain),
        lambda: wasserstein(c5.distance, plain, mu),
        lambda: dual_certificate(c5.distance, plain, mu, Fraction(1)),
        lambda: verify_plan(plan, mu, dict(mu.items()), c5.distance),
    ):
        with pytest.raises(TypeError, match="ProbMeasure"):
            call()


def test_unequal_masses_are_an_internal_inconsistency():
    # two ProbMeasures always carry mass 1; one built past __init__'s check does not
    c5 = cycle_graph(5)
    short = ProbMeasure._from_integers({0: 1, 1: 1}, 3)
    for call in (
        lambda: wasserstein(c5.distance, short, ProbMeasure({2: 1})),
        lambda: dual_certificate(c5.distance, ProbMeasure({2: 1}), short, Fraction(1)),
    ):
        with pytest.raises(InternalInconsistency, match="unequal mass"):
            call()


def test_non_integer_distances_rejected():
    # int() would truncate half hops to 0, and the zero plan and potential would verify
    half_hops = lambda u, v: abs(u - v) / 2
    mu, nu = ProbMeasure({0: 1}), ProbMeasure({1: 1})
    for metric in (half_hops, lambda u, v: Fraction(abs(u - v), 2)):
        with pytest.raises(TypeError, match="distances must be integers"):
            wasserstein(metric, mu, nu)
        with pytest.raises(TypeError, match="distances must be integers"):
            dual_certificate(metric, mu, nu, Fraction(1, 2))
        plan = TransportPlan({(0, 1): Fraction(1)}, Fraction(0))
        with pytest.raises(TypeError, match="distances must be integers"):
            verify_plan(plan, mu, nu, metric)


def test_plan_entries_read_as_reduced_fractions():
    for _, g in full_corpus()[:30]:
        gt = neighborhood_graph(g, 2)
        for x, y, _ in gt.edges():
            if x == y:
                continue
            mu, nu = one_step_measure(gt, x), one_step_measure(gt, y)
            cost, plan = wasserstein(gt.distance, mu, nu)
            entries = {c: Fraction(q.numerator, q.denominator) for c, q in plan.entries.items()}
            assert plan.entries == entries and entries == plan.entries
            assert list(plan.entries) == sorted(entries)
            assert all(type(q) is Fraction and q > 0 for q in plan.entries.values())
            assert all(plan.entries[c] == q for c, q in entries.items())
            assert pickle.loads(pickle.dumps(plan)) == plan
            assert verify_plan(plan, mu, nu, gt.distance)
            assert verify_plan(TransportPlan(entries=entries, cost=cost), mu, nu, gt.distance)
            with pytest.raises(TypeError):
                plan.entries[next(iter(entries))] = Fraction(0)
    # a plan pickles as its entries, not as its metric, which here cannot
    # pickle, both before its first read and after it
    metric = lambda u, v: abs(u - v)
    mu, nu = ProbMeasure({0: 1}), ProbMeasure({1: "1/2", 2: "1/2"})
    _, plan = wasserstein(metric, mu, nu)
    unread = pickle.loads(pickle.dumps(plan))
    assert unread == plan
    assert pickle.loads(pickle.dumps(plan)) == plan == unread
    _, fresh = wasserstein(metric, ProbMeasure({0: 1}), ProbMeasure({1: "1/2", 2: "1/2"}))
    halves = {(0, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    assert dict(unread.entries) == dict(fresh.entries) == halves
    # and a measure pickles without the solves it keeps
    loaded = pickle.loads(pickle.dumps(mu))
    assert loaded == mu and loaded._solved == {} and mu._solved


def _count_solves(monkeypatch):
    # every solve, by whichever route, and every plan read starts with _leftover
    solves = []
    counted = lambda *args: solves.append(args) or _leftover(*args)
    monkeypatch.setattr(transport, "_leftover", counted)
    return solves


def test_a_repeat_call_is_answered_from_the_measure(monkeypatch):
    solves = _count_solves(monkeypatch)
    c5 = cycle_graph(5)
    mu = one_step_measure(c5, 0)
    first = wasserstein(c5.distance, mu, one_step_measure(c5, 2))
    # an equal partner built anew, and a new bound method of the same graph
    again = wasserstein(c5.distance, mu, ProbMeasure({1: "1/2", 3: "1/2"}))
    assert len(solves) == 1
    assert again[0] is first[0] and again[1] is first[1]
    # the reverse direction is kept on the other measure
    wasserstein(c5.distance, one_step_measure(c5, 2), mu)
    assert len(solves) == 2
    # the plan is solved again on its first read, and only then
    assert first[0] == Fraction(1, 2)
    assert verify_plan(first[1], mu, one_step_measure(c5, 2), c5.distance)
    assert dict(again[1].entries) == {(1, 1): Fraction(1, 2), (4, 3): Fraction(1, 2)}
    assert len(solves) == 3


def test_each_metric_is_solved_on_its_own(monkeypatch):
    solves = _count_solves(monkeypatch)
    g, h = cycle_graph(5), cycle_graph(5)
    assert g == h and g is not h
    mu, nu = ProbMeasure({0: 1}), ProbMeasure({2: 1})
    assert wasserstein(g.distance, mu, nu)[0] == 2
    assert wasserstein(h.distance, mu, nu)[0] == 2
    assert len(solves) == 2
    doubled = lambda u, v: 2 * g.distance(u, v)
    assert wasserstein(doubled, mu, nu)[0] == 4
    assert wasserstein(doubled, mu, nu)[0] == 4
    assert len(solves) == 3


def test_a_call_that_raises_keeps_nothing():
    split = lambda u, v: math.inf if (u < 2) != (v < 2) else abs(u - v)
    half_hops = lambda u, v: abs(u - v) / 2
    short = ProbMeasure._from_integers({0: 1, 1: 1}, 3)
    cases = [
        (InfiniteDistance, split, ProbMeasure({0: 1}), ProbMeasure({2: 1})),
        (TypeError, half_hops, ProbMeasure({0: 1}), ProbMeasure({1: 1})),
        (InternalInconsistency, cycle_graph(5).distance, short, ProbMeasure({2: 1})),
    ]
    for error, metric, mu, nu in cases:
        for _ in range(2):
            with pytest.raises(error):
                wasserstein(metric, mu, nu)
        assert mu._solved == {}


def test_split_supports_rejected():
    disconnected_metric = lambda u, v: float("inf") if (u < 2) != (v < 2) else 1
    with pytest.raises(InfiniteDistance):
        wasserstein(disconnected_metric, ProbMeasure({0: 1}), ProbMeasure({2: 1}))


def test_dual_certificate_rejects_a_wrong_primal_cost():
    c5 = cycle_graph(5)
    mu, nu = one_step_measure(c5, 0), one_step_measure(c5, 2)
    w1, _ = wasserstein(c5.distance, mu, nu)
    with pytest.raises(CertificateGapNonzero, match="dual value"):
        dual_certificate(c5.distance, mu, nu, w1 + 1)


def test_dual_certificate_rejects_a_metric_without_the_triangle_inequality():
    # d(0, 2) = 5 > d(0, 1) + d(1, 2): the tightened potential f(z) = d(z, 2) - v
    # differs by 4 between 0 and 1, one hop apart
    lengths = {frozenset((0, 1)): 1, frozenset((1, 2)): 1, frozenset((0, 2)): 5}
    metric = lambda u, v: 0 if u == v else lengths[frozenset((u, v))]
    mu, nu = ProbMeasure({0: Fraction(1, 2), 1: Fraction(1, 2)}), ProbMeasure({2: 1})
    with pytest.raises(CertificateGapNonzero, match="Lipschitz"):
        dual_certificate(metric, mu, nu, Fraction(3))


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
    cert = dual_certificate(k2.distance, ProbMeasure({1: 1}), ProbMeasure({0: 1}), Fraction(1))
    assert cert.potential[1] - cert.potential[0] == 1


def _random_instance(rng):
    graphs = random_corpus()
    _, g = graphs[rng.randrange(len(graphs))]
    mu = ProbMeasure(random_measure(rng, g.vertices(), 4))
    nu = ProbMeasure(random_measure(rng, g.vertices(), 4))
    return g, mu, nu


def test_simplex_matches_polytope_enumeration():
    rng = random.Random(99)
    for _ in range(40):
        g, mu, nu = _random_instance(rng)
        cost, plan = wasserstein(g.distance, mu, nu)
        assert verify_plan(plan, mu, nu, g.distance)
        assert cost == enumerate_transport_optimum(g.distance, dict(mu.items()), dict(nu.items()))
        dual_certificate(g.distance, mu, nu, cost)  # raises on any gap


def test_triangle_inequality_random_triples():
    rng = random.Random(31)
    for _ in range(30):
        graphs = random_corpus()
        _, g = graphs[rng.randrange(len(graphs))]
        mu, nu, rho = (ProbMeasure(random_measure(rng, g.vertices(), 4)) for _ in range(3))
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
    # graph, and each plan and certificate is a primal-dual solve on many cells
    solves = 0
    for _, g in full_corpus():
        if g.n_vertices < 6:
            continue
        for t in (2, 3):
            gt = neighborhood_graph(g, t)
            for u, v, _ in gt.edges():
                if u == v:
                    continue
                mu, nu = one_step_measure(gt, u), one_step_measure(gt, v)
                cost, plan = wasserstein(gt.distance, mu, nu)
                assert cost == _network_simplex_cost(gt.distance, dict(mu.items()), dict(nu.items()))
                assert verify_plan(plan, mu, nu, gt.distance)
                dual_certificate(gt.distance, mu, nu, cost)  # raises on any gap
                solves += 1
    assert solves > 500


# distinct Mersenne primes: any two of them multiply to more than 2**64
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1)


@st.composite
def big_denominator_pairs(draw):
    """Probability masses on <= 3 atoms each, as plain mappings.

    Every atom but the last has a small mass over large primes of its own,
    and the last atom holds what is left.  mu's first atom is over the
    product of two primes, so the LCM of all mass denominators is huge.
    """
    graphs = [g for _, g in full_corpus() if g.n_vertices >= 3]
    g = draw(st.sampled_from(graphs))
    vertices = sorted(g.vertices())
    primes = draw(st.permutations(BIG_PRIMES))
    sources = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=3, unique=True))
    sinks = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True))
    numerators = st.integers(1, 10**6)

    def measure(support, denominators):
        masses = {v: Fraction(draw(numerators), p) for v, p in zip(support[:-1], denominators)}
        masses[support[-1]] = 1 - sum(masses.values())
        return masses

    return g, measure(sources, (primes[0] * primes[1], primes[2])), measure(sinks, primes[3:])


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(big_denominator_pairs())
def test_integer_simplex_on_huge_denominators(instance):
    g, plain_mu, plain_nu = instance
    assert math.lcm(*(q.denominator for q in [*plain_mu.values(), *plain_nu.values()])) > 2**64
    mu, nu = ProbMeasure(plain_mu), ProbMeasure(plain_nu)
    cost, plan = wasserstein(g.distance, mu, nu)
    assert cost == _network_simplex_cost(g.distance, plain_mu, plain_nu)
    assert cost == enumerate_transport_optimum(g.distance, plain_mu, plain_nu)
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


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(weighted_graphs())
def test_w1_is_a_certified_metric_on_walk_measures_property(g):
    measures = [one_step_measure(g, x) for x in g.vertices()]
    n = len(measures)
    w1 = {}
    for i, mu in enumerate(measures):
        for j, nu in enumerate(measures):
            cost, plan = wasserstein(g.distance, mu, nu)
            assert verify_plan(plan, mu, nu, g.distance)
            f = dual_certificate(g.distance, mu, nu, cost).potential
            assert all(abs(f[a] - f[b]) <= g.distance(a, b) for a in f for b in f)
            gap = sum(f[v] * m for v, m in mu.items()) - sum(f[v] * m for v, m in nu.items())
            assert gap == cost
            w1[i, j] = cost
    for i in range(n):
        assert w1[i, i] == 0
        for j in range(n):
            assert w1[i, j] == w1[j, i]
            assert all(w1[i, k] <= w1[i, j] + w1[j, k] for k in range(n))


@st.composite
def integer_transportation_problems(draw):
    """Cost matrix, supply and demand on at most 5 x 5 cells, with equal totals.

    Masses are small, so partial sums of supply and demand often coincide,
    and many cells tie in cost.
    """
    supply = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    total = sum(supply)
    n = draw(st.integers(1, min(5, total)))
    cut = st.integers(1, max(1, total - 1))
    cuts = sorted(draw(st.lists(cut, min_size=n - 1, max_size=n - 1, unique=True)))
    demand = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    row = st.lists(st.integers(0, 9), min_size=n, max_size=n)
    cost = draw(st.lists(row, min_size=len(supply), max_size=len(supply)))
    return cost, supply, demand


def test_pivot_count_over_the_golden_corpus(monkeypatch):
    # solves, routes and phases are deterministic, unlike time, so these
    # counts guard the routes' gains: every adjacent pair of each golden
    # graph's G[1..3], the solves with three or more cost levels, and the
    # maximum-flow phases those solves take
    flows, phases, solves = [], [], 0
    counted = lambda *args: flows.append(args) or _max_flow(*args)
    monkeypatch.setattr(transport, "_max_flow", counted)

    def routed(*args):
        before = len(flows)
        result = _solve_transportation(*args)
        phases.append(len(flows) - before)
        return result

    monkeypatch.setattr(transport, "_solve_transportation", routed)
    for text in golden_inputs().values():
        g, _ = parse_edge_list(text)
        for t in (1, 2, 3):
            gt = neighborhood_graph(g, t)
            for x, y, _ in gt.edges():
                if x != y:
                    ricci_curvature(gt, x, y)
                    solves += 1
    assert (solves, len(phases), sum(phases)) == (936, 85, 173)


# three phases, the second with an augmenting path after its greedy fill
TWO_DUAL_STEPS = [[2, 0, 2], [4, 1, 4]], [2, 2], [1, 1, 2]


@pytest.mark.parametrize("fault", SOLVER_FAULTS)
def test_a_faulty_pivot_fails_the_duality_check(fault, monkeypatch):
    # without the check, the four faults return 10, 9 (with duals of value
    # 10 that exceed cell (1, 1)'s cost), 8 (with a flow of -1) and 2
    cost, supply, demand = TWO_DUAL_STEPS
    solve = faulty_solver(fault)
    flows = []
    counted = lambda *args: flows.append(args) or _max_flow(*args)
    monkeypatch.setattr(transport, "_max_flow", counted)
    assert _solve_transportation(cost, supply, demand)[0] == 9
    assert len(flows) == 3
    with pytest.raises(InternalInconsistency, match="fails its duality check"):
        solve(cost, supply, demand)


def test_a_dual_step_that_is_not_positive_raises(monkeypatch):
    # a search that claims every column leaves no column to step to, so the
    # step is 0 with mass left, and the solve stops rather than spin
    def every_column(cols, into, a, b):
        return _max_flow(cols, into, a, b)[0], dict.fromkeys(range(len(b)))

    monkeypatch.setattr(transport, "_max_flow", every_column)
    with pytest.raises(InternalInconsistency, match="dual step of 0"):
        _solve_transportation(*TWO_DUAL_STEPS)


@st.composite
def leveled_transportation_problems(draw):
    """An integer_transportation_problems instance of at least 2 x 2 cells whose costs
    take 1, 2 or 3 values, most often 2.

    Three drawn values may leave a matrix with two levels or one; the
    plain problems, with costs 0..9, mostly have three or more.  About one
    two-level problem in twelve needs an augmenting path after the greedy
    fill.
    """
    cost, supply, demand = draw(
        integer_transportation_problems().filter(lambda p: min(len(p[1]), len(p[2])) >= 2)
    )
    k = draw(st.sampled_from([1, 2, 2, 2, 3]))
    values = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k, unique=True))
    cost = [[draw(st.sampled_from(values)) for _ in row] for row in cost]
    return cost, supply, demand


SINK = 100  # sinks are vertices SINK + j, so no vertex holds both supply and demand
# rows 0 and 1 fill columns 0 and 1, so row 2's cheap cells are full; the
# path row 2 -> column 0 -> row 0 -> column 1 -> row 1 -> column 2 moves it
SHORT_GREEDY = [[1, 1, 2], [2, 1, 1], [1, 1, 2]], [1, 1, 1], [1, 1, 1]


def _as_measures(cost, supply, demand):
    """The problem as (metric, mu, nu): sources 0..m-1, sinks SINK + j, masses over the total."""
    total = sum(supply)
    metric = lambda u, v: cost[u][v - SINK] if u < SINK <= v else 0
    mu = ProbMeasure({i: Fraction(q, total) for i, q in enumerate(supply)})
    nu = ProbMeasure({SINK + j: Fraction(q, total) for j, q in enumerate(demand)})
    return metric, mu, nu


def _as_instances(problems):
    return problems.map(lambda problem: _as_measures(*problem))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.one_of(
        _as_instances(leveled_transportation_problems()),
        _as_instances(integer_transportation_problems()),
        big_denominator_pairs().map(lambda p: (p[0].distance, *map(ProbMeasure, p[1:]))),
    )
)
@example(instance=_as_measures(*SHORT_GREEDY))
def test_every_route_agrees_with_the_simplex_and_networkx_property(instance):
    metric, mu, nu = instance
    w1, plan = wasserstein(metric, mu, nu)
    supply, demand, cost, scale = _leftover(metric, mu, nu)
    a, b = [*supply.values()], [*demand.values()]
    total, flow, u, v = _solve_transportation(cost, a, b)
    # a flow of that cost, and duals that bound every flow's cost from below
    assert all(q >= 0 for q in flow.values())
    assert [sum(flow.get((i, j), 0) for j in range(len(b))) for i in range(len(a))] == a
    assert [sum(flow.get((i, j), 0) for i in range(len(a))) for j in range(len(b))] == b
    assert total == sum(q * cost[i][j] for (i, j), q in flow.items())
    assert all(u[i] + v[j] <= cost[i][j] for i in range(len(a)) for j in range(len(b)))
    assert total == sum(map(mul, u, a)) + sum(map(mul, v, b))
    assert w1 == plan.cost == Fraction(total, scale)
    assert verify_plan(plan, mu, nu, metric)
    plain_mu, plain_nu = dict(mu.items()), dict(nu.items())
    assert w1 == _network_simplex_cost(metric, plain_mu, plain_nu)
    if len(plain_mu) * len(plain_nu) <= 12:  # the enumeration is exponential
        assert w1 == enumerate_transport_optimum(metric, plain_mu, plain_nu)


def test_a_greedy_fill_short_of_the_maximum_is_augmented(monkeypatch):
    cost, supply, demand = SHORT_GREEDY
    searches = []
    counted = lambda *args: searches.append(args) or _reach(*args)
    monkeypatch.setattr(transport, "_reach", counted)
    cols = [[j for j, c in enumerate(row) if c == 1] for row in cost]
    a, b = list(supply), list(demand)
    _max_flow(cols, [{} for _ in b], a, b)
    assert a == b == [0, 0, 0]
    assert len(searches) == 2
    # so every unit moves at cost 1
    assert wasserstein(*_as_measures(cost, supply, demand))[0] == 1


def test_a_flow_short_of_its_cut_raises(monkeypatch):
    # a search that drops the augmenting path it found leaves the greedy
    # fill, 2, against the cut of the rows and columns it reached, 3
    cost, supply, demand = SHORT_GREEDY
    monkeypatch.setattr(transport, "_reach", lambda *args: (*_reach(*args)[:2], None))
    with pytest.raises(InternalInconsistency, match="flow of 2 .* has a cut of 3"):
        _least_cost(cost, supply, demand)


@st.composite
def overlapping_measures(draw):
    """A graph and two measures that share support: equal, nested or crossing."""
    graphs = [g for _, g in full_corpus() if g.n_vertices >= 3]
    g = draw(st.sampled_from(graphs))
    vertices = sorted(g.vertices())
    atoms = st.lists(st.sampled_from(vertices), min_size=1, max_size=3, unique=True)
    masses = st.integers(1, 9)

    def measure(support):
        raw = {v: draw(masses) for v in support}
        return {v: Fraction(q, sum(raw.values())) for v, q in raw.items()}

    mu_support = draw(atoms)
    kind = draw(st.sampled_from(["equal", "nested", "crossing"]))
    mu = measure(mu_support)
    if kind == "equal":
        return g, mu, dict(mu)
    if kind == "nested":
        inner = draw(st.lists(st.sampled_from(mu_support), min_size=1, unique=True))
        nu = measure(inner)
        return (g, mu, nu) if draw(st.booleans()) else (g, nu, mu)
    shared = draw(st.sampled_from(mu_support))
    return g, mu, measure({shared, *draw(atoms)})


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(overlapping_measures())
def test_shared_mass_stays_put_property(instance):
    g, plain_mu, plain_nu = instance
    mu, nu = ProbMeasure(plain_mu), ProbMeasure(plain_nu)
    cost, plan = wasserstein(g.distance, mu, nu)
    assert cost == enumerate_transport_optimum(g.distance, plain_mu, plain_nu)
    stays = {(a, b): q for (a, b), q in plan.entries.items() if a == b}
    assert stays == {(v, v): min(q, nu.mass(v)) for v, q in mu.items() if v in nu.support}
    assert verify_plan(plan, mu, nu, g.distance)
    f = dual_certificate(g.distance, mu, nu, cost).potential
    assert f.keys() == {*mu.support, *nu.support}
    assert all(abs(f[a] - f[b]) <= g.distance(a, b) for a in f for b in f)
    gap = sum(f[v] * m for v, m in mu.items()) - sum(f[v] * m for v, m in nu.items())
    assert gap == cost
