import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_spectrum import (
    bounds,
    build_graph,
    contraction_audit,
    curvature_transfer_check,
    first_complete_t,
    global_lower_bound,
    is_bipartite,
    joint_neighbor_bounds,
    k_scan,
    largest_upper,
    lower_bound_formula,
    metric_audit,
    neighbor_partition,
    neighborhood_graph,
    ollivier_lower,
    sandwich_bounds,
    transfer_bounds,
)
from ricci_spectrum.cli import parse_edge_list
from ricci_spectrum.errors import InvalidBoundInput
from ricci_spectrum.spectrum import spectrum
from ricci_spectrum.transport import wasserstein
from ricci_spectrum.walk import ProbMeasure, one_step_measure

from conftest import (
    complete_graph,
    cycle_graph,
    full_corpus,
    lazy_complete,
    petersen_graph,
    weighted_graphs,
)
from record_goldens import golden_inputs


def test_complete_graph_gap_bound_strict():
    for n in (3, 5, 8):
        g = complete_graph(n)
        report = ollivier_lower(g)
        assert report.inputs["k"] == Fraction(n - 2, n - 1)
        assert report.verified
        assert report.lower < spectrum(g).lambda_1  # strictly below N/(N-1)


def test_complete_graph_upper_bound_tight():
    for n in (3, 5, 8):
        g = complete_graph(n)
        report = largest_upper(g)
        assert report.upper == pytest.approx(n / (n - 1), abs=1e-12)
        assert report.verified
        assert abs(spectrum(g).lambda_max - report.upper) < 1e-9


def test_lazy_complete_both_bounds_tight():
    g = lazy_complete(5)
    lo, hi = ollivier_lower(g), largest_upper(g)
    assert lo.inputs["k"] == 1 and hi.upper == 1.0
    assert abs(spectrum(g).lambda_1 - 1) < 1e-10
    assert lo.verified and hi.verified


def test_pentagon_trivial_t1_bounds():
    c5 = cycle_graph(5)
    assert ollivier_lower(c5).lower == 0.0
    assert largest_upper(c5).upper == 2.0


def test_pentagon_sandwich_goldens():
    c5 = cycle_graph(5)
    expected = {
        2: (Fraction(1, 4), "0.1340", "1.8660"),
        3: (Fraction(3, 8), "0.1450", "1.8550"),
        4: (Fraction(1, 2), "0.1591", "1.8409"),
    }
    for t, (k_t, lo, hi) in expected.items():
        report = sandwich_bounds(c5, t)
        assert report.inputs["k_t"] == k_t
        assert f"{report.lower:.4f}" == lo
        assert f"{report.upper:.4f}" == hi
        assert report.verified
        assert not report.details["component_restricted"]


def test_sandwich_formula_bound_is_the_edge_minimum_on_goldens():
    for name, text in sorted(golden_inputs().items()):
        g, _ = parse_edge_list(text)
        for t in range(1, 5):
            gt = neighborhood_graph(g, t)
            bounds = [lower_bound_formula(gt, u, v) for u, v, _ in gt.edges() if u != v]
            report = sandwich_bounds(g, t)
            assert report.inputs.get("k_t_formula") == min(bounds, default=None), (name, t)


def test_sandwich_even_t_bipartite_restricted():
    report = sandwich_bounds(cycle_graph(4), 2)
    assert report.details["component_restricted"]
    assert report.inputs["k_t"] == 1  # each component is a looped edge pair
    assert report.verified  # inner eigenvalues {1, 1} sit inside [1, 1]
    assert report.details["eigenvalues_skipped"] == 2


def test_sandwich_no_pairs_vacuous():
    report = sandwich_bounds(complete_graph(2), 2)
    assert not report.applicable
    assert report.verified is None


def test_transfer_matches_sandwich_lower_arm():
    c5 = cycle_graph(5)
    for t in (2, 3, 4):
        k_t = sandwich_bounds(c5, t).inputs["k_t"]
        report = transfer_bounds(c5, float(k_t), None, t)
        assert report.lower == pytest.approx(1 - float(1 - k_t) ** (1 / t), abs=1e-12)
        assert report.verified


def test_transfer_zero_lower_bound():
    report = transfer_bounds(cycle_graph(5), 0.0, None, 2)
    assert report.lower == 0.0
    assert report.upper == 2.0
    assert report.verified


def test_transfer_union_excludes_middle():
    c5 = cycle_graph(5)
    b2 = spectrum(neighborhood_graph(c5, 2)).lambda_max
    report = transfer_bounds(c5, None, b2, 2)
    lo, hi = report.details["excluded_interval"]
    ev = spectrum(c5).eigenvalues
    assert all(not (lo + 1e-8 < lam < hi - 1e-8) for lam in ev)
    assert report.verified


def test_transfer_odd_t_upper():
    c5 = cycle_graph(5)
    g3 = neighborhood_graph(c5, 3)
    b3 = spectrum(g3).lambda_max
    report = transfer_bounds(c5, None, b3, 3)
    assert report.upper is not None
    assert spectrum(c5).lambda_max <= report.upper + 1e-8
    assert report.verified


def test_transfer_even_t_clamps_b():
    report = transfer_bounds(cycle_graph(5), None, 1.5, 2)
    assert report.details["b_clamped"]


def test_transfer_one_vertex_inapplicable():
    point = build_graph([(0, 0, 1)])
    report = transfer_bounds(point, 0.5, None, 3)
    assert not report.applicable
    assert report.verified is None
    assert (report.lower, report.upper) == (None, None)
    with pytest.raises(InvalidBoundInput):
        transfer_bounds(point, 0.5, None, 0)


def test_transfer_invalid_inputs():
    c5 = cycle_graph(5)
    with pytest.raises(InvalidBoundInput, match="impossible for even t"):
        transfer_bounds(c5, 1.2, None, 2)  # even-t gap cannot exceed 1
    with pytest.raises(InvalidBoundInput, match="exceeds the spectral range"):
        transfer_bounds(c5, 2.5, None, 3)
    with pytest.raises(InvalidBoundInput):
        transfer_bounds(c5, None, -0.1, 3)
    with pytest.raises(InvalidBoundInput):
        transfer_bounds(c5, None, None, 2)
    with pytest.raises(InvalidBoundInput):
        transfer_bounds(c5, 0.5, None, 0)
    with pytest.raises(InvalidBoundInput):
        transfer_bounds(c5, 0.9, 0.05, 3)  # jointly impossible claims
    with pytest.raises(InvalidBoundInput):
        transfer_bounds(c5, float("nan"), None, 3)
    with pytest.raises(InvalidBoundInput):
        transfer_bounds(c5, None, float("nan"), 3)


def test_joint_neighbors_complete_graph_sharp():
    for n in (3, 5, 8):
        g = complete_graph(n)
        report = joint_neighbor_bounds(g)
        assert report.details["edge_subset_of_walk_graph"]
        assert report.details["upper_exact"] == 2 - Fraction(n - 2, n - 1)
        assert report.verified


def test_joint_neighbors_lazy_complete_lower_sharp():
    report = joint_neighbor_bounds(lazy_complete(5))
    assert report.details["walk_graph_subset_of_edges"]
    assert report.details["lower_exact"] == 1
    assert report.verified


def test_joint_neighbors_pentagon_walk_graph_golden():
    g3 = neighborhood_graph(cycle_graph(5), 3)
    report = joint_neighbor_bounds(g3)
    assert report.details["upper_exact"] == Fraction(15, 8)
    assert report.verified
    # weaker than the curvature route on the same graph: 2 - 3/8 = 13/8
    assert largest_upper(g3).upper == pytest.approx(13 / 8, abs=1e-12)
    assert Fraction(15, 8) > Fraction(13, 8)


def test_joint_neighbors_inapplicable_for_pentagon():
    report = joint_neighbor_bounds(cycle_graph(5))
    assert not report.applicable
    assert report.verified is None


def test_contraction_pentagon_and_k2():
    audit = contraction_audit(cycle_graph(5), 4)
    assert audit.passed and audit.max_ratio <= 1
    audit = contraction_audit(complete_graph(2), 4)
    assert audit.passed and audit.max_ratio == 1  # walks swap and return


def test_contraction_pushes_forward_only_before_each_later_t(monkeypatch):
    calls = []
    step = ProbMeasure.pushforward

    def counted(mu, g):
        calls.append(mu)
        return step(mu, g)

    monkeypatch.setattr(ProbMeasure, "pushforward", counted)
    for g, t_max in ((petersen_graph(), 4), (cycle_graph(5), 3), (complete_graph(3), 1)):
        calls.clear()
        contraction_audit(g, t_max)
        assert len(calls) == g.n_vertices * (t_max - 1)


def test_contraction_equality_mode():
    audit = contraction_audit(lazy_complete(4), 3)
    assert audit.equality_mode and audit.passed
    assert audit.max_ratio is None


def test_metric_audit_pentagon():
    audit = metric_audit(cycle_graph(5), 2)
    assert audit.lower_holds
    assert not audit.edge_subset  # neighbors lose their direct edge in G[2]
    assert audit.upper_holds is None
    g2 = neighborhood_graph(cycle_graph(5), 2)
    assert g2.distance(0, 1) == 2  # two 2-hop edges replace one 1-hop edge


def test_metric_audit_t1_identity():
    audit = metric_audit(cycle_graph(5), 1)
    assert audit.lower_holds and audit.edge_subset and audit.upper_holds


def test_metric_audit_triangle_both_directions():
    audit = metric_audit(complete_graph(3), 2)
    assert audit.lower_holds and audit.edge_subset and audit.upper_holds


def test_curvature_transfer_triangle():
    audit = curvature_transfer_check(complete_graph(3), 2)
    assert audit.applicable
    assert audit.threshold == Fraction(1, 2)
    assert audit.min_kappa >= audit.threshold and audit.passed


def test_curvature_transfer_lazy_equality():
    audit = curvature_transfer_check(lazy_complete(4), 3)
    assert audit.applicable
    assert audit.threshold == 1
    assert audit.min_kappa == 1 and audit.passed


def test_curvature_transfer_inapplicable():
    audit = curvature_transfer_check(cycle_graph(5), 2)
    assert not audit.applicable


def test_contraction_audit_fails_on_an_inflated_w1(monkeypatch):
    c5 = cycle_graph(5)
    assert contraction_audit(c5, 3).passed
    m1, m3 = one_step_measure(c5, 1), one_step_measure(c5, 3)

    def inflated(metric, mu, nu):
        # k = 0 on C5, so W1 between the walks from 1 and 3 may reach d = 2;
        # 1/2 + 2 exceeds it at t = 1 and at no other pair or t
        w1, plan = wasserstein(metric, mu, nu)
        return (w1 + 2 if (mu, nu) == (m1, m3) else w1), plan

    monkeypatch.setattr(bounds, "wasserstein", inflated)
    audit = contraction_audit(c5, 3)
    assert not audit.equality_mode
    assert audit.passed is False
    assert audit.max_ratio == Fraction(5, 4)
    assert audit.witness == (1, 3, 1)


def test_contraction_audit_fails_on_a_nonzero_w1_in_equality_mode(monkeypatch):
    g = lazy_complete(4)
    solves = []

    def nonzero_first(metric, mu, nu):
        w1, plan = wasserstein(metric, mu, nu)
        solves.append(w1)
        return (w1 + 1 if len(solves) == 1 else w1), plan

    monkeypatch.setattr(bounds, "wasserstein", nonzero_first)
    audit = contraction_audit(g, 3)
    assert audit.equality_mode
    assert audit.passed is False
    assert audit.witness == (0, 1, 1)  # the first pair at t = 1
    assert audit.max_ratio is None
    assert solves == [0] * 18  # the other 17 solves still find identical walks


def test_contraction_audit_equality_mode_names_the_first_failing_pair(monkeypatch):
    def inflated(metric, mu, nu):
        w1, plan = wasserstein(metric, mu, nu)
        return w1 + 1, plan

    monkeypatch.setattr(bounds, "wasserstein", inflated)
    audit = contraction_audit(lazy_complete(4), 3)
    assert audit.equality_mode and audit.passed is False
    # every pair at every t fails; the first in (t, x, y) order is named
    assert audit.witness == (0, 1, 1)


def test_curvature_transfer_fails_below_its_threshold(monkeypatch):
    real = bounds.ricci_curvature

    def lowered(gt, x, y):
        value = real(gt, x, y)
        return dataclasses.replace(value, kappa=Fraction(-1)) if (x, y) == (1, 2) else value

    monkeypatch.setattr(bounds, "ricci_curvature", lowered)
    audit = curvature_transfer_check(complete_graph(3), 2)
    assert audit.applicable and audit.threshold == Fraction(1, 2)
    assert audit.passed is False
    assert audit.min_kappa == -1
    assert audit.witness == (1, 2)


def test_metric_audit_lower_check_fails_on_a_long_walk_graph_edge(monkeypatch):
    # a walk-graph edge 0-3 spans 3 hops of C6, more than t = 2 allows
    c6 = cycle_graph(6)
    longer = build_graph([(u, v, 1) for u, v, _ in c6.edges()] + [(0, 3, 1)])
    monkeypatch.setattr(bounds, "neighborhood_graph", lambda g, t: longer)
    audit = metric_audit(c6, 2)
    assert audit.lower_holds is False
    assert audit.edge_subset is True
    assert audit.upper_holds is True


def test_k_scan_pentagon():
    table = k_scan(cycle_graph(5), 4)
    ks = {row.t: row.k_exact for row in table.rows}
    assert ks == {1: 0, 2: Fraction(1, 4), 3: Fraction(3, 8), 4: Fraction(1, 2)}
    assert table.best_lower_t == 4 and table.best_upper_t == 4
    assert all(row.verified for row in table.rows)


def test_k_scan_bipartite_flags():
    table = k_scan(cycle_graph(4), 4)
    for row in table.rows:
        assert row.component_restricted == (row.t % 2 == 0)


def test_k_scan_lazy_complete_constant():
    table = k_scan(lazy_complete(4), 5)
    assert all(row.k_exact == 1 for row in table.rows)


def test_nontrivial_bounds_for_nonbipartite():
    for _, g in full_corpus()[:20]:
        if is_bipartite(g)[0]:
            continue
        t_complete = first_complete_t(g, 16)
        assert t_complete is not None
        found = False
        for t in range(1, t_complete + 3):
            report = sandwich_bounds(g, t)
            if report.applicable and report.lower > 0 and report.upper < 2:
                found = True
                break
        assert found


def test_unweighted_regular_k_at_most_sharp_over_degree():
    for g in (cycle_graph(5), cycle_graph(6), complete_graph(5), petersen_graph()):
        d = g.degrees[0]
        sharp_min = None
        for u, v, _ in g.edges():
            if u == v:
                continue
            count = len(neighbor_partition(g, u, v).n_xy)
            count += int(g.has_loop(u)) + int(g.has_loop(v))
            sharp_min = count if sharp_min is None else min(sharp_min, count)
        assert global_lower_bound(g) <= Fraction(sharp_min) / d


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(weighted_graphs())
def test_one_step_and_sandwich_bounds_hold_property(g):
    gap, largest = ollivier_lower(g), largest_upper(g)
    sandwiches = [sandwich_bounds(g, t) for t in (1, 2, 3)]
    for report in [gap, largest] + sandwiches:
        assert report.verified is (True if report.applicable else None)
    if gap.applicable:
        # G[1] = g, so the t = 1 sandwich is the one-step pair k <= lambda, lambda <= 2 - k
        assert abs(sandwiches[0].lower - gap.lower) <= 1e-12
        assert abs(sandwiches[0].upper - largest.upper) <= 1e-12


# -- the loops the structural audits replaced, kept as oracles ------------------


def _edge_set(g):
    return {(u, v) for u in g.vertices() for v in g.neighbors(u) if v >= u}


def _metric_audit_oracle(g, t):
    """(lower_holds, edge_subset, upper_holds) with explicit unreachable cases."""
    dist, dist_t = g.distance_matrix(), neighborhood_graph(g, t).distance_matrix()
    n = g.n_vertices
    lower_holds = True
    for x in range(n):
        for y in range(n):
            d, dt = dist[x][y], dist_t[x][y]
            if math.isinf(dt):
                continue
            if math.isinf(d) or d > t * dt:
                lower_holds = False
    edge_subset = _edge_set(g) <= _edge_set(neighborhood_graph(g, t))
    upper_holds = None
    if edge_subset:
        upper_holds = all(
            dist_t[x][y] <= dist[x][y]
            for x in range(n)
            for y in range(n)
            if not math.isinf(dist[x][y])
        )
    return lower_holds, edge_subset, upper_holds


def _best_rows_oracle(g, t_max):
    """(best_lower_t, best_upper_t): the first strict improvement wins a tie."""
    best_lower_t = best_upper_t = best_lower = best_upper = None
    for t in range(1, t_max + 1):
        report = sandwich_bounds(g, t)
        if report.applicable:
            if best_lower is None or report.lower > best_lower:
                best_lower, best_lower_t = report.lower, t
            if best_upper is None or report.upper < best_upper:
                best_upper, best_upper_t = report.upper, t
    return best_lower_t, best_upper_t


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
# loop-free trees are bipartite, so their even-t walk graphs disconnect and
# the unreachable pairs of the metric audit take part
@given(st.booleans().flatmap(lambda loops: weighted_graphs(loops=loops)))
def test_structural_audits_match_their_loop_oracles_property(g):
    for t in range(1, 5):
        audit = metric_audit(g, t)
        assert (audit.lower_holds, audit.edge_subset, audit.upper_holds) == (
            _metric_audit_oracle(g, t)
        ), t
    e1, e2 = _edge_set(g), _edge_set(neighborhood_graph(g, 2))
    details = joint_neighbor_bounds(g).details
    assert details["edge_subset_of_walk_graph"] is (e1 <= e2)
    assert details["walk_graph_subset_of_edges"] is (e2 <= e1)
    table = k_scan(g, 4)
    assert (table.best_lower_t, table.best_upper_t) == _best_rows_oracle(g, 4)


def test_edge_inclusion_counts_loops():
    # G[2] of K4 has a loop at every vertex; g has loops at only two of them
    g = build_graph([(u, v, 1) for u in range(4) for v in range(u + 1, 4)] + [(0, 0, 1), (1, 1, 1)])
    details = joint_neighbor_bounds(g).details
    assert details["edge_subset_of_walk_graph"] is True
    assert details["walk_graph_subset_of_edges"] is False


def test_metric_audit_on_a_disconnected_graph_matches_its_oracle():
    # pairs across the two components are unreachable in g and in every G[t]
    g = build_graph([(0, 1, 1), (2, 3, 1), (3, 3, 1)])
    for t in range(1, 5):
        audit = metric_audit(g, t)
        assert (audit.lower_holds, audit.edge_subset, audit.upper_holds) == (
            _metric_audit_oracle(g, t)
        ), t
    assert metric_audit(g, 1) == bounds.MetricAudit(
        t=1, lower_holds=True, edge_subset=True, upper_holds=True
    )
