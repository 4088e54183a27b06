import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from ricci_spectrum import (
    build_graph,
    eigenpairs,
    is_bipartite,
    laplacian_apply,
    neighborhood_graph,
    rayleigh_ratio,
    verify_transfer_identity,
)
from ricci_spectrum.spectrum import spectrum
from ricci_spectrum.errors import OutsideFloatRange, ZeroDenominator
from ricci_spectrum.tolerances import (
    EIGENVALUE_TOL,
    RAYLEIGH_TOL,
    TRANSFER_IDENTITY_TOL,
)

from conftest import complete_graph, cycle_graph, full_corpus, lazy_complete, weighted_graphs
from record_goldens import golden_inputs
from ricci_spectrum.cli import parse_edge_list


def test_pentagon_spectrum():
    ev = spectrum(cycle_graph(5)).eigenvalues
    expected = sorted(1 - math.cos(2 * math.pi * k / 5) for k in range(5))
    assert np.allclose(ev, expected, atol=1e-12)
    assert abs(ev[1] - 0.690983005625053) < 1e-12
    assert abs(ev[4] - 1.809016994374947) < 1e-12


def test_complete_graph_spectrum():
    for n in (3, 5, 8):
        ev = spectrum(complete_graph(n)).eigenvalues
        assert abs(ev[0]) < EIGENVALUE_TOL
        assert np.allclose(ev[1:], n / (n - 1), atol=1e-12)


def test_lazy_complete_spectrum():
    ev = spectrum(lazy_complete(5)).eigenvalues
    assert abs(ev[0]) < EIGENVALUE_TOL
    assert np.allclose(ev[1:], 1.0, atol=1e-12)


def test_eigenpair_residuals_and_orthonormality():
    for g in (cycle_graph(5), complete_graph(4), lazy_complete(3)):
        pairs = eigenpairs(g)
        mu = np.array([float(d) for d in g.degrees])
        for p in pairs:
            residual = laplacian_apply(g, p.eigenfunction) + p.eigenvalue * p.eigenfunction
            assert np.max(np.abs(residual)) <= 1e-10 * (1 + p.eigenvalue)
            assert abs(np.sum(mu * p.eigenfunction**2) - 1) < 1e-10
        for i, p in enumerate(pairs):
            for q in pairs[i + 1 :]:
                if abs(p.eigenvalue - q.eigenvalue) > 1e-8:
                    inner = np.sum(mu * p.eigenfunction * q.eigenfunction)
                    assert abs(inner) < 1e-9


def test_constant_eigenfunction_has_zero_eigenvalue():
    pairs = eigenpairs(cycle_graph(6))
    ground = pairs[0]
    assert abs(ground.eigenvalue) < EIGENVALUE_TOL
    assert np.allclose(ground.eigenfunction, ground.eigenfunction[0])


def test_k2_top_eigenpair():
    pairs = eigenpairs(complete_graph(2))
    top = pairs[-1]
    assert abs(top.eigenvalue - 2) < EIGENVALUE_TOL
    assert abs(top.eigenfunction[0] + top.eigenfunction[1]) < 1e-12


def test_transfer_identity_t1_is_exactly_zero_ish():
    for _, g in full_corpus()[:10]:
        assert verify_transfer_identity(g, 1) <= 1e-12


def test_transfer_identity_pentagon():
    dev = verify_transfer_identity(cycle_graph(5), 2)
    assert dev <= TRANSFER_IDENTITY_TOL
    ev2 = spectrum(neighborhood_graph(cycle_graph(5), 2)).eigenvalues
    lam1 = 1 - math.cos(2 * math.pi / 5)
    assert abs(max(ev2) - (1 - (1 - lam1) ** 2)) < 1e-9  # top of G[2] = 0.9045...


def test_transfer_identity_even_t_disconnected():
    assert verify_transfer_identity(cycle_graph(4), 2) <= TRANSFER_IDENTITY_TOL


def test_transfer_identity_corpus():
    for _, g in full_corpus()[:25]:
        for t in range(1, 7):
            assert verify_transfer_identity(g, t) <= TRANSFER_IDENTITY_TOL


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(weighted_graphs())
def test_transfer_identity_property(g):
    for t in range(1, 5):
        assert verify_transfer_identity(g, t) <= TRANSFER_IDENTITY_TOL


def test_rayleigh_ratio_identity():
    c5 = cycle_graph(5)
    for p in eigenpairs(c5)[1:]:
        ratio = rayleigh_ratio(c5, p.eigenfunction)
        assert abs(ratio - (2 - p.eigenvalue)) <= RAYLEIGH_TOL
    top = eigenpairs(c5)[-1]
    assert abs(rayleigh_ratio(c5, top.eigenfunction) - 0.19098) < 1e-4


def test_rayleigh_ratio_k2_is_zero():
    k2 = complete_graph(2)
    top = eigenpairs(k2)[-1]
    assert rayleigh_ratio(k2, top.eigenfunction) == 0.0


def test_rayleigh_ratio_k3():
    k3 = complete_graph(3)
    pair = eigenpairs(k3)[1]
    assert abs(pair.eigenvalue - 1.5) < EIGENVALUE_TOL
    assert abs(rayleigh_ratio(k3, pair.eigenfunction) - 0.5) <= RAYLEIGH_TOL


def test_rayleigh_ratio_rejects_constant():
    c5 = cycle_graph(5)
    with pytest.raises(ZeroDenominator):
        rayleigh_ratio(c5, np.ones(5))


def test_spectrum_invariants_corpus():
    for _, g in full_corpus():
        spec = spectrum(g)
        ev = spec.eigenvalues
        assert abs(ev[0]) < EIGENVALUE_TOL
        assert ev[0] > -EIGENVALUE_TOL and ev[-1] < 2 + EIGENVALUE_TOL
        if g.n_vertices > 1:
            assert ev[1] > EIGENVALUE_TOL  # connected: simple zero eigenvalue


def test_bipartite_iff_largest_eigenvalue_two():
    for _, g in full_corpus():
        bipartite, _ = is_bipartite(g)
        lam_max = spectrum(g).lambda_max
        assert bipartite == (abs(lam_max - 2) < EIGENVALUE_TOL)


def test_trace_identity_corpus():
    for _, g in full_corpus():
        loop_mass = sum(
            (g.weight(x, x) / g.degree(x) for x in g.vertices()), Fraction(0)
        )
        expected = g.n_vertices - float(loop_mass)
        assert abs(float(np.sum(spectrum(g).eigenvalues)) - expected) <= 1e-9


def test_rational_weight_spectrum_stays_in_range():
    g = build_graph([(0, 1, "1/3"), (1, 2, "4/5"), (0, 2, "2/7"), (1, 1, "1/2")])
    ev = spectrum(g).eigenvalues
    assert ev[0] > -EIGENVALUE_TOL and ev[-1] < 2 + EIGENVALUE_TOL


def _reference_conjugate(g):
    """D^{-1/2} W D^{-1/2} and D^{-1/2}, from float(Fraction) weights and degrees."""
    w = np.zeros((g.n_vertices, g.n_vertices))
    for u, v, wt in g.edges():
        w[u, v] = w[v, u] = float(wt)
    dinv = 1.0 / np.sqrt(np.array([float(d) for d in g.degrees]))
    return dinv[:, None] * w * dinv[None, :], dinv


def test_spectra_bit_identical_to_fraction_reference():
    """Reading w/s and d/s from the integers rounds each value exactly once."""
    for name, text in sorted(golden_inputs().items()):
        g, _ = parse_edge_list(text)
        for t in range(1, 9):
            gt = neighborhood_graph(g, t)
            conjugate, dinv = _reference_conjugate(gt)
            lams = 1.0 - np.linalg.eigvalsh(conjugate)
            assert np.array_equal(spectrum(gt).eigenvalues, np.sort(lams)), (name, t)
            vals, vecs = np.linalg.eigh(conjugate)
            order = np.argsort(1.0 - vals, kind="stable")
            pairs = eigenpairs(gt)
            assert [p.eigenvalue for p in pairs] == [float(1.0 - vals[i]) for i in order]
            for pair, i in zip(pairs, order):
                assert np.array_equal(pair.eigenfunction, dinv * vecs[:, i]), (name, t)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, "1e400"), (1, 2, 1), (0, 2, 1)],
        [(0, 1, "1e-400"), (1, 2, "1e-400"), (0, 2, "1e-400")],
    ],
    ids=["overflow", "underflow"],
)
def test_float_steps_reject_weights_outside_float_range(edges):
    # the first used to raise a bare OverflowError; on the second, whose
    # degrees round to 0, laplacian_apply returned NaN and rayleigh_ratio
    # raised ZeroDenominator
    g = build_graph(edges)
    u = np.array([1.0, -1.0, 0.0])
    with pytest.raises(OutsideFloatRange):
        laplacian_apply(g, u)
    with pytest.raises(OutsideFloatRange):
        rayleigh_ratio(g, u)


def test_laplacian_apply_matches_fraction_row_sums_on_goldens():
    rng = np.random.default_rng(0)
    for name, text in sorted(golden_inputs().items()):
        g, _ = parse_edge_list(text)
        f = rng.standard_normal(g.n_vertices)
        expected = [
            sum(f[y] * float(w) for y, w in g.neighbor_items(x)) / float(g.degree(x)) - f[x]
            for x in g.vertices()
        ]
        assert np.max(np.abs(laplacian_apply(g, f) - expected)) < EIGENVALUE_TOL, name


def test_spectrum_is_computed_once_per_graph_and_read_only():
    for name, text in sorted(golden_inputs().items()):
        g, _ = parse_edge_list(text)
        for t in range(1, 6):
            gt = neighborhood_graph(g, t)
            spec = spectrum(gt)
            assert spectrum(gt) is spec, (name, t)
            with pytest.raises(ValueError):
                spec.eigenvalues[0] = 1.0
            # an equal graph built fresh holds no cache, and its eigenvalues are the same bits
            fresh = build_graph(gt.edges())
            assert fresh == gt and spectrum(fresh) is not spec
            assert spectrum(fresh).eigenvalues.tobytes() == spec.eigenvalues.tobytes(), (name, t)
