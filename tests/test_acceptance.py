"""Acceptance suite: one test per criterion, one printed line per criterion.

Corpus: C4, C5, C6, K2, K3, K5, lazy K5, P3, Petersen, plus 50 seeded random
connected weighted graphs (N <= 8) with random loops.  Run with -s (or -v)
to see the pass/fail lines as they happen.
"""

import math
import random
import time
from fractions import Fraction

from ricci_spectrum import (
    ProbMeasure,
    contraction_audit,
    dual_certificate,
    global_lower_bound,
    is_bipartite,
    joint_neighbor_bounds,
    largest_upper,
    neighborhood_graph,
    ricci_curvature,
    sandwich_bounds,
    sharpness_case,
    verify_plan,
    verify_transfer_identity,
    wasserstein,
)
from ricci_spectrum.spectrum import spectrum

from conftest import (
    complete_graph,
    cycle_graph,
    enumerate_transport_optimum,
    full_corpus,
    lazy_complete,
    random_measure,
)

_MODULE_START = time.monotonic()


def _report(number: int, description: str, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_1_pentagon_golden_run():
    start = time.monotonic()
    failures = []
    c5 = cycle_graph(5)
    ev = spectrum(c5).eigenvalues
    if abs(ev[1] - (1 - math.cos(2 * math.pi / 5))) > 1e-9:
        failures.append(f"lambda_1 = {ev[1]}")
    if abs(ev[4] - (1 - math.cos(4 * math.pi / 5))) > 1e-9:
        failures.append(f"lambda_4 = {ev[4]}")
    if global_lower_bound(c5) != 0:
        failures.append("k != 0")
    expected = {
        2: (Fraction(1, 4), "0.1340", "1.8660"),
        3: (Fraction(3, 8), "0.1450", "1.8550"),
        4: (Fraction(1, 2), "0.1591", "1.8409"),
    }
    for t, (k_t, lo, hi) in expected.items():
        report = sandwich_bounds(c5, t)
        if report.inputs["k_t"] != k_t:
            failures.append(f"k[{t}] = {report.inputs['k_t']}")
        if f"{report.lower:.4f}" != lo or f"{report.upper:.4f}" != hi:
            failures.append(f"bounds[{t}] = {report.lower}, {report.upper}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s")
    _report(1, "pentagon spectrum, k[t] values and printed bounds (< 1 s)", failures)


def test_criterion_2_complete_graph_goldens():
    failures = []
    for n in (3, 5, 8):
        g = complete_graph(n)
        target = Fraction(n - 2, n - 1)
        for u in range(n):
            for v in range(u + 1, n):
                if ricci_curvature(g, u, v).kappa != target:
                    failures.append(f"K{n} kappa({u},{v})")
        ev = spectrum(g).eigenvalues
        if abs(ev[0]) > 1e-9 or any(abs(lam - n / (n - 1)) > 1e-9 for lam in ev[1:]):
            failures.append(f"K{n} spectrum")
        report = largest_upper(g)
        if abs(report.upper - spectrum(g).lambda_max) > 1e-9:
            failures.append(f"K{n} 2-k not tight")
    lazy = lazy_complete(5)
    for u in range(5):
        for v in range(u + 1, 5):
            if ricci_curvature(lazy, u, v).kappa != 1:
                failures.append(f"lazy kappa({u},{v})")
    ev = spectrum(lazy).eigenvalues
    if abs(ev[0]) > 1e-9 or any(abs(lam - 1) > 1e-9 for lam in ev[1:]):
        failures.append("lazy K5 spectrum")
    _report(2, "complete graphs: kappa, spectra, tight largest-eigenvalue bound", failures)


def test_criterion_3_joint_neighbor_golden():
    failures = []
    g3 = neighborhood_graph(cycle_graph(5), 3)
    report = joint_neighbor_bounds(g3)
    if report.details.get("upper_exact") != Fraction(15, 8):
        failures.append(f"bound = {report.details.get('upper_exact')}")
    curvature_route = largest_upper(g3)
    if abs(curvature_route.upper - 13 / 8) > 1e-12:
        failures.append(f"curvature route = {curvature_route.upper}")
    if not Fraction(15, 8) > Fraction(13, 8):
        failures.append("not weaker")
    _report(3, "joint-neighbor bound 15/8 on the cubed pentagon, weaker than 13/8", failures)


def test_criterion_4_sandwich_validity():
    failures = []
    for name, g in full_corpus():
        ev = spectrum(g).eigenvalues
        bipartite, _ = is_bipartite(g)
        for t in range(1, 7):
            report = sandwich_bounds(g, t)
            if not report.applicable:
                continue
            if not report.verified:
                failures.append(f"{name} t={t}")
            if not report.details["component_restricted"]:
                if not (report.lower <= ev[1] + 1e-8 and ev[-1] <= report.upper + 1e-8):
                    failures.append(f"{name} t={t} literal arms")
    _report(4, "walk sandwich contains the spectrum, every graph, t <= 6", failures)


def test_criterion_5_curvature_sandwich_exact():
    failures = []
    for name, g in full_corpus():
        for u, v, _ in g.edges():
            if u == v:
                continue
            case = sharpness_case(g, u, v)
            kappa = ricci_curvature(g, u, v).kappa
            if not (case.lower_k <= kappa <= case.upper):
                failures.append(f"{name} ({u},{v})")
            if case.conditions_hold and case.lower_k != kappa:
                failures.append(f"{name} ({u},{v}) conditions without equality")
    _report(5, "formula <= kappa <= mass bound exactly on every adjacent pair", failures)


def test_criterion_6_transport_against_enumeration():
    failures = []
    rng = random.Random(2024)
    graphs = full_corpus()
    count = 0
    while count < 100:
        _, g = graphs[rng.randrange(len(graphs))]
        plain_mu = random_measure(rng, g.vertices(), 4)
        plain_nu = random_measure(rng, g.vertices(), 4)
        mu, nu = ProbMeasure(plain_mu), ProbMeasure(plain_nu)
        cost, plan = wasserstein(g.distance, mu, nu)
        if not verify_plan(plan, mu, nu, g.distance):
            failures.append(f"plan invalid #{count}")
        if cost != enumerate_transport_optimum(g.distance, plain_mu, plain_nu):
            failures.append(f"cost mismatch #{count}")
        try:
            dual_certificate(g.distance, mu, nu, cost)  # raises on gap/Lipschitz
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            failures.append(f"certificate #{count}: {exc}")
        count += 1
    _report(6, "100 random instances match polytope enumeration with exact duals", failures)


def test_criterion_7_transfer_identity():
    failures = []
    for name, g in full_corpus():
        for t in range(1, 7):
            dev = verify_transfer_identity(g, t)
            if dev > 1e-9:
                failures.append(f"{name} t={t}: {dev}")
    _report(7, "walk-graph spectrum equals the transformed spectrum to 1e-9", failures)


def test_criterion_8_contraction():
    failures = []
    for name, g in full_corpus():
        k = global_lower_bound(g)
        if k == 1:
            continue
        audit = contraction_audit(g, 4)
        if not audit.passed or audit.max_ratio > 1:
            failures.append(f"{name}: ratio {audit.max_ratio} at {audit.witness}")
    _report(8, "exact coupling contraction for every pair, t <= 4", failures)


def test_criterion_9_structure_laws():
    failures = []
    for name, g in full_corpus():
        bipartite, _ = is_bipartite(g)
        for t in range(1, 7):
            if neighborhood_graph(g, t).degrees != g.degrees:
                failures.append(f"{name} t={t} degrees")
        if bipartite == neighborhood_graph(g, 2).is_connected():
            failures.append(f"{name} two-step connectivity")
        lam_max = spectrum(g).lambda_max
        if bipartite != (abs(lam_max - 2) < 1e-9):
            failures.append(f"{name} largest eigenvalue")
    _report(9, "degree preservation, two-step connectivity and eigenvalue-2 laws", failures)


def test_criterion_10_runtime_budget():
    elapsed = time.monotonic() - _MODULE_START
    failures = [] if elapsed < 60 else [f"{elapsed:.1f}s"]
    _report(10, f"corpus suite finished in {elapsed:.1f}s (< 60 s)", failures)
