"""Curvature-based eigenvalue bounds and the audits behind them.

Bounds emitted here, each as a BoundReport checked against the computed
spectrum:

* spectral gap:       lambda_1 >= k, with k the exact curvature infimum
                      over adjacent pairs;
* largest eigenvalue: lambda_max <= 2 - k;
* walk sandwich:      1 - (1-k[t])^(1/t) <= lambda_1 <= ... <= lambda_max
                      <= 1 + (1-k[t])^(1/t), with k[t] the curvature
                      infimum on the walk graph G[t];
* spectral transfer:  the same root construction driven by caller-supplied
                      eigenvalue bounds A[t] (lower, for lambda_1 of G[t])
                      and B[t] (upper, for lambda_max of G[t]);
* joint neighbors:    bounds on lambda_max from the extremal counts of
                      triangles-plus-loops per edge.

When the base graph is bipartite and t is even, G[t] disconnects and the
eigenvalues lambda in {0, 2} map to 0 under 1 - (1-lambda)^t, escaping the
per-component argument; the sandwich check then skips exactly those mapped-
to-zero eigenvalues and the report is flagged component_restricted.

The audits replay the inequalities the bounds rest on, in exact arithmetic:
coupling contraction of t-step walks, hop-metric comparison with the walk
graph, and curvature transfer to G[t].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .curvature import global_lower_bound, lower_bound_formula, ricci_curvature
from .errors import InvalidBoundInput
from .graph import WeightedGraph, _adjacent_pairs, neighbor_partition
from .spectrum import spectrum
from .tolerances import BOUND_SLACK, EIGENVALUE_EXCLUSION_TOL
from .transport import wasserstein
from .walk import neighborhood_graph, one_step_measure


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: value(s), applicability, and a spectrum check."""

    name: str
    t: Optional[int]
    inputs: dict
    lower: Optional[float]
    upper: Optional[float]
    applicable: bool
    reason: str
    verified: Optional[bool]
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ContractionAudit:
    """Worst ratio of W_1(t-step walks) to (1-k)^t d(x, y) over all pairs.

    On a graph with no distinct-vertex edge the audit is inapplicable: k and
    passed are None.
    """

    k: Optional[Fraction]
    t_max: int
    passed: Optional[bool]
    equality_mode: bool
    max_ratio: Optional[Fraction]
    witness: Optional[tuple]


@dataclass(frozen=True)
class MetricAudit:
    """Hop-metric comparison between the base graph and its walk graph."""

    t: int
    lower_holds: bool
    edge_subset: bool
    upper_holds: Optional[bool]


@dataclass(frozen=True)
class CurvatureTransferAudit:
    """Check kappa[t](x, y) >= 1 - t (1-k)^t for all distinct pairs of G[t]."""

    t: int
    applicable: bool
    reason: str
    threshold: Optional[Fraction]
    min_kappa: Optional[Fraction]
    passed: Optional[bool]
    witness: Optional[tuple]


@dataclass(frozen=True)
class KScanRow:
    t: int
    k_exact: Optional[Fraction]
    k_formula: Optional[Fraction]
    lower: Optional[float]
    upper: Optional[float]
    component_restricted: bool
    verified: Optional[bool]


@dataclass(frozen=True)
class KScanTable:
    rows: tuple
    best_lower_t: Optional[int]
    best_upper_t: Optional[int]


def _signed_root(value: float, t: int) -> float:
    """Real t-th root; for odd t defined for negative values as well."""
    if t % 2 == 0 and value < 0:
        raise InvalidBoundInput(f"even-order root of negative value {value}")
    return math.copysign(abs(value) ** (1.0 / t), value)


def _holds(lowest: float, highest: float, lower, upper) -> bool:
    """lower <= lowest and highest <= upper within BOUND_SLACK; None skips a side."""
    return (lower is None or lowest >= lower - BOUND_SLACK) and (
        upper is None or highest <= upper + BOUND_SLACK
    )


def _one_step(g: WeightedGraph, name: str, lower_side: bool) -> BoundReport:
    """lambda_1 >= k (lower_side) or lambda_max <= 2 - k, k the exact infimum."""
    k = global_lower_bound(g)
    if k is None:
        return BoundReport(
            name=name, t=None, inputs={}, lower=None,
            upper=None, applicable=False,
            reason="no adjacent distinct pairs", verified=None,
        )
    spec = spectrum(g)
    lower, upper = (float(k), None) if lower_side else (None, float(2 - k))
    return BoundReport(
        name=name,
        t=None,
        inputs={"k": k},
        lower=lower,
        upper=upper,
        applicable=True,
        reason="curvature infimum over adjacent pairs",
        verified=_holds(spec.lambda_1, spec.lambda_max, lower, upper),
        details=(
            {"lambda_1": spec.lambda_1} if lower_side else {"lambda_max": spec.lambda_max}
        ),
    )


def ollivier_lower(g: WeightedGraph) -> BoundReport:
    """lambda_1 >= k for the exact curvature infimum k over adjacent pairs."""
    return _one_step(g, "spectral_gap_from_curvature", True)


def largest_upper(g: WeightedGraph) -> BoundReport:
    """lambda_max <= 2 - k for the exact curvature infimum k."""
    return _one_step(g, "largest_eigenvalue_from_curvature", False)


def _sandwich_check(g: WeightedGraph, t: int, lower: float, upper: float):
    """Check eigenvalues against [lower, upper], skipping those with (1-l)^t = 1.

    Returns the verdict and the numbers of eigenvalues checked and skipped.
    """
    eigenvalues = spectrum(g).eigenvalues
    # float() keeps _holds a Python bool, not a numpy one
    checked = [
        float(lam) for lam in eigenvalues
        if abs((1.0 - lam) ** t - 1.0) > EIGENVALUE_EXCLUSION_TOL
    ]
    ok = not checked or _holds(checked[0], checked[-1], lower, upper)
    return ok, len(checked), len(eigenvalues) - len(checked)


def sandwich_bounds(g: WeightedGraph, t: int) -> BoundReport:
    """Two-sided eigenvalue bounds from the curvature infimum of G[t].

    k[t] is the exact curvature minimum over adjacent distinct pairs of
    G[t] (its formula counterpart is reported alongside).  For bipartite
    graphs at even t the walk graph disconnects: k[t] is then the minimum
    over within-component pairs, the report carries
    component_restricted=True, and eigenvalues mapping to 0 under
    1 - (1-lambda)^t (exactly lambda in {0, 2}) are exempt from the check.
    """
    gt = neighborhood_graph(g, t)
    restricted = not gt.is_connected()
    k_t = global_lower_bound(gt)
    if k_t is None:
        return BoundReport(
            name="walk_sandwich", t=t, inputs={}, lower=None, upper=None,
            applicable=False,
            reason="no adjacent distinct pairs in the walk graph",
            verified=None,
            details={"component_restricted": restricted},
        )
    k_t_formula = min(lower_bound_formula(gt, u, v) for u, v in _adjacent_pairs(gt))
    root = _signed_root(float(1 - k_t), t)
    lower, upper = 1.0 - root, 1.0 + root
    ok, checked, skipped = _sandwich_check(g, t, lower, upper)
    return BoundReport(
        name="walk_sandwich",
        t=t,
        inputs={"k_t": k_t, "k_t_formula": k_t_formula},
        lower=lower,
        upper=upper,
        applicable=True,
        reason=(
            "per-component curvature infimum on a disconnected walk graph"
            if restricted
            else "curvature infimum on the walk graph"
        ),
        verified=ok,
        details={
            "component_restricted": restricted,
            "eigenvalues_checked": checked,
            "eigenvalues_skipped": skipped,
        },
    )


def transfer_bounds(
    g: WeightedGraph,
    a_t: Optional[float],
    b_t: Optional[float],
    t: int,
) -> BoundReport:
    """Eigenvalue bounds transferred from caller-supplied bounds on G[t].

    ``a_t`` must underestimate the spectral gap of G[t]; ``b_t`` must
    overestimate its largest eigenvalue.  For even t the largest eigenvalue
    of G[t] is at most 1, so b_t is clamped to 1 (recorded in details) and
    the b-side claim is a union: no eigenvalue lies strictly inside
    (1 - (1-b)^(1/t), 1 + (1-b)^(1/t)).  For odd t the a-side gives only
    the lower arm and the b-side gives lambda_max <= 1 - (1-b)^(1/t)
    (real root, so b > 1 is allowed).
    """
    if t < 1:
        raise InvalidBoundInput(f"t must be >= 1, got {t}")
    if a_t is None and b_t is None:
        raise InvalidBoundInput("need at least one of a_t, b_t")
    if any(v is not None and math.isnan(v) for v in (a_t, b_t)):
        raise InvalidBoundInput(f"a_t = {a_t}, b_t = {b_t}: a NaN bound claims nothing")
    even = t % 2 == 0
    details: dict = {}
    inputs: dict = {}

    lower = upper = None
    if a_t is not None:
        if even and a_t > 1:
            raise InvalidBoundInput(
                f"a_t = {a_t} exceeds 1, impossible for even t (walk-graph gap <= 1)"
            )
        if a_t > 2:
            raise InvalidBoundInput(f"a_t = {a_t} exceeds the spectral range")
        inputs["a_t"] = a_t
        root = _signed_root(1.0 - a_t, t)
        lower = 1.0 - root
        if even:
            upper = 1.0 + root

    gap = None
    if b_t is not None:
        if b_t < 0:
            raise InvalidBoundInput(f"b_t = {b_t} is negative, impossible for any t")
        inputs["b_t"] = b_t
        if even:
            clamped = min(b_t, 1.0)
            details["b_clamped"] = clamped != b_t
            root = _signed_root(1.0 - clamped, t)
            gap = (1.0 - root, 1.0 + root)
            details["excluded_interval"] = gap
        else:
            b_upper = 1.0 - _signed_root(1.0 - b_t, t)
            upper = b_upper if upper is None else min(upper, b_upper)

    if lower is not None and upper is not None and lower > upper:
        raise InvalidBoundInput(
            f"claims are jointly impossible: derived lower {lower} > upper {upper}"
        )
    if g.n_vertices == 1:
        return BoundReport(
            name="spectral_transfer", t=t, inputs=inputs, lower=None, upper=None,
            applicable=False, reason="one vertex: no eigenvalue besides lambda_0",
            verified=None,
        )
    spec = spectrum(g)
    ok = _holds(spec.lambda_1, spec.lambda_max, lower, upper)
    if gap is not None:
        lo, hi = gap
        ok &= all(
            not (lo + BOUND_SLACK < lam < hi - BOUND_SLACK)
            for lam in spec.eigenvalues
        )
    return BoundReport(
        name="spectral_transfer",
        t=t,
        inputs=inputs,
        lower=lower,
        upper=upper,
        applicable=True,
        reason="caller-supplied walk-graph eigenvalue bounds",
        verified=ok,
        details=details,
    )


def _edges_within(a: WeightedGraph, b: WeightedGraph) -> bool:
    """True when every edge of a, loops included, is an edge of b."""
    return all(ra.keys() <= rb.keys() for ra, rb in zip(a._rows, b._rows))


def _joint_neighbor_stats(g: WeightedGraph):
    """Extremal triangles-plus-loops counts and weights over edges."""
    counts = [
        len(neighbor_partition(g, u, v).n_xy) + g.has_loop(u) + g.has_loop(v)
        for u, v in _adjacent_pairs(g)
    ]
    weights = [w for _, _, w in g.edges()]
    return min(counts, default=None), max(counts, default=None), min(weights), max(weights)


def joint_neighbor_bounds(g: WeightedGraph) -> BoundReport:
    """lambda_max bounds from extremal joint-neighbor counts.

    With sharp_1/sharp_2 the min/max over edges of (triangles through the
    edge + loop indicators at its ends), w/W the min/max edge weight (loops
    included):

    * if every edge of g persists in G[2]:
          lambda_max <= 2 - (w^2/W) sharp_1 / max_x d_x
    * if every edge of G[2] already exists in g:
          lambda_max >= 2 - (W^2/w) sharp_2 / min_x d_x

    The upper bound lies in [2 - N, 2] and applies whenever the lower one
    does (G[2] has every loop, so then g does).  A lower bound that
    overflows a float64 is dropped, with its exact value, and the reason
    says so.
    """
    g2 = neighborhood_graph(g, 2)
    applies_upper = _edges_within(g, g2)
    applies_lower = _edges_within(g2, g)
    sharp_min, sharp_max, w_min, w_max = _joint_neighbor_stats(g)
    spec = spectrum(g)

    details: dict = {
        "edge_subset_of_walk_graph": applies_upper,
        "walk_graph_subset_of_edges": applies_lower,
    }
    inputs = {
        "sharp_min": sharp_min,
        "sharp_max": sharp_max,
        "w_min": w_min,
        "w_max": w_max,
    }
    lower = upper = None
    overflow = ""
    if applies_upper and sharp_min is not None:
        exact_upper = 2 - (w_min * w_min / w_max) * Fraction(sharp_min) / max(g.degrees)
        details["upper_exact"] = exact_upper
        upper = float(exact_upper)
    if applies_lower and sharp_max is not None:
        exact_lower = 2 - (w_max * w_max / w_min) * Fraction(sharp_max) / min(g.degrees)
        try:
            lower = float(exact_lower)
            details["lower_exact"] = exact_lower
        except OverflowError:
            overflow = "; the exact lower bound overflows a float64"
    applicable = upper is not None or lower is not None
    verified = _holds(spec.lambda_max, spec.lambda_max, lower, upper) if applicable else None
    if applicable:
        reason = "edge-set inclusion with the walk graph" + overflow
    elif sharp_min is None:
        reason = "no adjacent distinct pairs"
    else:
        reason = "neither edge-set inclusion with the walk graph holds"
    return BoundReport(
        name="joint_neighbors",
        t=None,
        inputs=inputs,
        lower=lower,
        upper=upper,
        applicable=applicable,
        reason=reason,
        verified=verified,
        details=details,
    )


def contraction_audit(g: WeightedGraph, t_max: int) -> ContractionAudit:
    """Exact check of W_1(t-step walks) <= (1-k)^t d(x, y), 1 <= t <= t_max.

    k is the exact curvature infimum of the connected graph g.  For k = 1
    the right side vanishes and the audit degenerates to the equality check
    W_1 = 0 for every pair.  Both sides stay rational throughout.  Without a
    distinct-vertex edge there is no k, and the audit is inapplicable.
    Pairs are scanned in (t, x, y) order.  The witness is the first pair of
    the largest ratio, or in equality mode the first pair with W_1 > 0.
    """
    k = global_lower_bound(g)
    if k is None:
        return ContractionAudit(
            k=None, t_max=t_max, passed=None, equality_mode=False,
            max_ratio=None, witness=None,
        )
    equality_mode = k == 1
    n = g.n_vertices
    measures = [one_step_measure(g, x) for x in range(n)]
    passed = True
    max_ratio = None
    witness = None
    for t in range(1, t_max + 1):
        if t > 1:
            measures = [mu.pushforward(g) for mu in measures]
        shrink = (1 - k) ** t
        for x in range(n):
            for y in range(x + 1, n):
                w1, _ = wasserstein(g.distance, measures[x], measures[y])
                bound = shrink * g.distance(x, y)
                if equality_mode:
                    # k = 1 forces identical walk distributions
                    if w1 > 0 and passed:
                        passed = False
                        witness = (x, y, t)
                else:
                    ratio = w1 / bound
                    if max_ratio is None or ratio > max_ratio:
                        max_ratio = ratio
                        witness = (x, y, t)
                    if ratio > 1:
                        passed = False
    return ContractionAudit(
        k=k,
        t_max=t_max,
        passed=passed,
        equality_mode=equality_mode,
        max_ratio=max_ratio,
        witness=witness,
    )


def metric_audit(g: WeightedGraph, t: int) -> MetricAudit:
    """Compare hop metrics of g and G[t].

    d(x, y)/t <= d_t(x, y) always (an edge of G[t] spans at most t hops of
    g); when every edge of g persists in G[t], additionally
    d_t(x, y) <= d(x, y).
    """
    gt = neighborhood_graph(g, t)
    # UNREACHABLE is math.inf: a pair G[t] cannot join passes both checks
    # (d <= inf), and a pair only g cannot join fails the lower one
    pairs = [
        pair
        for row, row_t in zip(g.distance_matrix(), gt.distance_matrix())
        for pair in zip(row, row_t)
    ]
    lower_holds = all(d <= t * dt for d, dt in pairs)
    edge_subset = _edges_within(g, gt)
    upper_holds = all(dt <= d for d, dt in pairs) if edge_subset else None
    return MetricAudit(
        t=t, lower_holds=lower_holds, edge_subset=edge_subset, upper_holds=upper_holds
    )


def curvature_transfer_check(g: WeightedGraph, t: int) -> CurvatureTransferAudit:
    """Check kappa[t](x, y) >= 1 - t (1-k)^t on every distinct pair of G[t].

    Applicable only when every edge of g persists in G[t] (which forces
    G[t] to stay connected); otherwise the transfer argument has no footing
    and the audit reports inapplicable.
    """
    gt = neighborhood_graph(g, t)
    if not _edges_within(g, gt):
        return CurvatureTransferAudit(
            t=t, applicable=False,
            reason="some edge of the graph is missing from the walk graph",
            threshold=None, min_kappa=None, passed=None, witness=None,
        )
    k = global_lower_bound(g)
    if k is None:
        return CurvatureTransferAudit(
            t=t, applicable=False, reason="no adjacent distinct pairs",
            threshold=None, min_kappa=None, passed=None, witness=None,
        )
    threshold = 1 - t * (1 - k) ** t
    min_kappa = None
    witness = None
    passed = True
    n = g.n_vertices
    for x in range(n):
        for y in range(x + 1, n):
            kappa = ricci_curvature(gt, x, y).kappa
            if min_kappa is None or kappa < min_kappa:
                min_kappa = kappa
                witness = (x, y)
            if kappa < threshold:
                passed = False
    return CurvatureTransferAudit(
        t=t,
        applicable=True,
        reason="edge set persists in the walk graph",
        threshold=threshold,
        min_kappa=min_kappa,
        passed=passed,
        witness=witness,
    )


def k_scan(g: WeightedGraph, t_max: int) -> KScanTable:
    """Sandwich bounds for t = 1..t_max, with the best rows marked.

    t_max has no default: each row costs a curvature minimum over G[t], so
    the caller sets the budget.
    """
    rows = []
    for t in range(1, t_max + 1):
        report = sandwich_bounds(g, t)
        rows.append(KScanRow(
            t=t,
            k_exact=report.inputs.get("k_t"),
            k_formula=report.inputs.get("k_t_formula"),
            lower=report.lower,
            upper=report.upper,
            component_restricted=report.details.get("component_restricted", False),
            verified=report.verified,
        ))
    # an inapplicable row has no bounds; max and min keep the smallest t of a tie
    lowers = {row.t: row.lower for row in rows if row.lower is not None}
    uppers = {row.t: row.upper for row in rows if row.upper is not None}
    return KScanTable(
        rows=tuple(rows),
        best_lower_t=max(lowers, key=lowers.get, default=None),
        best_upper_t=min(uppers, key=uppers.get, default=None),
    )
