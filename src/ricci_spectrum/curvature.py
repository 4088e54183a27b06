"""Ollivier-Ricci curvature of vertex pairs, with sharp closed-form bounds.

The curvature along a pair of distinct vertices is

    kappa(x, y) = 1 - W_1(m_x, m_y) / d(x, y),

where m_x is the one-step walk measure at x and d the hop metric.  For
adjacent pairs two closed-form bounds come from the neighborhood partition
(common neighbors N_xy, exclusive neighbors N_x^1/N_y^1, loop masses):

    A = 1 - w_xy/d_x - w_xy/d_y - sum_{z in N_xy} max(w_zx/d_x, w_zy/d_y)
    B = 1 - w_xy/d_x - w_xy/d_y - sum_{z in N_xy} min(w_zx/d_x, w_zy/d_y)

    lower(x, y) = -max(A, 0) - max(B, 0)
                  + sum_{z in N_xy} min(w_zx/d_x, w_zy/d_y)
                  + w_xx/d_x + w_yy/d_y                  <= kappa(x, y)

    upper(x, y) = sum over z in {x, y} and N_xy of min(w_zx/d_x, w_zy/d_y)
                                                        >= kappa(x, y)

The lower bound is attained whenever certain mass relocations can be
certified by a 1-Lipschitz potential; sharpness_case evaluates those
obstruction conditions per sign case of (A, B) and also compares the bound
with the exact curvature.  Both bounds are computed on the partition's
integer masses; global_lower_bound is the exact curvature minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import math

from .errors import InfiniteDistance, SameVertex
from .graph import WeightedGraph, _adjacent_pairs, _check_vertices, neighbor_partition
from .transport import wasserstein
from .walk import one_step_measure

CASE_A_NONNEG = "A>=0"
CASE_A_NEG_B_NONNEG = "A<0<=B"
CASE_B_NEG = "B<0"


@dataclass(frozen=True)
class CurvatureValue:
    """kappa = 1 - w1/distance for a pair of distinct vertices."""

    pair: tuple
    kappa: Fraction
    w1: Fraction
    distance: int


@dataclass(frozen=True)
class BoundFormulaResult:
    """Closed-form bound evaluation for an adjacent pair.

    ``case`` records the signs of (A, B); ``conditions_hold`` whether the
    Lipschitz-extension obstructions of that case are absent (a sufficient
    condition for the lower bound to be attained); ``equality`` whether the
    lower bound actually equals the exact curvature.
    """

    pair: tuple
    lower_k: Fraction
    upper: Fraction
    a_xy: Fraction
    b_xy: Fraction
    case: str
    conditions_hold: bool
    equality: bool


def ricci_curvature(g: WeightedGraph, x: int, y: int) -> CurvatureValue:
    """Exact kappa(x, y) via an optimal transport solve on (m_x, m_y)."""
    _check_vertices(g, x, y)
    if x == y:
        raise SameVertex("curvature is defined for distinct vertices")
    d = g.distance(x, y)
    if math.isinf(d):
        raise InfiniteDistance(f"{x} and {y} lie in different components")
    w1, _ = wasserstein(g.distance, one_step_measure(g, x), one_step_measure(g, y))
    # 1 - w1/d as one Fraction, with one gcd
    kappa = Fraction(d * w1.denominator - w1.numerator, d * w1.denominator)
    return CurvatureValue(pair=(x, y), kappa=kappa, w1=w1, distance=d)


def _formula_terms(g: WeightedGraph, x: int, y: int):
    """Partition, then A, B and both bounds as integer numerators over ``den``."""
    part = neighbor_partition(g, x, y)
    den = part.den
    shared = den - part.edge_mass_x - part.edge_mass_y
    a = shared - part.common_max
    b = shared - part.common_min
    lower = -max(a, 0) - max(b, 0) + part.common_min + part.loop_x + part.loop_y
    # the z = x and z = y terms of the upper bound's sum
    upper = min(part.loop_x, part.edge_mass_y) + min(part.edge_mass_x, part.loop_y)
    upper += part.common_min
    return part, a, b, lower, upper


def lower_bound_formula(g: WeightedGraph, x: int, y: int) -> Fraction:
    """Closed-form lower bound for kappa(x, y) on an adjacent pair."""
    part, _, _, lower, _ = _formula_terms(g, x, y)
    return Fraction(lower, part.den)


def upper_bound_formula(g: WeightedGraph, x: int, y: int) -> Fraction:
    """Mass of m_x that need not move: an upper bound for kappa(x, y)."""
    part, _, _, _, upper = _formula_terms(g, x, y)
    return Fraction(upper, part.den)


def _min_distance_at_least(g, left, right, bound) -> bool:
    return all(g.distance(s, t) >= bound for s in left for t in right)


def sharpness_case(g: WeightedGraph, x: int, y: int) -> BoundFormulaResult:
    """Classify the (A, B) sign case and test the sharpness conditions.

    Obstruction conditions per case (absence makes the bound attained):

    * A >= 0: no edges N_x^1 -- N_x<y, no edges N_y^1 -- N_x>=y, and no
      paths of length 1 or 2 between N_x^1 and N_y^1;
    * A < 0 <= B: no edges between N_x^1 u N_x>=y and N_y^1 u N_x<y;
    * B < 0: none (the bound is always attained).

    ``equality`` is the exact comparison lower == kappa, which can hold even
    when the sufficient conditions fail.
    """
    part, a, b, lower, upper = _formula_terms(g, x, y)
    lower_k = Fraction(lower, part.den)

    if a >= 0:
        case = CASE_A_NONNEG
        conditions = (
            _min_distance_at_least(g, part.n_x1, part.n_x_lt_y, 2)
            and _min_distance_at_least(g, part.n_y1, part.n_x_ge_y, 2)
            and _min_distance_at_least(g, part.n_x1, part.n_y1, 3)
        )
    elif b >= 0:
        case = CASE_A_NEG_B_NONNEG
        conditions = _min_distance_at_least(
            g, part.n_x1 | part.n_x_ge_y, part.n_y1 | part.n_x_lt_y, 2
        )
    else:
        case = CASE_B_NEG
        conditions = True

    equality = lower_k == ricci_curvature(g, x, y).kappa
    return BoundFormulaResult(
        pair=(x, y),
        lower_k=lower_k,
        upper=Fraction(upper, part.den),
        a_xy=Fraction(a, part.den),
        b_xy=Fraction(b, part.den),
        case=case,
        conditions_hold=conditions,
        equality=equality,
    )


def global_lower_bound(g: WeightedGraph) -> Optional[Fraction]:
    """min over adjacent distinct pairs of the exact curvature.

    Adjacent pairs are the binding set: a bound over neighbors extends to
    all pairs by chaining optimal couplings along shortest paths.  Returns
    None when the graph has no distinct-vertex edges (loops only), in which
    case every such bound is vacuous.
    """
    kappas = (ricci_curvature(g, u, v).kappa for u, v in _adjacent_pairs(g))
    return min(kappas, default=None)


def unweighted_terms(g: WeightedGraph, x: int, y: int) -> Optional[dict]:
    """Triangle and loop counts of an adjacent pair on a uniformly weighted graph.

    When every edge carries one common weight, the lower bound depends only
    on the neighbor counts n_x = d_x/w, the number tri of triangles sharing
    the edge, and the loop indicators c(x), c(y):

        -max(1 - 1/n_x - 1/n_y - tri/min(n_x, n_y), 0)
        -max(1 - 1/n_x - 1/n_y - tri/max(n_x, n_y), 0)
        + tri/max(n_x, n_y) + c(x)/n_x + c(y)/n_y

    Returns {"triangles": tri, "loop_x": c(x), "loop_y": c(y)}, or None for
    non-uniform graphs; :func:`lower_bound_formula` evaluates the bound.
    """
    if g.uniform_weight() is None:
        return None
    return {
        "triangles": len(neighbor_partition(g, x, y).n_xy),
        "loop_x": 1 if g.has_loop(x) else 0,
        "loop_y": 1 if g.has_loop(y) else 0,
    }
