"""Random-walk measures, neighborhood graphs, heat kernel, lazy walks.

The one-step walk from x lands on y with probability m_x(y) = w_xy/d_x; the
one-step measure is row x of the graph's integer weights over its sum.

P works on the graph's integers: with s its scale and L the LCM of the
scaled degrees s*d_x, W_s = s*W and M = L*D^-1*W = L*P are integer
matrices.  ``_times_step``, a sparse integer row times M, is the one
implementation of P: ``ProbMeasure.pushforward`` is one product on a
measure's numerators, over den*L, and ``_next_rows`` takes the integer rows
of G[t-1], over its scale s', to those of G[t] = G[t-1]*P, over s'*L, so no
mass or weight becomes a Fraction on the way.

The t-th neighborhood graph G[t] keeps the vertex set and sets
w_xy[t] = (t-step probability x -> y) * d_x.  Degrees are preserved
(d_x[t] = d_x) and x ~ y in G[t] exactly when a walk of length t joins them,
which this module determines structurally from boolean reachability rather
than from the arithmetic.  G[1] is g itself; G[2], G[3], ... are built once
per graph object, each chained from the one before, and kept on g.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Optional

from .errors import InternalInconsistency, LoopAlreadyPresent
from .graph import ZERO, WeightedGraph, _check_vertices, as_weight, build_graph


class ProbMeasure:
    """Sparse exact probability measure over vertices.

    Masses must be exact (ints, Fractions, or strings that Fraction reads)
    and sum to one: a float raises TypeError, as it would smuggle binary
    rounding into exact results, and a negative mass ValueError; zero
    masses are dropped.  They are stored as integer numerators over one
    denominator, the LCM of their reduced denominators, keyed in increasing
    vertex order; the accessors return Fractions.  A measure also keeps
    each W_1 that ``transport.wasserstein`` finds from it, keyed by (metric,
    partner measure), for its lifetime; equality, hashing and pickling
    ignore them.
    """

    __slots__ = ("_num", "_den", "_solved")

    def __init__(self, mass: Mapping[int, Fraction]):
        exact = {}
        for v, m in mass.items():
            if isinstance(m, float):
                raise TypeError(f"masses must be exact (int, Fraction or string), got {m!r} at {v}")
            m = Fraction(m)
            if m < 0:
                raise ValueError(f"negative mass {m} at vertex {v}")
            if m > 0:
                exact[v] = m
        den = math.lcm(*(q.denominator for q in exact.values()))
        num = {v: exact[v].numerator * (den // exact[v].denominator) for v in sorted(exact)}
        if sum(num.values()) != den:
            raise ValueError("masses must sum to exactly 1")
        self._num, self._den, self._solved = num, den, {}

    @classmethod
    def _from_integers(cls, num: Mapping[int, int], den: int) -> "ProbMeasure":
        """Masses num[v]/den, for positive ints keyed in increasing order that sum to den.

        Dividing out the gcd of den and every numerator leaves the LCM of the
        reduced denominators, the form ``__init__`` stores.
        """
        common = math.gcd(den, *num.values())
        measure = cls.__new__(cls)
        measure._num = {v: q // common for v, q in num.items()}
        measure._den = den // common
        measure._solved = {}
        return measure

    @property
    def support(self) -> tuple:
        return tuple(self._num)

    def mass(self, v: int) -> Fraction:
        q = self._num.get(v)
        return ZERO if q is None else Fraction(q, self._den)

    def items(self):
        return {v: Fraction(q, self._den) for v, q in self._num.items()}.items()

    def pushforward(self, g: WeightedGraph) -> "ProbMeasure":
        """One walk step, (mu P)(y) = sum_x mu(x) w_xy / d_x; ValueError off g's vertices."""
        _check_vertices(g, *self._num)
        big = math.lcm(*g._degrees)
        out = _times_step(g, self._num, big)
        return ProbMeasure._from_integers(dict(sorted(out.items())), self._den * big)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, tuple(self._num.items())))

    def __reduce__(self):
        # the kept solves hold their metrics, which need not pickle
        return type(self)._from_integers, (self._num, self._den)

    def __repr__(self) -> str:
        inside = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"ProbMeasure({{{inside}}})"


def _times_step(g: WeightedGraph, row: Mapping[int, int], big: int) -> dict:
    """row * M for M = big*D^-1*W_s, big the LCM of the scaled degrees; sums to big*sum(row)."""
    out = {}
    for z, mass in row.items():
        mass *= big // g._degrees[z]
        for y, w in g._rows[z].items():
            out[y] = out.get(y, 0) + mass * w
    return out


def one_step_measure(g: WeightedGraph, x: int) -> ProbMeasure:
    """m_x: mass w_xy/d_x on each neighbor y (x included iff it has a loop).

    Built once per graph object and vertex, then read from the graph's cache.
    """
    _check_vertices(g, x)
    measure = g._measures[x]
    if measure is None:
        measure = g._measures[x] = ProbMeasure._from_integers(g._rows[x], g._degrees[x])
    return measure


def t_step_measure(g: WeightedGraph, x: int, t: int) -> ProbMeasure:
    """Distribution of a t-step walk from x, t >= 1: row x of W[t] over d_x.

    This is the one-step measure of G[t] at x, so a first call for some t
    builds all of G[t] (and every G[s] before it) for the one vertex.
    """
    return one_step_measure(neighborhood_graph(g, t), x)


def _next_rows(g: WeightedGraph, prev: WeightedGraph) -> tuple:
    """Integer rows of G[t] and their scale, from prev = G[t-1]: each row of prev times M."""
    big = math.lcm(*g._degrees)
    return [_times_step(g, row, big) for row in prev._rows], prev._scale * big


def neighborhood_graph(g: WeightedGraph, t: int) -> WeightedGraph:
    """G[t] with w_xy[t] = (t-step probability x -> y) * d_x; G[1] is g.

    G[t] is built once per graph object, from G[t-1], and kept on g, so a
    repeat call returns the same object.  Every level up to the largest t
    requested stays on g for g's lifetime, and each level's integers are
    longer than the last: t = 64 on a 40-vertex random graph holds about
    22 MB.  On every level it builds, row x's
    support must equal boolean reachability in exactly t steps (the
    g-neighbors of x's neighbors in G[t-1]), and the exact weights must be
    positive on it, sum to d_x and be symmetric; any failure raises
    InternalInconsistency, and the level that failed is not kept.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    walks = g._walks
    while len(walks) < t - 1:
        prev = walks[-1] if walks else g
        rows, scale = _next_rows(g, prev)
        for x, row in enumerate(rows):
            reach = set().union(*(g._rows[z] for z in prev._rows[x]))
            if row.keys() != reach or not all(w > 0 for w in row.values()):
                raise InternalInconsistency(f"walk support from {x} disagrees with reachability")
            if sum(row.values()) * g._scale != g._degrees[x] * scale:
                raise InternalInconsistency(f"t-step weights from {x} do not sum to its degree")
            for y, w in row.items():
                # reversibility: d_x * P^t(x, y) == d_y * P^t(y, x)
                if rows[y].get(x) != w:
                    raise InternalInconsistency(f"t-step weights of ({x}, {y}) are not symmetric")
        walks.append(WeightedGraph(rows, scale))
    return walks[t - 2] if t > 1 else g


def heat_kernel(g: WeightedGraph, t: int, x: int, y: int) -> Fraction:
    """p_t(x, y) = w_xy[t] / (d_x d_y); symmetric in x and y."""
    _check_vertices(g, x, y)
    return t_step_measure(g, x, t).mass(y) / g.degree(y)


def lazy_graph(g: WeightedGraph, laziness) -> WeightedGraph:
    """Add loops so the walk stays put with the requested probability.

    ``laziness`` is one exact staying probability alpha in [0, 1) for every
    vertex.  Off-loop transition probabilities keep their ratios: the loop
    at x weighs d_x * alpha / (1 - alpha), so the new walk satisfies
    m_x(x) = alpha.  The input graph must be loop-free.
    """
    if any(g.has_loop(x) for x in g.vertices()):
        raise LoopAlreadyPresent("lazy_graph requires a loop-free graph")
    alpha = as_weight(laziness)
    if not 0 <= alpha < 1:
        raise ValueError(f"laziness must lie in [0, 1), got {alpha}")
    # alpha = 0 adds no loop: build_graph rejects a zero weight
    loops = [(x, x, g.degree(x) * alpha / (1 - alpha)) for x in g.vertices() if alpha]
    return build_graph([*g.edges(), *loops])


def first_complete_t(g: WeightedGraph, t_max: int) -> Optional[int]:
    """Smallest t <= t_max at which G[t] is complete with a loop everywhere.

    Returns None when no such t exists within the budget; for bipartite
    graphs none ever does (walks of length t cannot reach both color
    classes and return to the start for the same t).
    """
    n = g.n_vertices
    # per vertex x, the ends of the length-t walks from x
    reach = [row.keys() for row in g._rows]
    for t in range(1, t_max + 1):
        if t > 1:
            reach = [set().union(*(g._rows[z] for z in r)) for r in reach]
        if all(len(r) == n for r in reach):
            return t
    return None
