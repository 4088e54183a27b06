"""Random-walk measures, neighborhood graphs, heat kernel, lazy walks.

The one-step walk from x lands on y with probability m_x(y) = w_xy/d_x; the
one-step measure is row x of the graph's integer weights over its sum.
Pushing a measure through one step is mu P(y) = sum_x mu(x) m_x(y); ``_step``
is the one implementation of P, behind ``ProbMeasure.pushforward``.

t-step distributions come from ``_walk_rows``, the one implementation of P^t.
It works on the graph's integers: with s its scale and L the LCM of the
scaled degrees s*d_x, both W_s = s*W and M = L*D^-1*W are integer matrices,
and s*L^(t-1)*W[t] = W_s*M^(t-1).  Each row is t-1 sparse integer
vector-matrix products, and G[t] takes the rows with their scale
s*L^(t-1) as they are, so no weight becomes a Fraction on the way.

The t-th neighborhood graph G[t] keeps the vertex set and sets
w_xy[t] = (t-step probability x -> y) * d_x.  Degrees are preserved
(d_x[t] = d_x) and x ~ y in G[t] exactly when a walk of length t joins them,
which this module determines structurally from boolean reachability rather
than from the arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Mapping, Optional

from .errors import InternalInconsistency, LoopAlreadyPresent
from .graph import ZERO, WeightedGraph, _check_vertices, as_weight, build_graph


def _integer_masses(mass: Mapping, negative=ValueError) -> tuple:
    """Positive masses as integer numerators over one denominator, the LCM of theirs.

    Returns ({v: q * den}, den), keyed in increasing vertex order; zero
    masses are dropped.  Masses must be exact (ints, Fractions, or strings
    that Fraction reads): a float raises TypeError, as it would smuggle
    binary rounding into exact results, and a negative mass ``negative``.
    """
    exact = {}
    for v, m in mass.items():
        if isinstance(m, float):
            raise TypeError(f"masses must be exact (int, Fraction or string), got {m!r} at {v}")
        m = Fraction(m)
        if m < 0:
            raise negative(f"negative mass {m} at vertex {v}")
        if m > 0:
            exact[v] = m
    den = math.lcm(*(q.denominator for q in exact.values()))
    return {v: exact[v].numerator * (den // exact[v].denominator) for v in sorted(exact)}, den


class ProbMeasure:
    """Sparse exact probability measure over vertices.

    Masses are positive on the support and must sum to one.  They are stored
    as integer numerators over one denominator, the LCM of their reduced
    denominators (see ``_integer_masses``); the accessors return Fractions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, mass: Mapping[int, Fraction]):
        num, den = _integer_masses(mass)
        if sum(num.values()) != den:
            raise ValueError("masses must sum to exactly 1")
        self._num, self._den = num, den

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
        """One walk step: (mu P)(y) = sum_x mu(x) w_xy / d_x."""
        return ProbMeasure(_step(g, dict(self.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, tuple(self._num.items())))

    def __repr__(self) -> str:
        inside = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"ProbMeasure({{{inside}}})"


def _step(g: WeightedGraph, mass: Mapping[int, Fraction]) -> dict:
    """y -> sum_v mass(v) w_vy / d_v; keeps the total mass and every mass positive."""
    out = {}
    for v, m in mass.items():
        share = m / g.degree(v)
        for y, w in g.neighbor_items(v):
            out[y] = out[y] + share * w if y in out else share * w
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


def _walk_rows(g: WeightedGraph, t: int, sources) -> tuple:
    """Rows x in ``sources`` of the integer matrix s*L^(t-1)*W[t], and s*L^(t-1).

    Row x is W_s[x]*M^(t-1) (see the module docstring): every entry is a
    positive integer on the ends of the length-t walks from x, and the row
    sums to s*d_x*L^(t-1) because every row of M sums to L.
    """
    big = math.lcm(*g._degrees)
    step = [[(y, big // d * w) for y, w in row.items()] for row, d in zip(g._rows, g._degrees)]
    rows = []
    for x in sources:
        row = g._rows[x]
        for _ in range(t - 1):
            out = {}
            for z, mass in row.items():
                for y, w in step[z]:
                    out[y] = out.get(y, 0) + mass * w
            row = out
        rows.append(row)
    return rows, g._scale * big ** (t - 1)


def t_step_measure(g: WeightedGraph, x: int, t: int) -> ProbMeasure:
    """Distribution of a t-step walk from x, t >= 1: row x of W[t] over d_x."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    _check_vertices(g, x)
    (row,), den = _walk_rows(g, t, (x,))
    return ProbMeasure._from_integers(dict(sorted(row.items())), g._degrees[x] * den // g._scale)


def _reaches(g: WeightedGraph):
    """For t = 1, 2, ...: per vertex x, the set of ends of the length-t walks from x."""
    step = [set(g.neighbors(x)) for x in g.vertices()]
    reach = step
    while True:
        yield reach
        reach = [set().union(*(step[z] for z in r)) for r in reach]


def neighborhood_graph(g: WeightedGraph, t: int) -> WeightedGraph:
    """Build G[t] with w_xy[t] = (t-step probability x -> y) * d_x.

    The edge set is fixed by boolean reachability in exactly t steps; the
    exact weights must be positive on it, sum to d_x in each row and be
    symmetric; any failure raises InternalInconsistency.  G[1] equals g
    (same weights).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    reach = next(islice(_reaches(g), t - 1, None))
    rows, den = _walk_rows(g, t, g.vertices())
    for x, row in enumerate(rows):
        if row.keys() != reach[x] or not all(w > 0 for w in row.values()):
            raise InternalInconsistency(f"walk support from {x} disagrees with reachability")
        if sum(row.values()) != g._degrees[x] * den // g._scale:
            raise InternalInconsistency(f"t-step weights from {x} do not sum to its degree")
        for y, w in row.items():
            # reversibility: d_x * P^t(x, y) == d_y * P^t(y, x)
            if rows[y].get(x) != w:
                raise InternalInconsistency(f"t-step weights of ({x}, {y}) are not symmetric")
    return WeightedGraph(rows, den)


def heat_kernel(g: WeightedGraph, t: int, x: int, y: int) -> Fraction:
    """p_t(x, y) = w_xy[t] / (d_x d_y); symmetric in x and y."""
    _check_vertices(g, x, y)
    return t_step_measure(g, x, t).mass(y) / g.degree(y)


def lazy_graph(g: WeightedGraph, laziness) -> WeightedGraph:
    """Add loops so the walk stays put with the requested probability.

    ``laziness`` maps each vertex to a staying probability alpha in [0, 1)
    (a single value applies to every vertex; missing vertices get 0).  Off-
    loop transition probabilities keep their ratios: the loop at x weighs
    d_x * alpha / (1 - alpha), so the new walk satisfies m_x(x) = alpha.
    The input graph must be loop-free.
    """
    if any(g.has_loop(x) for x in g.vertices()):
        raise LoopAlreadyPresent("lazy_graph requires a loop-free graph")
    if isinstance(laziness, Mapping):
        alpha = {x: as_weight(a) for x, a in laziness.items()}
    else:
        a = as_weight(laziness)
        alpha = {x: a for x in g.vertices()}

    edges = list(g.edges())
    for x, a in alpha.items():
        _check_vertices(g, x)
        if not 0 <= a < 1:
            raise ValueError(f"laziness at {x} must lie in [0, 1), got {a}")
        if a > 0:
            edges.append((x, x, g.degree(x) * a / (1 - a)))
    return build_graph(edges)


def first_complete_t(g: WeightedGraph, t_max: int) -> Optional[int]:
    """Smallest t <= t_max at which G[t] is complete with a loop everywhere.

    Returns None when no such t exists within the budget; for bipartite
    graphs none ever does (walks of length t cannot reach both color
    classes and return to the start for the same t).
    """
    n = g.n_vertices
    for t, reach in zip(range(1, t_max + 1), _reaches(g)):
        if all(len(r) == n for r in reach):
            return t
    return None
