"""Random-walk measures, neighborhood graphs, heat kernel, lazy walks.

The one-step walk from x lands on y with probability m_x(y) = w_xy/d_x.
Pushing a measure through one step is mu P(y) = sum_x mu(x) m_x(y); t-step
distributions are t successive exact pushforwards (kept as Fractions, so the
support is exact as well).

The t-th neighborhood graph G[t] keeps the vertex set and sets
w_xy[t] = (t-step probability x -> y) * d_x.  Degrees are preserved
(d_x[t] = d_x) and x ~ y in G[t] exactly when a walk of length t joins them,
which this module determines structurally from boolean reachability rather
than from the arithmetic.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Mapping, Optional

from .errors import InternalInconsistency, LoopAlreadyPresent
from .graph import WeightedGraph, as_weight

ZERO = Fraction(0)


class ProbMeasure:
    """Sparse exact probability measure over vertices.

    Masses are positive Fractions on the support and must sum to one.
    """

    __slots__ = ("_mass",)

    def __init__(self, mass: Mapping[int, Fraction]):
        cleaned = {}
        for v, m in mass.items():
            m = Fraction(m)
            if m < 0:
                raise ValueError(f"negative mass {m} at vertex {v}")
            if m > 0:
                cleaned[v] = m
        if sum(cleaned.values(), ZERO) != 1:
            raise ValueError("masses must sum to exactly 1")
        self._mass = {v: cleaned[v] for v in sorted(cleaned)}

    @property
    def support(self) -> tuple:
        return tuple(self._mass)

    def mass(self, v: int) -> Fraction:
        return self._mass.get(v, ZERO)

    __getitem__ = mass

    def items(self):
        return self._mass.items()

    def pushforward(self, g: WeightedGraph) -> "ProbMeasure":
        """One walk step: (mu P)(y) = sum_x mu(x) w_xy / d_x."""
        out = defaultdict(lambda: ZERO)
        for v, m in self._mass.items():
            dv = g.degree(v)
            for y, w in g.neighbor_items(v):
                out[y] += m * w / dv
        return ProbMeasure(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProbMeasure):
            return NotImplemented
        return self._mass == other._mass

    def __hash__(self):
        return hash(tuple(self._mass.items()))

    def __repr__(self) -> str:
        inside = ", ".join(f"{v}: {m}" for v, m in self._mass.items())
        return f"ProbMeasure({{{inside}}})"


def one_step_measure(g: WeightedGraph, x: int) -> ProbMeasure:
    """m_x: mass w_xy/d_x on each neighbor y (x included iff it has a loop)."""
    dx = g.degree(x)
    return ProbMeasure({y: w / dx for y, w in g.neighbor_items(x)})


def t_step_measure(g: WeightedGraph, x: int, t: int) -> ProbMeasure:
    """Distribution of a t-step walk from x, t >= 1, by exact pushforwards."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    mu = one_step_measure(g, x)
    for _ in range(t - 1):
        mu = mu.pushforward(g)
    return mu


def _reach_sets(g: WeightedGraph):
    """Boolean one-step reachability (neighbor sets, loops included)."""
    return [set(g.neighbors(x)) for x in g.vertices()]


def _advance_reach(reach, step):
    return [set().union(*(step[z] for z in r)) if r else set() for r in reach]


def neighborhood_graph(g: WeightedGraph, t: int) -> WeightedGraph:
    """Build G[t] with w_xy[t] = (t-step probability x -> y) * d_x.

    The edge set is fixed by boolean reachability in exactly t steps; the
    exact rational weights must agree with it and be symmetric; either
    failure raises InternalInconsistency.  G[1] equals g (same weights).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    step = _reach_sets(g)
    reach = step
    for _ in range(t - 1):
        reach = _advance_reach(reach, step)

    n = g.n_vertices
    adjacency = [dict() for _ in range(n)]
    for x in range(n):
        mu = t_step_measure(g, x, t)
        if set(mu.support) != reach[x]:
            raise InternalInconsistency(f"walk support from {x} disagrees with reachability")
        dx = g.degree(x)
        for y, m in mu.items():
            w = m * dx
            if y >= x:
                adjacency[x][y] = w
                if y != x:
                    adjacency[y][x] = w
            else:
                # reversibility: d_x * P^t(x, y) == d_y * P^t(y, x)
                if adjacency[y].get(x) != w:
                    raise InternalInconsistency(f"t-step weights of ({x}, {y}) are not symmetric")
    return WeightedGraph(adjacency)


def heat_kernel(g: WeightedGraph, t: int, x: int, y: int) -> Fraction:
    """p_t(x, y) = w_xy[t] / (d_x d_y); symmetric in x and y."""
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

    adjacency = [dict(g._adj[x]) for x in g.vertices()]
    for x, a in alpha.items():
        if not 0 <= a < 1:
            raise ValueError(f"laziness at {x} must lie in [0, 1), got {a}")
        if a > 0:
            adjacency[x][x] = g.degree(x) * a / (1 - a)
    return WeightedGraph(adjacency)


def first_complete_t(g: WeightedGraph, t_max: int) -> Optional[int]:
    """Smallest t <= t_max at which G[t] is complete with a loop everywhere.

    Returns None when no such t exists within the budget; for bipartite
    graphs none ever does (walks of length t cannot reach both color
    classes and return to the start for the same t).
    """
    n = g.n_vertices
    step = _reach_sets(g)
    reach = step
    for t in range(1, t_max + 1):
        if all(len(r) == n for r in reach):
            return t
        reach = _advance_reach(reach, step)
    return None
