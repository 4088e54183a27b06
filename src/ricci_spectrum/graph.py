"""Weighted undirected graphs with self-loops, in exact rational arithmetic.

Vertices are dense integers 0..N-1; the public walk, curvature and
partition functions raise ValueError for any other vertex id.  The weight
function is symmetric, positive on edges and zero elsewhere; a loop is an
edge (x, x) whose weight counts once in the degree d_x = sum_y w_xy.
Distances are hop counts (number of edges on a shortest path), independent
of the weights; loops never shorten a path between distinct vertices.

Weights, degrees and masses are exact, and each one a function returns is
a fractions.Fraction.  Inside, the hot paths work on integers over a common
denominator: each graph scales its weights once, on first use, by the LCM
of their denominators (``WeightedGraph._integer_weights``), and a value
becomes a Fraction only when it is returned.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    DisconnectedGraph,
    DuplicateEdge,
    EmptyGraph,
    NonPositiveWeight,
    NotNeighbors,
    SameVertex,
)

#: Distance value for vertex pairs in different components.
UNREACHABLE = math.inf

WeightInput = Union[int, str, Fraction]

ZERO = Fraction(0)


def as_weight(value) -> Fraction:
    """Convert a weight input to an exact Fraction.

    Accepts ints, Fractions and strings ("3", "0.25", "3/4").  Floats are
    rejected: silently converting them would smuggle binary rounding into
    results that are contractually exact.
    """
    if isinstance(value, float):
        raise TypeError(
            "edge weights must be exact (int, Fraction, or a decimal/ratio "
            "string such as '0.25' or '1/4'); got a float"
        )
    return Fraction(value)


def _exact_sum(values) -> Fraction:
    """Sum of a collection of exact values over one denominator, the LCM of theirs."""
    den = math.lcm(*(q.denominator for q in values))
    return Fraction(sum(q.numerator * (den // q.denominator) for q in values), den)


class WeightedGraph:
    """Immutable weighted graph with loops.

    Construct via :func:`build_graph`; the constructor takes a fully-built
    adjacency structure and is not meant for direct use.  The accessors sit
    on every hot path and do not check their vertex ids: an id outside
    0..N-1 raises IndexError or, if negative, wraps around.
    """

    __slots__ = ("_n", "_adj", "_degrees", "_dist", "_measures", "_integers")

    def __init__(self, adjacency: Sequence[dict]):
        self._n = len(adjacency)
        # sorted neighbor order makes every downstream iteration deterministic
        self._adj = tuple(
            {y: adjacency[x][y] for y in sorted(adjacency[x])} for x in range(self._n)
        )
        self._degrees = tuple(_exact_sum(nbrs.values()) for nbrs in self._adj)
        self._dist: Optional[tuple] = None
        # one-step walk measures, built on demand by walk.one_step_measure
        self._measures: list = [None] * self._n
        self._integers: Optional[tuple] = None

    # -- basic accessors ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n

    def vertices(self) -> range:
        return range(self._n)

    def weight(self, x: int, y: int) -> Fraction:
        """w_xy; zero when x and y are not neighbors."""
        return self._adj[x].get(y, ZERO)

    def degree(self, x: int) -> Fraction:
        return self._degrees[x]

    @property
    def degrees(self) -> tuple:
        return self._degrees

    def neighbors(self, x: int) -> Iterator[int]:
        """Vertices adjacent to x, in increasing order (x itself iff loop)."""
        return iter(self._adj[x])

    def neighbor_items(self, x: int) -> Iterator[tuple]:
        return iter(self._adj[x].items())

    def adjacent(self, x: int, y: int) -> bool:
        return y in self._adj[x]

    def has_loop(self, x: int) -> bool:
        return x in self._adj[x]

    def loop_weight(self, x: int) -> Fraction:
        return self._adj[x].get(x, ZERO)

    def edges(self) -> Iterator[tuple]:
        """All edges (u, v, w) with u <= v, loops included, sorted."""
        for u in range(self._n):
            for v, w in self._adj[u].items():
                if v >= u:
                    yield (u, v, w)

    def edge_count(self) -> int:
        """Number of distinct-vertex edges (loops not counted)."""
        return sum(1 for u, v, _ in self.edges() if u != v)

    def loop_count(self) -> int:
        return sum(1 for x in range(self._n) if self.has_loop(x))

    def uniform_weight(self) -> Optional[Fraction]:
        """The common weight if every edge (loops included) carries the same one."""
        values = {w for _, _, w in self.edges()}
        return values.pop() if len(values) == 1 else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self):
        return hash((self._n, tuple(tuple(a.items()) for a in self._adj)))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self._n}, edges={self.edge_count()}, "
            f"loops={self.loop_count()})"
        )

    def _integer_weights(self) -> tuple:
        """(s, rows, degrees) with rows[x][y] = s*w_xy and degrees[x] = s*d_x.

        s is the LCM of the weight denominators, so every entry is a positive
        integer.  Built once per graph object, on first use.
        """
        if self._integers is None:
            s = math.lcm(*(w.denominator for _, _, w in self.edges()))
            rows = tuple(
                {y: w.numerator * (s // w.denominator) for y, w in nbrs.items()}
                for nbrs in self._adj
            )
            self._integers = s, rows, tuple(sum(row.values()) for row in rows)
        return self._integers

    # -- hop metric -----------------------------------------------------------

    def distance(self, x: int, y: int):
        """Hop distance; UNREACHABLE (math.inf) across components."""
        return self.distance_matrix()[x][y]

    def distance_matrix(self) -> tuple:
        """All-pairs hop distances from per-vertex BFS, cached on the graph."""
        if self._dist is None:
            rows = []
            for s in range(self._n):
                row = [UNREACHABLE] * self._n
                row[s] = 0
                queue = deque([s])
                while queue:
                    u = queue.popleft()
                    for v in self._adj[u]:
                        if row[v] == UNREACHABLE:
                            row[v] = row[u] + 1
                            queue.append(v)
                rows.append(tuple(row))
            self._dist = tuple(rows)
        return self._dist

    def is_connected(self) -> bool:
        """True when every vertex is reachable from vertex 0."""
        return all(not math.isinf(d) for d in self.distance_matrix()[0])


def _check_vertices(g: WeightedGraph, *ids) -> None:
    """Raise ValueError unless every id is an int vertex of g, in 0..N-1."""
    for v in ids:
        if not (isinstance(v, int) and 0 <= v < g.n_vertices):
            raise ValueError(f"vertex ids must be ints in 0..{g.n_vertices - 1}, got {v!r}")


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Partition of the neighborhoods of an adjacent pair (x, y).

    The four sets exclude x and y and are pairwise disjoint:

    * ``n_x1``     neighbors of x only (not adjacent to y),
    * ``n_y1``     neighbors of y only,
    * ``n_x_ge_y`` common neighbors z with w_xz/d_x >= w_zy/d_y,
    * ``n_x_lt_y`` common neighbors z with w_xz/d_x <  w_zy/d_y.

    ``loop_x``/``loop_y`` are the loop masses w_xx/d_x and w_yy/d_y,
    ``edge_mass_x``/``edge_mass_y`` the cross masses w_xy/d_x and w_xy/d_y,
    and ``common_min``/``common_max`` the sums over common neighbors z of
    min(w_xz/d_x, w_zy/d_y) and max(w_xz/d_x, w_zy/d_y).
    """

    x: int
    y: int
    n_x1: frozenset
    n_y1: frozenset
    n_x_ge_y: frozenset
    n_x_lt_y: frozenset
    loop_x: Fraction
    loop_y: Fraction
    edge_mass_x: Fraction
    edge_mass_y: Fraction
    common_min: Fraction
    common_max: Fraction

    @property
    def n_xy(self) -> frozenset:
        """Common neighbors of x and y other than x, y themselves."""
        return self.n_x_ge_y | self.n_x_lt_y


def build_graph(edges: Iterable) -> WeightedGraph:
    """Build a validated WeightedGraph from (u, v, weight) triples.

    Weights must be positive exact values (see :func:`as_weight`); a pair
    (u, v) may also be given without a weight, which defaults to 1.  Vertex
    ids must form a dense range 0..N-1 once all edges are read (relabel
    beforehand if needed; the CLI layer does this for arbitrary labels).
    u == v creates a loop, whose weight enters d_u once.

    Raises NonPositiveWeight, DuplicateEdge, or EmptyGraph.  Connectivity is
    *not* required here; callers that need it use
    :meth:`WeightedGraph.is_connected`.
    """
    seen = set()
    triples = []
    max_id = -1
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = Fraction(1)
        else:
            u, v, raw = edge
            w = as_weight(raw)
        if not (isinstance(u, int) and isinstance(v, int)) or u < 0 or v < 0:
            raise ValueError(f"vertex ids must be nonnegative integers, got ({u!r}, {v!r})")
        if w <= 0:
            raise NonPositiveWeight(f"edge ({u}, {v}) has non-positive weight {w}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"unordered pair ({key[0]}, {key[1]}) appears twice")
        seen.add(key)
        triples.append((u, v, w))
        max_id = max(max_id, u, v)

    if not triples:
        raise EmptyGraph("no edges supplied")

    n = max_id + 1
    adjacency = [dict() for _ in range(n)]
    for u, v, w in triples:
        adjacency[u][v] = w
        if u != v:
            adjacency[v][u] = w

    missing = [x for x in range(n) if not adjacency[x]]
    if missing:
        raise ValueError(
            f"vertex ids must form a dense range 0..{n - 1}; "
            f"no edges touch {missing} (relabel the input)"
        )
    return WeightedGraph(adjacency)


def is_bipartite(g: WeightedGraph):
    """Two-color a connected graph by the parity of the hop distance from 0.

    Returns (True, coloring) with coloring[x] in {0, 1}, or (False, None)
    when an edge joins two equal colors.  A loop joins a vertex to itself,
    so any loop makes the graph non-bipartite.  Raises DisconnectedGraph.
    """
    if not g.is_connected():
        raise DisconnectedGraph("two-coloring is only defined per component")
    color = tuple(d % 2 for d in g.distance_matrix()[0])
    if any(color[u] == color[v] for u, v, _ in g.edges()):
        return False, None
    return True, color


def neighbor_partition(g: WeightedGraph, x: int, y: int) -> NeighborhoodPartition:
    """Split the neighborhoods of an adjacent pair x ~ y (x != y).

    Common neighbors go to n_x_ge_y when w_xz/d_x >= w_zy/d_y (ties
    included) and to n_x_lt_y otherwise.  Raises ValueError for an id that
    is not a vertex, then SameVertex or NotNeighbors.
    """
    _check_vertices(g, x, y)
    if x == y:
        raise SameVertex(f"need two distinct vertices, got x = y = {x}")
    if not g.adjacent(x, y):
        raise NotNeighbors(f"{x} and {y} are not neighbors")

    _, rows, degrees = g._integer_weights()
    wx, wy, dx, dy = rows[x], rows[y], degrees[x], degrees[y]
    nx = wx.keys() - {x, y}
    ny = wy.keys() - {x, y}
    common = nx & ny
    ge, lt = set(), set()
    # a common neighbor's masses w_xz/d_x and w_zy/d_y, both times (s*d_x)*(s*d_y)
    common_min = common_max = 0
    for z in common:
        mx, my = wx[z] * dy, wy[z] * dx
        (ge if mx >= my else lt).add(z)
        common_min += min(mx, my)
        common_max += max(mx, my)
    return NeighborhoodPartition(
        x=x,
        y=y,
        n_x1=frozenset(nx - common),
        n_y1=frozenset(ny - common),
        n_x_ge_y=frozenset(ge),
        n_x_lt_y=frozenset(lt),
        loop_x=Fraction(wx.get(x, 0), dx),
        loop_y=Fraction(wy.get(y, 0), dy),
        edge_mass_x=Fraction(wx[y], dx),
        edge_mass_y=Fraction(wx[y], dy),
        common_min=Fraction(common_min, dx * dy),
        common_max=Fraction(common_max, dx * dy),
    )
