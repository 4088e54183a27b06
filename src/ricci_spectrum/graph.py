"""Weighted undirected graphs with self-loops, in exact rational arithmetic.

Vertices are dense integers 0..N-1; the public walk, curvature and
partition functions raise ValueError for any other vertex id.  The weight
function is symmetric, positive on edges and zero elsewhere; a loop is an
edge (x, x) whose weight counts once in the degree d_x = sum_y w_xy.
Distances are hop counts (number of edges on a shortest path), independent
of the weights; loops never shorten a path between distinct vertices.

Weights, degrees and masses are exact: a function returns each one as a
fractions.Fraction, except a partition's masses, integers over its ``den``.
A graph holds its weights once, as positive integers over one scale s, the
LCM of their reduced denominators, and its degrees as the integer row sums;
a value becomes a Fraction only when it is read.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


class WeightedGraph:
    """Immutable weighted graph with loops, held as integers over one scale.

    Construct via :func:`build_graph`; the constructor takes symmetric rows
    of positive integers ``rows[x][y] = s*w_xy`` and the scale s, and
    divides out the gcd of all of them, so equal graphs hold equal state.
    The accessors sit on every hot path and do not check their vertex ids:
    an id outside 0..N-1 raises IndexError or, if negative, wraps around.
    """

    __slots__ = ("_n", "_scale", "_rows", "_degrees", "_dist", "_measures")

    def __init__(self, rows: Sequence[Mapping[int, int]], scale: int):
        common = math.gcd(scale, *(w for row in rows for w in row.values()))
        self._n = len(rows)
        self._scale = scale // common
        # sorted neighbor order makes every downstream iteration deterministic
        self._rows = tuple({y: row[y] // common for y in sorted(row)} for row in rows)
        self._degrees = tuple(sum(row.values()) for row in self._rows)
        self._dist: Optional[tuple] = None
        # one-step walk measures, built on demand by walk.one_step_measure
        self._measures: list = [None] * self._n

    # -- basic accessors ----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self._n

    def vertices(self) -> range:
        return range(self._n)

    def weight(self, x: int, y: int) -> Fraction:
        """w_xy; zero when x and y are not neighbors."""
        w = self._rows[x].get(y)
        return ZERO if w is None else Fraction(w, self._scale)

    def degree(self, x: int) -> Fraction:
        return Fraction(self._degrees[x], self._scale)

    @property
    def degrees(self) -> tuple:
        return tuple(Fraction(d, self._scale) for d in self._degrees)

    def neighbors(self, x: int) -> Iterator[int]:
        """Vertices adjacent to x, in increasing order (x itself iff loop)."""
        return iter(self._rows[x])

    def neighbor_items(self, x: int) -> Iterator[tuple]:
        return ((y, Fraction(w, self._scale)) for y, w in self._rows[x].items())

    def adjacent(self, x: int, y: int) -> bool:
        return y in self._rows[x]

    def has_loop(self, x: int) -> bool:
        return x in self._rows[x]

    def loop_weight(self, x: int) -> Fraction:
        return self.weight(x, x)

    def edges(self) -> Iterator[tuple]:
        """All edges (u, v, w) with u <= v, loops included, sorted."""
        for u, row in enumerate(self._rows):
            for v, w in row.items():
                if v >= u:
                    yield (u, v, Fraction(w, self._scale))

    def edge_count(self) -> int:
        """Number of distinct-vertex edges (loops not counted)."""
        return (sum(map(len, self._rows)) - self.loop_count()) // 2

    def loop_count(self) -> int:
        return sum(1 for x in range(self._n) if self.has_loop(x))

    def uniform_weight(self) -> Optional[Fraction]:
        """The common weight if every edge (loops included) carries the same one."""
        values = {w for row in self._rows for w in row.values()}
        return Fraction(values.pop(), self._scale) if len(values) == 1 else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._scale == other._scale and self._rows == other._rows

    def __hash__(self):
        return hash((self._scale, tuple(tuple(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self._n}, edges={self.edge_count()}, "
            f"loops={self.loop_count()})"
        )

    # -- hop metric -----------------------------------------------------------

    def distance(self, x: int, y: int):
        """Hop distance; UNREACHABLE (math.inf) across components."""
        # read the cached table directly: transport calls this once per cell
        dist = self._dist
        if dist is None:
            dist = self.distance_matrix()
        return dist[x][y]

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
                    for v in self._rows[u]:
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

    The six masses are integer numerators over ``den`` = (s*d_x)(s*d_y):
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
    den: int
    loop_x: int
    loop_y: int
    edge_mass_x: int
    edge_mass_y: int
    common_min: int
    common_max: int

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
    scale = math.lcm(*(w.denominator for _, _, w in triples))
    rows = [dict() for _ in range(n)]
    for u, v, w in triples:
        rows[u][v] = rows[v][u] = w.numerator * (scale // w.denominator)

    missing = [x for x in range(n) if not rows[x]]
    if missing:
        raise ValueError(
            f"vertex ids must form a dense range 0..{n - 1}; "
            f"no edges touch {missing} (relabel the input)"
        )
    return WeightedGraph(rows, scale)


def is_bipartite(g: WeightedGraph):
    """Two-color a connected graph by the parity of the hop distance from 0.

    Returns (True, coloring) with coloring[x] in {0, 1}, or (False, None)
    when an edge joins two equal colors.  A loop joins a vertex to itself,
    so any loop makes the graph non-bipartite.  Raises DisconnectedGraph.
    """
    if not g.is_connected():
        raise DisconnectedGraph("two-coloring is only defined per component")
    color = tuple(d % 2 for d in g.distance_matrix()[0])
    if any(color[u] == color[v] for u, row in enumerate(g._rows) for v in row):
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

    wx, wy, dx, dy = g._rows[x], g._rows[y], g._degrees[x], g._degrees[y]
    nx = wx.keys() - {x, y}
    ny = wy.keys() - {x, y}
    common = nx & ny
    ge, lt = set(), set()
    # a mass w_az/d_a times den = (s*d_x)*(s*d_y) is (s*w_az)*(s*d_b), b the other end
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
        den=dx * dy,
        loop_x=wx.get(x, 0) * dy,
        loop_y=wy.get(y, 0) * dx,
        edge_mass_x=wx[y] * dy,
        edge_mass_y=wx[y] * dx,
        common_min=common_min,
        common_max=common_max,
    )


def _adjacent_pairs(g: WeightedGraph) -> Iterator[tuple]:
    """Each adjacent pair (u, v) with u < v, in :meth:`WeightedGraph.edges` order."""
    return ((u, v) for u, row in enumerate(g._rows) for v in row if v > u)
