"""Exact Wasserstein-1 distance between sparse measures on a graph metric.

The distance W_1(mu, nu) is the least total cost of a coupling xi whose row
marginals are mu and column marginals nu, with cost d(u, v) per unit mass:

    W_1(mu, nu) = min_xi  sum_{u, v} d(u, v) xi(u, v).

Supports here are tiny (at most a vertex neighborhood), so the minimum is
found by a transportation simplex: a matrix-minimum start, which fills the
cheapest cells first, one cost level at a time, and Bland's smallest-index
pivoting (which also rules out cycling on degenerate bases from any
start).  When every cell left to price costs the same, as when all
leftover sources and sinks are adjacent, every feasible plan is optimal:
the start is returned with no pivot.  The basis tree, rooted at row 0,
carries the potentials and the parent links along which the entering
cell's cycle is found.  It is built once; after each pivot only the
subtree that the leaving cell cuts off is walked again, re-hung from the
entering cell (Ahuja, Magnanti and Orlin, *Network Flows*, ch. 11).  A
rooted spanning tree fixes its parents, depths and potentials (u_0 = 0),
so every pivot is the one a full rebuild would make.

Mass that both measures put on one vertex, min(mu(v), nu(v)), stays there
at no cost, since d(v, v) = 0 and d obeys the triangle inequality.  It is
cancelled before the solve, which then moves only the rest between two
disjoint supports, and it comes back as (v, v) entries of the plan.

The simplex runs on Python integers only.  Both measures are ProbMeasures,
which store their masses as integer numerators over one denominator, and
both are scaled to the LCM of the two denominators, which is the LCM of
all their mass denominators, so supply and demand are integers; the
metric's distances must be integers, so the potentials are too.  Scaling
every mass by one positive constant changes no pivot choice, so the plan
and the duals are those of the rational problem.  The cost and the dual
gap are divided by the scale once at the end.

Each W_1 is solved once per measure object: wasserstein keeps (W_1, plan)
on mu, keyed by (metric, nu), for mu's lifetime, so the metric must be a
fixed function of its two vertices.  A report asks for one edge's
curvature from many sections, and the repeats cost a dict lookup.  The
plan holds the solve's inputs only: it is solved again when it is first
read, which the curvature layer never does, and each entry becomes a
Fraction only when it is read.  A G[t]'s cached measures keep keys that
hold ``gt.distance``, and so gt itself: the cycle is freed by Python's
cyclic garbage collector, not by reference counting.

The same solve yields optimal dual variables, which are tightened over the
metric into a single 1-Lipschitz potential f with

    sum f dmu - sum f dnu = W_1(mu, nu)

giving an independently checkable optimality certificate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Dict, Tuple, Union

from .errors import CertificateGapNonzero, InfiniteDistance, InternalInconsistency
from .walk import ProbMeasure

Metric = Callable[[int, int], Union[int, float]]

ZERO = Fraction(0)


class _PlanEntries(Mapping):
    """Read-only (source, sink) -> mass view of the plan wasserstein found.

    Holds the solve's inputs, not its results: the solve is deterministic,
    so it is run again when the plan is first read, which the curvature
    layer never does, and the sorted cell -> integer mass dict, shared mass
    on (v, v) included, is kept with its scale from then on.  Reading a
    cell returns the reduced Fraction q / scale, built on each read.  A
    plan pickles as those entries, not as its metric.  Equal to any mapping
    with the same entries.
    """

    __slots__ = ("_metric", "_mu", "_nu", "_read")

    def __init__(self, metric: Metric, mu: ProbMeasure, nu: ProbMeasure):
        self._metric, self._mu, self._nu = metric, mu, nu

    def _cells(self) -> Tuple[Dict[Tuple[int, int], int], int]:
        try:
            return self._read
        except AttributeError:
            mu_int, nu_int, supply, demand, cost, scale = _problem(
                self._metric, self._mu, self._nu
            )
            _, flow, _, _ = _solve_transportation(cost, [*supply.values()], [*demand.values()])
            sources, sinks = list(supply), list(demand)
            cells = {(v, v): min(q, nu_int[v]) for v, q in mu_int.items() if v in nu_int}
            cells.update(((sources[i], sinks[j]), q) for (i, j), q in flow.items() if q > 0)
            self._read = dict(sorted(cells.items())), scale
            return self._read

    def __getitem__(self, cell) -> Fraction:
        cells, scale = self._cells()
        return Fraction(cells[cell], scale)

    def __iter__(self):
        return iter(self._cells()[0])

    def __len__(self) -> int:
        return len(self._cells()[0])

    def __getstate__(self):
        return self._cells()

    def __setstate__(self, read):
        self._read = read

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two measures: positive masses on (source, sink) pairs."""

    entries: Mapping[Tuple[int, int], Fraction]
    cost: Fraction


@dataclass(frozen=True)
class DualCertificate:
    """A 1-Lipschitz potential whose mu/nu gap equals the primal cost."""

    potential: Mapping[int, Fraction]


def _check_measures(mu, nu) -> None:
    if not (isinstance(mu, ProbMeasure) and isinstance(nu, ProbMeasure)):
        raise TypeError(
            f"transport takes two ProbMeasures, got {type(mu).__name__} and {type(nu).__name__}"
        )


def _cost_matrix(metric: Metric, sources, sinks):
    try:
        return [[index(metric(u, v)) for v in sinks] for u in sources]
    except TypeError as exc:
        # int() would truncate a float or Fraction distance, and the result would still verify
        raise TypeError(f"distances must be integers ({exc})") from exc


def _problem(metric: Metric, mu, nu):
    """Both measures on integers, and the part of them that has to move.

    Every mass q is scaled to the integer q * scale, where scale is the LCM
    of all mass denominators of both measures; mu_int and nu_int map each
    support vertex to its scaled mass; two ProbMeasures both carry mass 1,
    so unequal totals are a bug (InternalInconsistency).  The shared mass
    min(mu(v), nu(v)) stays at v for free, so supply and demand keep what
    is left of mu and of nu once it is cancelled, max(mu(v) - nu(v), 0)
    and max(nu(v) - mu(v), 0), where it is positive.  Their supports are
    disjoint, and cost is the metric on them.
    Returns (mu_int, nu_int, supply, demand, cost, scale).
    """
    scale = math.lcm(mu._den, nu._den)
    mu_int = {v: q * (scale // mu._den) for v, q in mu._num.items()}
    nu_int = {v: q * (scale // nu._den) for v, q in nu._num.items()}
    mu_total, nu_total = sum(mu_int.values()), sum(nu_int.values())
    if mu_total != nu_total:
        raise InternalInconsistency(
            f"measures of unequal mass {Fraction(mu_total, scale)} and {Fraction(nu_total, scale)}"
        )
    # finite distances form one component, so one row of checks covers all pairs
    union = sorted(mu_int.keys() | nu_int.keys())
    for z in union[1:]:
        if math.isinf(metric(union[0], z)):
            raise InfiniteDistance(f"no path between support vertices {union[0]} and {z}")
    supply = {v: q - nu_int.get(v, 0) for v, q in mu_int.items() if q > nu_int.get(v, 0)}
    demand = {v: q - mu_int.get(v, 0) for v, q in nu_int.items() if q > mu_int.get(v, 0)}
    cost = _cost_matrix(metric, supply, demand)
    return mu_int, nu_int, supply, demand, cost, scale


def _matrix_minimum(cost, levels, supply, demand):
    """Initial basic feasible solution: a flow on exactly m + n - 1 basis cells.

    ``levels`` holds the distinct costs in increasing order.  Cells are
    visited one level at a time, and within a level row-major over the
    lines still open.  Each cell of the level gets min(a_i, b_j) and
    crosses out one of its lines: its row if that is exhausted and not the
    last open row, else its column.  So on a tie a degenerate cell follows
    in the column.  Every cell crosses out a line that no later cell meets,
    so no cell closes a cycle, and the m + n - 1 cells span a tree.  With a
    single level this is the northwest-corner walk, m + n - 1 cells long.
    """
    m, n = len(supply), len(demand)
    a, b = list(supply), list(demand)
    rows, cols = list(range(m)), list(range(n))
    rows_left = m
    flow = {}
    for level in levels:
        kept = []
        for i in rows:
            row = cost[i]
            k = 0
            while k < len(cols):
                j = cols[k]
                if row[j] != level:
                    k += 1
                    continue
                q = min(a[i], b[j])
                flow[(i, j)] = q
                if len(flow) == m + n - 1:
                    return flow
                a[i] -= q
                b[j] -= q
                if a[i] == 0 and rows_left > 1:
                    rows_left -= 1
                    break
                del cols[k]
            else:
                kept.append(i)
        rows = kept


def _basis_tree(basis, cost, m, n):
    """The basis tree rooted at row 0.

    Nodes are rows 0..m-1 and columns m..m+n-1.  Returns the adjacency
    lists, the potentials pot (u_i = pot[i], v_j = pot[m + j]) solving
    u_i + v_j = c_ij on the basis with u_0 = 0, and each node's parent
    (None at the root) and depth in the tree.
    """
    adj = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [0] * (m + n)
    parent = [None] * (m + n)
    depth = [0] * (m + n)
    _hang(0, adj, cost, m, pot, parent, depth)
    return adj, pot, parent, depth


def _hang(top, adj, cost, m, pot, parent, depth):
    """One DFS of the subtree below node top, whose own links are already set.

    Every node under top gets its parent, its depth and the potential that
    makes its cell to the parent tight.
    """
    stack = [top]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b != parent[a]:
                pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
                parent[b] = a
                depth[b] = depth[a] + 1
                stack.append(b)


def _basis_cycle(entering, parent, depth, m):
    """Alternating cycle the entering cell closes in the basis tree.

    Climbs parent links from row ei and column ej until they meet.  Returns
    the cycle as a cell list starting at the entering cell and then running
    from column ej to row ei, and the index where column ej's side ends:
    cells 1..split-1 lie on the tree path from column ej up to the meeting
    node.  Cells at odd positions lose flow when the entering cell gains.
    """
    ei, ej = entering

    def cell(a, b):
        return (a, b - m) if a < m else (b, a - m)

    a, b = ei, m + ej
    from_row, from_col = [], []
    while a != b:
        if depth[a] >= depth[b]:
            from_row.append(cell(a, parent[a]))
            a = parent[a]
        else:
            from_col.append(cell(b, parent[b]))
            b = parent[b]
    return [entering] + from_col + from_row[::-1], 1 + len(from_col)


def _solve_transportation(cost, supply, demand):
    """Minimize sum c_ij x_ij with given integer row/column sums.

    Returns (total_cost, flow dict, u, v), all integers, where the flow's
    cells are the final basis and (u, v) are optimal duals satisfying
    u_i + v_j <= c_ij with equality on that basis.  When nothing is left to
    move (mu == nu) the cost is 0, with no flow.

    The start is the matrix minimum (see ``_matrix_minimum``).  When every
    cell costs the same c, every feasible plan costs c per unit, so the
    start is returned with the duals u = 0, v = c, which are the ones its
    basis tree gives under u_0 = 0, and no pivot is made.

    Otherwise the basis tree is built once.  A pivot cuts the tree at the
    leaving cell and joins it again at the entering one, so only the
    cut-off subtree is walked again, from the entering cell's end inside it.
    """
    m, n = len(supply), len(demand)
    if m == 0:
        return 0, {}, [], []
    levels = sorted(set().union(*cost))
    flow = _matrix_minimum(cost, levels, supply, demand)
    if len(levels) == 1:
        # every unit costs the same on every cell, so any feasible plan is optimal
        (low,) = levels
        return low * sum(supply), flow, [0] * m, [low] * n
    adj, pot, parent, depth = _basis_tree(flow, cost, m, n)
    while True:
        # basis cells have reduced cost exactly 0, so only a nonbasic cell can enter
        entering = next(
            (
                (i, j)
                for i, row in enumerate(cost)
                for j, c in enumerate(row)
                if c - pot[i] < pot[m + j]
            ),
            None,
        )
        if entering is None:
            break
        cycle, split = _basis_cycle(entering, parent, depth, m)
        losers = cycle[1::2]
        theta = min(flow[c] for c in losers)
        leaving = min(c for c in losers if flow[c] == theta)
        flow[entering] = theta
        for c in losers:
            flow[c] -= theta
        for c in cycle[2::2]:
            flow[c] += theta
        del flow[leaving]

        li, lj = leaving
        ei, ej = entering
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # the cut-off subtree holds the entering cell's end on the leaving cell's side
        top, attach = (m + ej, ei) if cycle.index(leaving) < split else (ei, m + ej)
        parent[top] = attach
        depth[top] = depth[attach] + 1
        pot[top] = cost[ei][ej] - pot[attach]
        _hang(top, adj, cost, m, pot, parent, depth)

    total = sum(flow[(i, j)] * cost[i][j] for i, j in flow)
    return total, flow, pot[:m], pot[m:]


def wasserstein(metric: Metric, mu, nu) -> Tuple[Fraction, TransportPlan]:
    """Exact W_1 between mu and nu under the given distance oracle.

    mu and nu must be ProbMeasures (TypeError otherwise), and their supports
    must lie in one metric component (InfiniteDistance).  Returns the
    optimal cost and a plan with only its positive entries, held in a
    read-only mapping that builds each Fraction when it is read; the cost
    is unique even where the plan is not.  The metric is an opaque oracle
    called on pairs of support vertices, a hot path, so the support
    vertices are not checked against any graph; its finite distances must
    be integers (TypeError otherwise).

    The pair is kept on mu, keyed by (metric, nu), for mu's lifetime: a
    repeat call returns it unsolved, and a call that raises keeps nothing.
    The metric compares as an object (``g.distance`` by g's identity) and
    nu by value, so the metric must be hashable and a fixed function.  The
    plan is solved again when it is first read.  On a G[t]'s cached
    measures the ``gt.distance`` keys form a reference cycle through gt,
    which Python's cyclic garbage collector frees.
    """
    _check_measures(mu, nu)
    key = (metric, nu)
    solved = mu._solved.get(key)
    if solved is None:
        _, _, supply, demand, cost, scale = _problem(metric, mu, nu)
        total, _, _, _ = _solve_transportation(cost, [*supply.values()], [*demand.values()])
        total = Fraction(total, scale)
        plan = TransportPlan(entries=_PlanEntries(metric, mu, nu), cost=total)
        solved = mu._solved[key] = total, plan
    return solved


def verify_plan(plan: TransportPlan, mu, nu, metric: Metric) -> bool:
    """Exact feasibility check: marginals match and the cost recomputes."""
    _check_measures(mu, nu)
    row = {}
    col = {}
    total = ZERO
    for (u, v), q in plan.entries.items():
        if q < 0:
            return False
        d = metric(u, v)
        if math.isinf(d):
            return False
        row[u] = row.get(u, ZERO) + q
        col[v] = col.get(v, ZERO) + q
        try:
            total += q * index(d)
        except TypeError as exc:
            raise TypeError(f"distances must be integers, got {d!r} for ({u}, {v})") from exc
    return row == dict(mu.items()) and col == dict(nu.items()) and total == plan.cost


def dual_certificate(metric: Metric, mu, nu, primal_cost: Fraction) -> DualCertificate:
    """1-Lipschitz potential certifying the primal cost.

    The optimal dual variables of the transportation solve are tightened
    over the metric: f(z) = min over sink atoms t of d(z, t) - v_t.  A
    minimum of 1-Lipschitz functions is 1-Lipschitz, f >= u on sources and
    f <= -v on sinks, so the dual gap closes exactly; any failure of the
    final checks signals a solver bug (CertificateGapNonzero).  The
    potential is built and checked over both original supports, shared
    mass included; when nothing is left to move (mu == nu) it is zero.
    Inputs are validated as in wasserstein (TypeError, InfiniteDistance).
    Costs and duals are integers, so the potential is integer-valued.
    Each call solves again: nothing is kept.
    """
    _check_measures(mu, nu)
    mu_int, nu_int, supply, demand, cost, scale = _problem(metric, mu, nu)
    _, _, _, v = _solve_transportation(cost, [*supply.values()], [*demand.values()])

    union = sorted(mu_int.keys() | nu_int.keys())
    if demand:
        potential = {
            z: min(d - v_t for d, v_t in zip(row, v))
            for z, row in zip(union, _cost_matrix(metric, union, demand))
        }
    else:
        # nothing is left to move (mu == nu), and the zero potential has gap 0
        potential = dict.fromkeys(union, 0)

    for a in union:
        for b in union:
            if abs(potential[a] - potential[b]) > metric(a, b):
                raise CertificateGapNonzero(
                    f"potential violates the Lipschitz bound on ({a}, {b})"
                )
    value = Fraction(
        sum(potential[s] * q for s, q in mu_int.items())
        - sum(potential[t] * q for t, q in nu_int.items()),
        scale,
    )
    if value != primal_cost:
        raise CertificateGapNonzero(f"dual value {value} != primal cost {primal_cost}")
    return DualCertificate(potential={z: Fraction(f) for z, f in potential.items()})
