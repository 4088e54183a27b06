"""Exact Wasserstein-1 distance between sparse measures on a graph metric.

The distance W_1(mu, nu) is the least total cost of a coupling xi whose row
marginals are mu and column marginals nu, with cost d(u, v) per unit mass:

    W_1(mu, nu) = min_xi  sum_{u, v} d(u, v) xi(u, v).

Supports here are tiny (at most a vertex neighborhood), and each W_1 is
routed by the number of distinct costs between what is left to move:
- one, c: every plan costs c times the mass M, with no solve;
- two, lo < hi, as on the walk graphs G[t], where the leftover sits next
  to an edge's ends: hi * M - (hi - lo) * F, for F the maximum flow over
  the lo cells, certified by a cut of the same size;
- more: the primal-dual method (Ford and Fulkerson, *Naval Res. Logist.
  Q.* 4, 1957), phases of the same augmenting paths between dual steps,
  checked on integers for feasibility, dual feasibility and strong duality.
Plans and dual certificates always come from the primal-dual solve: an
optimal plan and potential, though not always the only ones.

Mass that both measures put on one vertex, min(mu(v), nu(v)), stays there
at no cost, since d(v, v) = 0 and d obeys the triangle inequality.  It is
cancelled before the solve, which then moves only the rest between two
disjoint supports, and it comes back as (v, v) entries of the plan.

The solve runs on Python integers only.  Both measures are ProbMeasures,
which store their masses as integer numerators over one denominator, and
both are scaled to the LCM of the two denominators, which is the LCM of
all their mass denominators, so supply and demand are integers; the
metric's distances must be integers, so the potentials are too.  Scaling
every mass by one positive constant changes no search and no step, which
compare masses only with each other and with 0, so the plan and the duals
are those of the rational problem.  The cost and the dual gap are divided
by the scale once at the end.

Each W_1 is solved once per measure object: wasserstein keeps (W_1, plan)
on mu, keyed by (metric, nu), for mu's lifetime, so the metric must be a
fixed function of its two vertices.  A report asks for one edge's
curvature from many sections, and the repeats cost a dict lookup.  The
plan holds the solve's inputs only: it is solved on its first read,
which the curvature layer never makes, and each entry becomes a
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
from operator import index, mul, sub
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
            supply, demand, cost, scale = _leftover(self._metric, self._mu, self._nu)
            _, flow, _, _ = _solve_transportation(cost, [*supply.values()], [*demand.values()])
            sources, sinks = list(supply), list(demand)
            mu_num, fm = self._mu._num, scale // self._mu._den
            nu_num, fn = self._nu._num, scale // self._nu._den
            cells = {(v, v): min(q * fm, nu_num[v] * fn) for v, q in mu_num.items() if v in nu_num}
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


def _leftover(metric: Metric, mu, nu):
    """(supply, demand, cost, scale): what is left to move, on integers.

    Masses are scaled by the LCM of the two denominators; two ProbMeasures
    both carry mass 1, so unequal totals are a bug (InternalInconsistency).
    The shared mass min(mu(v), nu(v)) stays at v for free, so supply and
    demand keep max(mu(v) - nu(v), 0) and max(nu(v) - mu(v), 0) where it is
    positive.  Their supports are disjoint, and cost is the metric on them.
    """
    scale = math.lcm(mu._den, nu._den)
    mu_num, nu_num, fm, fn = mu._num, nu._num, scale // mu._den, scale // nu._den
    mu_total, nu_total = sum(mu_num.values()), sum(nu_num.values())
    if mu_total * fm != nu_total * fn:
        mu_mass, nu_mass = Fraction(mu_total, mu._den), Fraction(nu_total, nu._den)
        raise InternalInconsistency(f"measures of unequal mass {mu_mass} and {nu_mass}")
    # finite distances form one component, so one row of checks covers all pairs
    union = sorted(mu_num.keys() | nu_num.keys())
    for z in union[1:]:
        if math.isinf(metric(union[0], z)):
            raise InfiniteDistance(f"no path between support vertices {union[0]} and {z}")
    supply = {v: r for v, q in mu_num.items() if (r := q * fm - nu_num.get(v, 0) * fn) > 0}
    demand = {v: r for v, q in nu_num.items() if (r := q * fn - mu_num.get(v, 0) * fm) > 0}
    return supply, demand, _cost_matrix(metric, supply, demand), scale


def _solve_transportation(cost, supply, demand):
    """Minimize sum c_ij x_ij with given integer row/column sums, by the primal-dual method.

    Returns (total_cost, flow dict, u, v), all integers, where (u, v) are
    optimal duals: u_i + v_j <= c_ij, with equality on every cell of the
    flow.  When nothing is left to move (mu == nu) the cost is 0, with no
    flow.

    The duals start at u = 0 and v_j the least cost in column j.  Each
    phase augments the flow, kept from the phases before, to a maximum
    over the tight cells, where c_ij = u_i + v_j.  If mass is left, the
    last search reached rows R and columns C, none with room; u rises on R
    and v falls on C by the least slack from R to the other columns.
    Every flow cell that meets R or C lies in R x C, where u_i + v_j does
    not change, so flow cells stay tight, and the cell of least slack
    becomes tight.  A row that still holds supply has held it in every
    phase, and so has been in every R, while a column with room has been
    in no C.  So u on that row rose by at least 1 per step, yet never
    passes c_ij - v_j for that column, whose v_j is still its least cost:
    there are at most max c - min c steps.  A step that is not positive is
    a bug.
    """
    a, b = list(supply), list(demand)
    u, v = [0] * len(a), [min(col) for col in zip(*cost)]
    into = [{} for _ in b]  # into[j][i] is the flow on cell (i, j)
    while True:
        cols = [[j for j, r in enumerate(map(sub, row, v)) if r == u_i] for row, u_i in zip(cost, u)]
        rows, columns = _max_flow(cols, into, a, b)
        if not rows:
            break
        out = [j for j in range(len(b)) if j not in columns]
        delta = min([cost[i][j] - u[i] - v[j] for i in rows for j in out], default=0)
        if delta <= 0:
            raise InternalInconsistency(f"a dual step of {delta} with mass left to move")
        for i in rows:
            u[i] += delta
        for j in columns:
            v[j] -= delta
    flow = {(i, j): q for j, col in enumerate(into) for i, q in col.items() if q}
    return _certify(cost, supply, demand, flow, u, v)


def _certify(cost, supply, demand, flow, u, v):
    """(cost, flow, u, v) once an integer duality check passes; InternalInconsistency if not.

    The flow must be nonnegative, with row sums supply and column sums
    demand; the duals must satisfy u_i + v_j <= c_ij on every cell; and the
    cost must equal sum u_i a_i + sum v_j b_j.  Weak duality then proves
    both optimal, whatever plan or potential the solve found.
    """
    rows, cols, total = [0] * len(supply), [0] * len(demand), 0
    for (i, j), q in flow.items():
        rows[i] += q
        cols[j] += q
        total += q * cost[i][j]
    dual = sum(map(mul, u, supply)) + sum(map(mul, v, demand))
    feasible = min(flow.values(), default=0) >= 0 and (rows, cols) == (supply, demand)
    if not feasible or total != dual or any(min(map(sub, r, v)) < u_i for r, u_i in zip(cost, u)):
        raise InternalInconsistency(f"a transport flow of cost {total} fails its duality check")
    return total, flow, u, v


def _least_cost(cost, supply, demand) -> int:
    """The least cost of moving supply to demand, routed by the number of distinct costs.

    One level c costs c * M for the mass M.  With two, lo < hi, mass f on
    lo cells costs hi * M - (hi - lo) * f, as all other cells cost hi, so
    f is a maximum flow over the lo cells.  Its last search reaches rows R
    and columns C, none with room, so no flow exceeds the cut
    sum_{i not in R} a_i + sum_{j in C} b_j, and the two must agree.  More
    levels go to the primal-dual solve.
    """
    levels = sorted(set().union(*cost))
    if len(levels) > 2:
        return _solve_transportation(cost, supply, demand)[0]
    if len(levels) < 2:
        return max(levels, default=0) * sum(supply)
    lo, hi = levels
    a, b = list(supply), list(demand)
    cols = [[j for j, c in enumerate(row) if c == lo] for row in cost]
    rows, columns = _max_flow(cols, [{} for _ in b], a, b)
    moved = sum(supply) - sum(a)
    cut = sum(q for i, q in enumerate(supply) if i not in rows)
    cut += sum(demand[j] for j in columns)
    if moved != cut:
        raise InternalInconsistency(f"a flow of {moved} over the cheapest cells has a cut of {cut}")
    return hi * sum(supply) - (hi - lo) * moved


def _max_flow(cols, into, a, b):
    """Augment the flow into[j][i] on cells (i, j) to a maximum over the cells in cols.

    a and b hold the supply and demand left, and fall as the flow grows.
    A greedy fill, rows with the fewest cells first, then augmenting paths
    from ``_reach``.  Returns the rows and columns the last search reached:
    none has room, and every cell in cols from a reached row ends in a
    reached column.
    """
    for i in sorted((i for i, q in enumerate(a) if q > 0), key=lambda i: len(cols[i])):
        for j in cols[i]:
            if b[j] > 0:
                q = min(a[i], b[j])
                into[j][i] = into[j].get(i, 0) + q
                a[i] -= q
                b[j] -= q
                if not a[i]:
                    break
    while (search := _reach(cols, into, a, b))[2]:
        path = search[2]  # cells at even positions gain flow, at odd positions give it up
        start, end = path[-1][0], path[0][1]
        theta = min(a[start], b[end], *(into[j][i] for i, j in path[1::2]))
        a[start], b[end] = a[start] - theta, b[end] - theta
        for k, (i, j) in enumerate(path):
            into[j][i] = into[j].get(i, 0) + (-theta if k % 2 else theta)
    return search[:2]


def _reach(cols, into, a, b):
    """Breadth-first search from rows with supply left, along cells in cols and back along flow.

    Returns the rows and columns reached, and the path of cells from the
    first column with room back to a start, or None.  Only positive masses
    count, so a search ends on a mass that a bug drove negative.
    """
    row_from = {i: None for i, q in enumerate(a) if q > 0}  # the column each row came from
    col_from = {}  # the row each column came from
    queue = list(row_from)
    for i in queue:
        for j in cols[i]:
            if j in col_from:
                continue
            col_from[j] = i
            if b[j] > 0:
                path = [(i, j)]
                while (j := row_from[i]) is not None:
                    path += [(i, j), (col_from[j], j)]
                    i = col_from[j]
                return row_from, col_from, path
            for k, q in into[j].items():
                if q > 0 and k not in row_from:
                    row_from[k] = j
                    queue.append(k)
    return row_from, col_from, None


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

    The cost takes one of three routes by the number of distinct leftover
    costs: c * M for one, a maximum flow certified by a cut for two, and
    the primal-dual method certified by integer duality for more
    (InternalInconsistency if a certificate fails).  The primal-dual method
    also solves the plan, when it is read.

    The pair is kept on mu, keyed by (metric, nu), for mu's lifetime: a
    repeat call returns it unsolved, and a call that raises keeps nothing.
    The metric compares as an object (``g.distance`` by g's identity) and
    nu by value, so the metric must be hashable and a fixed function.  On
    a G[t]'s cached measures the ``gt.distance`` keys form a reference
    cycle through gt, which Python's cyclic garbage collector frees.
    """
    _check_measures(mu, nu)
    key = (metric, nu)
    solved = mu._solved.get(key)
    if solved is None:
        supply, demand, cost, scale = _leftover(metric, mu, nu)
        total = Fraction(_least_cost(cost, [*supply.values()], [*demand.values()]), scale)
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
    supply, demand, cost, scale = _leftover(metric, mu, nu)
    _, _, _, v = _solve_transportation(cost, [*supply.values()], [*demand.values()])

    union = sorted(mu._num.keys() | nu._num.keys())
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
    # the shared mass adds f(v) * min(mu(v), nu(v)) to both sums, so the leftover gives the gap
    value = Fraction(
        sum(potential[s] * q for s, q in supply.items())
        - sum(potential[t] * q for t, q in demand.items()),
        scale,
    )
    if value != primal_cost:
        raise CertificateGapNonzero(f"dual value {value} != primal cost {primal_cost}")
    return DualCertificate(potential={z: Fraction(f) for z, f in potential.items()})
