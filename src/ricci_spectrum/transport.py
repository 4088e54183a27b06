"""Exact Wasserstein-1 distance between sparse measures on a graph metric.

The distance W_1(mu, nu) is the least total cost of a coupling xi whose row
marginals are mu and column marginals nu, with cost d(u, v) per unit mass:

    W_1(mu, nu) = min_xi  sum_{u, v} d(u, v) xi(u, v).

Supports here are tiny (at most a vertex neighborhood), so the minimum is
found by a transportation simplex: northwest-corner start, Bland's
smallest-index pivoting (which also rules out cycling on degenerate bases),
and one walk of the basis tree per pivot that yields both the potentials and
the parent links along which the entering cell's cycle is found.

The simplex runs on Python integers only.  Both measures are scaled once by
the LCM of all their mass denominators, so supply and demand are integers;
hop distances are integers, so the potentials are too.  Scaling every mass
by one positive constant changes no pivot choice, so the plan and the duals
are those of the rational problem, and the cost, the plan entries and the
dual gap are divided by the scale exactly once at the end.

The same solve yields optimal dual variables, which are tightened over the
metric into a single 1-Lipschitz potential f with

    sum f dmu - sum f dnu = W_1(mu, nu)

giving an independently checkable optimality certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Tuple, Union

from .errors import CertificateGapNonzero, InfiniteDistance, UnbalancedMeasures
from .walk import ProbMeasure

Metric = Callable[[int, int], Union[int, float]]

ZERO = Fraction(0)


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two measures: positive masses on (source, sink) pairs."""

    entries: Mapping[Tuple[int, int], Fraction]
    cost: Fraction


@dataclass(frozen=True)
class DualCertificate:
    """A 1-Lipschitz potential whose mu/nu gap equals the primal cost."""

    potential: Mapping[int, Fraction]


def _measure_items(measure) -> Dict[int, Fraction]:
    if isinstance(measure, ProbMeasure):
        return dict(measure.items())
    out = {}
    for v, m in measure.items():
        m = Fraction(m)
        if m < 0:
            raise UnbalancedMeasures(f"negative mass {m} at vertex {v}")
        if m > 0:
            out[v] = m
    return out


def _cost_matrix(metric: Metric, sources, sinks):
    cost = []
    for u in sources:
        row = []
        for v in sinks:
            d = metric(u, v)
            if math.isinf(d):
                raise InfiniteDistance(f"no path between support vertices {u} and {v}")
            row.append(int(d))
        cost.append(row)
    return cost


def _problem(metric: Metric, mu, nu):
    """Supports, cost matrix, integer supply and demand, and their scale.

    Every mass q is scaled to the integer q * scale, where scale is the LCM
    of all mass denominators of both measures.
    """
    mu_items = _measure_items(mu)
    nu_items = _measure_items(nu)
    sources = sorted(mu_items)
    sinks = sorted(nu_items)
    masses = (*mu_items.values(), *nu_items.values())
    scale = math.lcm(*(q.denominator for q in masses))

    def scaled(items, support):
        return [items[v].numerator * (scale // items[v].denominator) for v in support]

    supply = scaled(mu_items, sources)
    demand = scaled(nu_items, sinks)
    if sum(supply) != sum(demand):
        mu_total = Fraction(sum(supply), scale)
        nu_total = Fraction(sum(demand), scale)
        raise UnbalancedMeasures(f"total masses differ: {mu_total} vs {nu_total}")
    cost = _cost_matrix(metric, sources, sinks)
    return sources, sinks, cost, supply, demand, scale


def _northwest_corner(supply, demand):
    """Initial basic feasible solution with exactly m + n - 1 basis cells."""
    m, n = len(supply), len(demand)
    a, b = list(supply), list(demand)
    flow = {}
    basis = []
    i = j = 0
    while True:
        q = min(a[i], b[j])
        flow[(i, j)] = q
        basis.append((i, j))
        a[i] -= q
        b[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # on simultaneous exhaustion keep the row, producing a degenerate cell
        if a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return flow, basis


def _basis_tree(basis, cost, m, n):
    """One DFS of the basis tree from row 0.

    Nodes are rows 0..m-1 and columns m..m+n-1.  Returns the potentials
    (u, v) solving u_i + v_j = c_ij on the basis with u_0 = 0, and each
    node's parent (None at the root) and depth in the tree.
    """
    adj = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    pot = [None] * (m + n)
    parent = [None] * (m + n)
    depth = [0] * (m + n)
    pot[0] = 0
    stack = [0]
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if pot[b] is None:
                pot[b] = (cost[a][b - m] if a < m else cost[b][a - m]) - pot[a]
                parent[b] = a
                depth[b] = depth[a] + 1
                stack.append(b)
    return pot[:m], pot[m:], parent, depth


def _basis_cycle(entering, parent, depth, m):
    """Alternating cycle the entering cell closes in the basis tree.

    Climbs parent links from row ei and column ej until they meet.  Returns
    the cycle as a cell list starting at the entering cell and then running
    from column ej to row ei; cells at odd positions lose flow when the
    entering cell gains.
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
    return [entering] + from_col + from_row[::-1]


def _solve_transportation(cost, supply, demand):
    """Minimize sum c_ij x_ij with given integer row/column sums.

    Returns (total_cost, flow dict, u, v), all integers, where (u, v) are
    optimal duals satisfying u_i + v_j <= c_ij with equality on the final
    basis.  Empty supports (zero total mass) cost 0 with no flow.
    """
    m, n = len(supply), len(demand)
    if m == 0:
        return 0, {}, [], []
    flow, basis = _northwest_corner(supply, demand)
    while True:
        u, v, parent, depth = _basis_tree(basis, cost, m, n)
        # basis cells have reduced cost exactly 0, so only a nonbasic cell can enter
        entering = None
        for i in range(m):
            for j in range(n):
                if cost[i][j] - u[i] - v[j] < 0:
                    entering = (i, j)
                    break
            if entering:
                break
        if entering is None:
            break
        cycle = _basis_cycle(entering, parent, depth, m)
        losers = cycle[1::2]
        theta = min(flow[c] for c in losers)
        leaving = min(c for c in losers if flow[c] == theta)
        for idx, c in enumerate(cycle):
            if idx == 0:
                flow[c] = flow.get(c, 0) + theta
            elif idx % 2 == 1:
                flow[c] -= theta
            else:
                flow[c] += theta
        basis.remove(leaving)
        basis.append(entering)
        del flow[leaving]

    total = sum(flow[(i, j)] * cost[i][j] for i, j in flow)
    return total, flow, u, v


def wasserstein(metric: Metric, mu, nu) -> Tuple[Fraction, TransportPlan]:
    """Exact W_1 between mu and nu under the given distance oracle.

    mu and nu may be ProbMeasure instances or plain vertex->mass mappings;
    both must carry the same total mass (UnbalancedMeasures otherwise) and
    their supports must lie in one metric component (InfiniteDistance).
    Returns the optimal cost and a plan with only its positive entries; the
    cost is unique even where the plan is not.  Two measures of zero total
    mass cost 0 with an empty plan.  The metric is an opaque oracle called
    on every pair of support vertices, a hot path, so the support vertices
    are not checked against any graph.
    """
    sources, sinks, cost, supply, demand, scale = _problem(metric, mu, nu)
    total, flow, _, _ = _solve_transportation(cost, supply, demand)
    total = Fraction(total, scale)
    entries = {
        (sources[i], sinks[j]): Fraction(q, scale)
        for (i, j), q in sorted(flow.items())
        if q > 0
    }
    return total, TransportPlan(entries=entries, cost=total)


def verify_plan(plan: TransportPlan, mu, nu, metric: Metric) -> bool:
    """Exact feasibility check: marginals match and the cost recomputes."""
    mu_items = _measure_items(mu)
    nu_items = _measure_items(nu)
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
        total += q * int(d)
    return row == mu_items and col == nu_items and total == plan.cost


def dual_certificate(metric: Metric, mu, nu, primal_cost: Fraction) -> DualCertificate:
    """1-Lipschitz potential certifying the primal cost.

    The optimal dual variables of the transportation solve are tightened
    over the metric: f(z) = min over sink atoms t of d(z, t) - v_t.  A
    minimum of 1-Lipschitz functions is 1-Lipschitz, f >= u on sources and
    f <= -v on sinks, so the dual gap closes exactly; any failure of the
    final checks signals a solver bug (CertificateGapNonzero).  Inputs are
    validated as in wasserstein (UnbalancedMeasures, InfiniteDistance).
    Costs and duals are integers, so the potential is integer-valued; it is
    empty when both measures have zero total mass.
    """
    sources, sinks, cost, supply, demand, scale = _problem(metric, mu, nu)
    _, _, _, v = _solve_transportation(cost, supply, demand)

    union = sorted(set(sources) | set(sinks))
    potential = {
        z: min(d - v_t for d, v_t in zip(row, v))
        for z, row in zip(union, _cost_matrix(metric, union, sinks))
    }

    for a in union:
        for b in union:
            if abs(potential[a] - potential[b]) > metric(a, b):
                raise CertificateGapNonzero(
                    f"potential violates the Lipschitz bound on ({a}, {b})"
                )
    value = Fraction(
        sum(potential[s] * q for s, q in zip(sources, supply))
        - sum(potential[t] * q for t, q in zip(sinks, demand)),
        scale,
    )
    if value != primal_cost:
        raise CertificateGapNonzero(f"dual value {value} != primal cost {primal_cost}")
    return DualCertificate(potential={z: Fraction(f) for z, f in potential.items()})
