"""Shared graph builders, the randomized test corpus and transport fault injection."""

import inspect
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from hypothesis import strategies as st

from ricci_spectrum import build_graph, lazy_graph, transport

CORPUS_SEED = 174


def cycle_graph(n):
    return build_graph([(i, (i + 1) % n, 1) for i in range(n)])


def complete_graph(n):
    return build_graph([(i, j, 1) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return build_graph([(i, i + 1, 1) for i in range(n - 1)])


def lazy_complete(n):
    """Complete graph with unit loops: the walk lands anywhere with mass 1/n."""
    return lazy_graph(complete_graph(n), Fraction(1, n))


def grid_graph(k):
    """The k x k grid: vertex r*k + c joins its right and lower neighbors."""
    right = [(v, v + 1, 1) for v in range(k * k) if v % k + 1 < k]
    down = [(v, v + k, 1) for v in range(k * k - k)]
    return build_graph(right + down)


def petersen_graph():
    outer = [(i, (i + 1) % 5, 1) for i in range(5)]
    spokes = [(i, i + 5, 1) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    return build_graph(outer + spokes + inner)


def named_corpus():
    return [
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("K2", complete_graph(2)),
        ("K3", complete_graph(3)),
        ("K5", complete_graph(5)),
        ("K5_lazy", lazy_complete(5)),
        ("P3", path_graph(3)),
        ("Petersen", petersen_graph()),
    ]


def random_connected_graph(rng, n=None, p=0.3):
    """Connected graph with random weights and loops: a random tree plus extras.

    n defaults to a random 2..8; each pair off the tree is an edge with
    probability p.
    """
    if n is None:
        n = rng.randint(2, 8)
    edges = []
    used = set()

    def weight():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, weight()))
        used.add((u, v))
    for u, v in combinations(range(n), 2):
        if (u, v) not in used and rng.random() < p:
            edges.append((u, v, weight()))
    for v in range(n):
        if rng.random() < 0.25:
            edges.append((v, v, weight()))
    return build_graph(edges)


@st.composite
def weighted_graphs(draw, loops=True):
    """Connected graph on 2..7 vertices: a random tree plus extra edges.

    With ``loops`` at least one vertex also carries a loop.
    """
    n = draw(st.integers(2, 7))
    weight = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
    edges = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(weight)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    for pair in extra:
        edges[pair] = draw(weight)
    if loops:
        for x in draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1)):
            edges[(x, x)] = draw(weight)
    return build_graph([(u, v, w) for (u, v), w in edges.items()])


@lru_cache(maxsize=None)
def random_corpus(count=50, seed=CORPUS_SEED):
    rng = random.Random(seed)
    return [(f"random_{i}", random_connected_graph(rng)) for i in range(count)]


@lru_cache(maxsize=None)
def full_corpus():
    return tuple(named_corpus() + list(random_corpus()))


def random_measure(rng, vertices, max_atoms):
    """Random exact probability measure on at most max_atoms of the vertices."""
    atoms = rng.sample(list(vertices), rng.randint(1, min(max_atoms, len(vertices))))
    raw = [Fraction(rng.randint(1, 9)) for _ in atoms]
    total = sum(raw)
    return {v: q / total for v, q in zip(atoms, raw)}


def enumerate_transport_optimum(metric, mu, nu):
    """Brute-force W_1: scan every vertex of the transportation polytope.

    Vertices are basic solutions: spanning-tree subsets of m + n - 1 cells,
    solved by peeling leaves; nonnegative ones are feasible.  Independent of
    the package's transport solve.
    """
    sources = sorted(mu)
    sinks = sorted(nu)
    m, n = len(sources), len(sinks)
    cells = [(i, j) for i in range(m) for j in range(n)]
    cost = {
        (i, j): int(metric(sources[i], sinks[j])) for i, j in cells
    }
    best = None
    for subset in combinations(cells, m + n - 1):
        parent = list(range(m + n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for i, j in subset:
            ra, rb = find(i), find(m + j)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        # m + n - 1 acyclic cells on m + n nodes: a spanning tree; peel leaves
        a = {i: mu[sources[i]] for i in range(m)}
        b = {j: nu[sinks[j]] for j in range(n)}
        incident = {("r", i): set() for i in range(m)}
        incident.update({("c", j): set() for j in range(n)})
        for c in subset:
            incident[("r", c[0])].add(c)
            incident[("c", c[1])].add(c)
        flows = {}
        remaining = set(subset)
        while remaining:
            leaf = next(
                node for node, cs in incident.items() if len(cs & remaining) == 1
            )
            cell = next(iter(incident[leaf] & remaining))
            i, j = cell
            q = a[i] if leaf[0] == "r" else b[j]
            flows[cell] = q
            a[i] -= q
            b[j] -= q
            remaining.discard(cell)
        if any(q < 0 for q in flows.values()):
            continue
        value = sum(q * cost[c] for c, q in flows.items())
        if best is None or value < best:
            best = value
    return best


#: One bug each in the primal-dual solve, as (statement in ``_solve_transportation``,
#: ``_max_flow`` or ``_reach``, its faulty form).
SOLVER_FAULTS = {
    "delta off by one": (
        "delta = min([cost[i][j] - u[i] - v[j] for i in rows for j in out], default=0)",
        "delta = min([cost[i][j] - u[i] - v[j] for i in rows for j in out], default=0) + 1",
    ),
    "v update skipped": ("v[j] -= delta", "pass"),
    "theta off by one": (
        "theta = min(a[start], b[end], *(into[j][i] for i, j in path[1::2]))",
        "theta = min(a[start], b[end], *(into[j][i] for i, j in path[1::2])) + 1",
    ),
    "skipped flow update": (
        "into[j][i] = into[j].get(i, 0) + (-theta if k % 2 else theta)",
        "pass",
    ),
}


def faulty_solver(fault):
    """``transport._solve_transportation`` rebuilt with one of SOLVER_FAULTS.

    The solve, ``_max_flow`` and ``_reach`` are compiled again from their
    source, with the fault's statement replaced, in a copy of the module's
    namespace; the module itself, and so its two-level route, is not
    changed.  The first two faults break a dual step, the last two an
    augmenting path.
    """
    old, new = SOLVER_FAULTS[fault]
    functions = (transport._reach, transport._max_flow, transport._solve_transportation)
    source = "\n\n".join(inspect.getsource(f) for f in functions)
    assert source.count(old) == 1, fault
    namespace = dict(vars(transport))
    exec(compile(source.replace(old, new), f"<solver: {fault}>", "exec"), namespace)
    return namespace["_solve_transportation"]
