"""Seeded inputs, timed passes and correctness checks of the workloads.

Every workload is a closed loop: one process, one thread, jobs run back to
back.  ``setup`` builds fresh inputs for one pass (new graph objects and,
for ``cli_report``, new edge-list files), ``run`` is the timed pass, and
``check`` judges the outputs of every pass after timing has ended.

Calls into the package go through module attributes looked up at call time,
so a traced pass reaches the tracer's wrappers.

The seeded family wrnd(n, p) is a random spanning tree, then exactly
round(p * m) of the m other vertex pairs chosen uniformly, integer weights
1..9, and loops at exactly round(0.2 n) random vertices.  Fixing the counts,
rather than drawing each pair and loop independently, keeps the cost of a
pass steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import random
import traceback
from fractions import Fraction
from pathlib import Path

PACKAGE = "ricci_spectrum"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
#: Where cli_report writes its edge lists, relative to the checkout root.
#: The path appears in the report JSON, so it must not vary between runs.
WORK_DIR = Path(".bench_work")


def layer(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


class JobFailed:
    """Stands in for the output of a job that raised."""

    def __init__(self, error: str):
        self.error = error

    def __eq__(self, other):
        # never equal, so a job that fails in one pass differs in every other
        return False

    def __repr__(self):
        return f"JobFailed({self.error!r})"


def run_job(fn, *args):
    # a failing job is counted and reported; the pass carries on
    try:
        return fn(*args)
    except Exception:
        return JobFailed(traceback.format_exc())


# -- graphs, as (u, v, weight) triples ----------------------------------------


def cycle(n: int) -> list:
    return [(i, (i + 1) % n, 1) for i in range(n)]


def petersen() -> list:
    outer = [(i, (i + 1) % 5, 1) for i in range(5)]
    spokes = [(i, i + 5, 1) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    return outer + spokes + inner


def grid(k: int) -> list:
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1, 1))
            if r + 1 < k:
                edges.append((v, v + k, 1))
    return edges


def wrnd(n: int, p: float, seed: str) -> list:
    """One member of the wrnd(n, p) family; the same seed gives the same graph."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    tree = set()
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        tree.add((min(u, v), max(u, v)))
    rest = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    pairs = sorted(tree) + sorted(rng.sample(rest, round(p * len(rest))))
    loops = sorted(rng.sample(range(n), round(0.2 * n)))
    return [(u, v, rng.randint(1, 9)) for u, v in pairs] + [
        (v, v, rng.randint(1, 9)) for v in loops
    ]


def build(edges):
    return layer("graph").build_graph(edges)


def load_goldens(workload: str, seed: int) -> dict:
    """Recorded outputs: those of fixed graphs hold for every seed."""
    with open(GOLDENS, encoding="utf-8") as fh:
        recorded = json.load(fh)[workload]
    return {**recorded["fixed"], **recorded["seeded"].get(str(seed), {})}


class Workload:
    """Jobs of one pass; subclasses define the inputs, the job and its checks."""

    name = ""
    #: Jobs whose inputs do not depend on the seed, so their goldens hold for all.
    FIXED = frozenset()

    def setup(self) -> list:
        """Fresh inputs for one pass, one per job."""
        raise NotImplementedError

    def job(self, *inputs):
        """The timed call into the package for one job; returns its output."""
        raise NotImplementedError

    def golden(self, out):
        """The part of an output that goldens.json records."""
        raise NotImplementedError

    def validate(self, job: str, out):
        """Check one output on its own; return a failure reason or None."""
        raise NotImplementedError

    def run(self, inputs) -> list:
        return [run_job(self.job, *args) for args in inputs]

    def check(self, seed: int, passes, goldens=None) -> dict:
        """Failed jobs of every pass, as {(pass, job): reason}.

        A job fails when it raised, when its output differs from pass 0 or
        from a golden (by default those recorded for ``seed``), or when pass
        0's output fails ``validate``.
        """
        if goldens is None:
            goldens = load_goldens(self.name, seed)
        failed = {}
        for p, outputs in enumerate(passes):
            for j, (job, out) in enumerate(zip(self.jobs, outputs)):
                if isinstance(out, JobFailed):
                    failed[p, job] = out.error
                elif out != passes[0][j]:
                    failed[p, job] = "output differs from the first pass"
                elif job in goldens and self.golden(out) != goldens[job]:
                    failed[p, job] = f"{self.golden(out)!r} != golden {goldens[job]!r}"
        for job, out in zip(self.jobs, passes[0]):
            if isinstance(out, JobFailed):
                continue
            reason = run_job(self.validate, job, out)
            if isinstance(reason, JobFailed):
                reason = reason.error
            if reason:
                for p in range(len(passes)):
                    failed.setdefault((p, job), reason)
        return failed


# -- cli_report ---------------------------------------------------------------


class CliReport(Workload):
    """``report --format json --t-max 6`` in-process, one job per graph."""

    name = "cli_report"
    FIXED = frozenset({"C5", "Petersen", "grid4"})
    T_MAX = 6

    def __init__(self, seed: int):
        self.graphs = {
            "C5": cycle(5),
            "Petersen": petersen(),
            "grid4": grid(4),
            "wrnd10": wrnd(10, 0.15, f"{seed}:cli_report:wrnd10"),
        }
        self.jobs = list(self.graphs)

    def setup(self):
        directory = WORK_DIR / "cli_report"
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, edges in self.graphs.items():
            path = directory / f"{name}.edges"
            path.unlink(missing_ok=True)
            text = "".join(f"{u} {v} {w}\n" for u, v, w in edges)
            path.write_text(text, encoding="utf-8")
            paths.append((str(path),))
        return paths

    def job(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = layer("cli").main(
                ["report", path, "--format", "json", "--t-max", str(self.T_MAX)]
            )
        if code != 0:
            raise RuntimeError(f"report exited with {code}")
        return out.getvalue()

    def golden(self, text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def validate(self, job, text):
        sections = json.loads(text)["sections"]
        flags = list(_values_of(sections["bounds"], "verified"))
        if not flags or any(f not in (True, None) for f in flags):
            return f"a bound is not verified: {flags}"
        if sections["audit"]["all_passed"] is not True:
            return "audit.all_passed is not true"
        return None


def _values_of(tree, key):
    if isinstance(tree, dict):
        for k, v in tree.items():
            if k == key:
                yield v
            else:
                yield from _values_of(v, key)
    elif isinstance(tree, list):
        for v in tree:
            yield from _values_of(v, key)


# -- gt_curvature ---------------------------------------------------------------


class GtCurvature(Workload):
    """``sandwich_bounds(g, t)``: the exact curvature minimum of G[t].

    Each G[t] of wrnd(10, 0.3) at t = 2, 3 is dense, and grid7 at t = 3 is
    where the closed-form bound is loose.  Simplex pivot counts depend on
    the vertex order, so one graph's cost varies by about 12% from seed to
    seed; many small graphs average that out at the least pass time.
    """

    name = "gt_curvature"
    FIXED = frozenset({"grid7/t3"})
    RANDOM_GRAPHS = 8

    def __init__(self, seed: int):
        self.graphs = {
            f"wrnd10_{i}": wrnd(10, 0.3, f"{seed}:gt_curvature:{i}")
            for i in range(self.RANDOM_GRAPHS)
        }
        self.graphs["grid7"] = grid(7)
        self.cases = [(name, t) for name in self.graphs if name != "grid7" for t in (2, 3)]
        self.cases.append(("grid7", 3))
        self.jobs = [f"{name}/t{t}" for name, t in self.cases]

    def setup(self):
        return [(build(self.graphs[name]), t) for name, t in self.cases]

    def job(self, g, t):
        report = layer("bounds").sandwich_bounds(g, t)
        if report.verified is not True:
            raise RuntimeError(f"sandwich not verified: {report}")
        return str(report.inputs["k_t"]), str(report.inputs["k_t_formula"]), report.lower, report.upper

    def golden(self, out):
        return list(out[:2])

    def validate(self, job, out):
        name, t = self.cases[self.jobs.index(job)]
        gt = layer("walk").neighborhood_graph(build(self.graphs[name]), t)
        return certify_minimum(gt, Fraction(out[0]))


def certify_minimum(gt, k_t: Fraction):
    """Certify k_t on an edge of gt that attains it; return a failure reason or None.

    Only edges whose closed-form lower bound is at most k_t can attain it,
    so those are tried in order of that bound.  The edge's W1 must come with
    a feasible plan and a zero-gap dual, and must equal networkx's network
    simplex on the measures scaled to integers.
    """
    curvature, transport, walk = layer("curvature"), layer("transport"), layer("walk")
    candidates = sorted(
        (curvature.lower_bound_formula(gt, u, v), u, v)
        for u, v, _ in gt.edges() if u != v
    )
    for lower, x, y in candidates:
        if lower > k_t:
            break
        mu, nu = walk.one_step_measure(gt, x), walk.one_step_measure(gt, y)
        w1, plan = transport.wasserstein(gt.distance, mu, nu)
        if 1 - w1 != k_t:  # kappa of an edge, whose hop distance is 1
            continue
        if not transport.verify_plan(plan, mu, nu, gt.distance):
            return f"plan of edge ({x}, {y}) is not feasible"
        transport.dual_certificate(gt.distance, mu, nu, w1)
        reference = network_simplex_w1(gt.distance, mu, nu)
        if reference != w1:
            return f"W1 of edge ({x}, {y}) is {w1}, networkx gives {reference}"
        return None
    return f"no edge attains k_t = {k_t}"


def network_simplex_w1(metric, mu, nu) -> Fraction:
    import networkx as nx

    scale = math.lcm(*(m.denominator for _, m in itertools.chain(mu.items(), nu.items())))
    flow = nx.DiGraph()
    for v, m in mu.items():
        flow.add_node(("s", v), demand=-int(m * scale))
    for v, m in nu.items():
        flow.add_node(("t", v), demand=int(m * scale))
    for (u, _), (v, _) in itertools.product(mu.items(), nu.items()):
        flow.add_edge(("s", u), ("t", v), weight=int(metric(u, v)))
    cost, _ = nx.network_simplex(flow)
    return Fraction(cost, scale)


# -- gt_spectrum ------------------------------------------------------------------


class GtSpectrum(Workload):
    """Walk graphs and spectra with no transport: transfer identity and metric audit."""

    name = "gt_spectrum"
    FIXED = frozenset({"grid7"})
    T_MAX = 8
    COMPLETE_T_MAX = 16

    def __init__(self, seed: int):
        self.graphs = {"grid7": grid(7), "wrnd40": wrnd(40, 0.08, f"{seed}:gt_spectrum:wrnd40")}
        self.jobs = list(self.graphs)

    def setup(self):
        return [(build(edges),) for edges in self.graphs.values()]

    def job(self, g):
        spectrum, bounds, walk = layer("spectrum"), layer("bounds"), layer("walk")
        deviations, audits = [], []
        for t in range(1, self.T_MAX + 1):
            deviations.append(spectrum.verify_transfer_identity(g, t))
            a = bounds.metric_audit(g, t)
            audits.append([a.lower_holds, a.edge_subset, a.upper_holds])
        return deviations, audits, walk.first_complete_t(g, self.COMPLETE_T_MAX)

    def golden(self, out):
        # deviations are floats from the eigensolver; goldens keep exact results
        _, audits, complete_t = out
        return {"audits": audits, "first_complete_t": complete_t}

    def validate(self, job, out):
        deviations, audits, _ = out
        tol = layer("tolerances").TRANSFER_IDENTITY_TOL
        if max(deviations) > tol:
            return f"transfer identity deviation {max(deviations)} > {tol}"
        if any(not lower or upper is False for lower, _, upper in audits):
            return f"metric audit failed: {audits}"
        return None


WORKLOADS = {
    "cli_report": CliReport,
    "gt_curvature": GtCurvature,
    "gt_spectrum": GtSpectrum,
}
