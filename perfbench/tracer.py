"""Outside-in per-layer tracer for the ricci_spectrum package.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces every public
function of each layer module with a timing wrapper, in every package module
that holds a binding of it: the modules import each other by name, so
``bounds.wasserstein`` and ``curvature.wasserstein`` are separate bindings
of ``transport.wasserstein`` and both must be wrapped.  ``uninstall`` puts
the originals back.  Use it as a context manager around one pass.

A layer is a package module.  A wrapped call opens a span; a layer's self
time is the duration of its spans minus the time their child spans (and the
counting hooks below) cover.  Hooks on a few functions count the work a
layer does and how much of it repeats work already done in the same pass,
comparing graphs by content, so a G[t] rebuilt from scratch counts as a
repeat.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ricci_spectrum"

#: Package modules that do work, outermost first.  ``errors`` and
#: ``tolerances`` hold no functions worth timing.
LAYERS = ("cli", "bounds", "curvature", "transport", "walk", "spectrum", "graph")

#: Methods that are a layer's work but are not module-level functions.
METHODS = {
    "walk": (("ProbMeasure", "pushforward"),),
    "graph": (("WeightedGraph", "distance_matrix"),),
}


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def _measure_key(measure) -> tuple:
    """Support and masses of a ProbMeasure or a vertex -> mass mapping."""
    return tuple(sorted((v, m) for v, m in measure.items() if m))


class Tracer:
    """Per-layer self time, call counts and work counters of one pass."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = defaultdict(float)  # "layer.function" -> inclusive seconds
        self.calls = Counter()  # "layer.function" -> calls
        self.counts = Counter()  # work counters, named as the metrics
        self.distinct = defaultdict(set)  # counter name -> keys of distinct work
        self.den_bits = dict(transport=0, walk=0)
        self._stack = []  # child time covered so far, one entry per open span
        self._patches = []  # (owner, attribute, original)
        self._graphs = {}  # id(graph) -> (graph, content index); holds the graph
        self._contents = {}  # graph -> content index, by WeightedGraph equality
        self._hooks = {
            "transport.wasserstein": self._on_wasserstein,
            "transport.dual_certificate": self._on_dual_certificate,
            "curvature.ricci_curvature": self._on_curvature,
            "walk.neighborhood_graph": self._on_neighborhood_graph,
            "walk.ProbMeasure.pushforward": self._on_pushforward,
            "spectrum.spectrum": self._on_eigensolve,
            "spectrum.eigenpairs": self._on_eigensolve,
        }

    # -- installing ------------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(obj, layer, f"{layer}.{name}")
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                original = vars(cls)[method]
                self._patch(cls, method, self._wrap(original, layer, f"{layer}.{cls_name}.{method}"))
        # ``ricci_spectrum.spectrum`` is the function, not the module, so the
        # modules are reached through sys.modules
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, name, wrappers[obj])

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, layer, qualname):
        hook = self._hooks.get(qualname)
        stack = self._stack
        perf = time.perf_counter

        def close(elapsed, covered):
            self.self_s[layer] += elapsed - stack.pop()
            self.total_s[qualname] += elapsed
            self.calls[qualname] += 1
            if stack:
                stack[-1] += covered

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                elapsed = perf() - start
                close(elapsed, elapsed)
                raise
            elapsed = perf() - start
            if hook is not None:
                hook(args, result)
            # the parent's self time excludes the hook as well
            close(elapsed, perf() - start)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counting hooks ---------------------------------------------------------

    def _graph_key(self, g) -> int:
        entry = self._graphs.get(id(g))
        if entry is None:
            entry = (g, self._contents.setdefault(g, len(self._contents)))
            self._graphs[id(g)] = entry
        return entry[1]

    def _solve(self, metric, mu, nu, w1):
        mu_key, nu_key = _measure_key(mu), _measure_key(nu)
        owner = getattr(metric, "__self__", None)
        metric_key = ("graph", self._graph_key(owner)) if owner is not None else ("fn", metric)
        self.counts["transport.solves"] += 1
        self.counts["transport.cells"] += len(mu_key) * len(nu_key)
        self.distinct["transport.solves"].add((metric_key, mu_key, nu_key))
        bits = _den_bits([m for _, m in mu_key] + [m for _, m in nu_key] + [w1])
        self.den_bits["transport"] = max(self.den_bits["transport"], bits)

    def _on_wasserstein(self, args, result):
        metric, mu, nu = args[:3]
        self._solve(metric, mu, nu, result[0])

    def _on_dual_certificate(self, args, result):
        metric, mu, nu, primal_cost = args[:4]
        self._solve(metric, mu, nu, primal_cost)

    def _on_curvature(self, args, result):
        g, x, y = args[:3]
        self.counts["curvature.kappa_calls"] += 1
        self.distinct["curvature.kappa_calls"].add((self._graph_key(g), x, y))

    def _on_neighborhood_graph(self, args, result):
        g, t = args[:2]
        self.counts["walk.gt_builds"] += 1
        self.distinct["walk.gt_builds"].add((self._graph_key(g), t))
        bits = _den_bits([w for _, _, w in result.edges()])
        self.den_bits["walk"] = max(self.den_bits["walk"], bits)

    def _on_pushforward(self, args, result):
        self.counts["walk.pushforwards"] += 1
        bits = _den_bits([m for _, m in result.items()])
        self.den_bits["walk"] = max(self.den_bits["walk"], bits)

    def _on_eigensolve(self, args, result):
        self.counts["spectrum.calls"] += 1
        self.distinct["spectrum.calls"].add(self._graph_key(args[0]))

    # -- report ----------------------------------------------------------------------

    def useful(self, counter: str) -> float:
        """Distinct work over work done; 1.0 when the layer did none."""
        done = self.counts[counter]
        return len(self.distinct[counter]) / done if done else 1.0

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass, keyed by metric name."""
        m = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        m.update({
            "transport.solves": self.counts["transport.solves"],
            "transport.solves_useful": self.useful("transport.solves"),
            "transport.cells": self.counts["transport.cells"],
            "transport.den_bits_max": self.den_bits["transport"],
            "curvature.kappa_calls": self.counts["curvature.kappa_calls"],
            "curvature.kappa_useful": self.useful("curvature.kappa_calls"),
            "walk.pushforwards": self.counts["walk.pushforwards"],
            "walk.gt_builds": self.counts["walk.gt_builds"],
            "walk.gt_useful": self.useful("walk.gt_builds"),
            "walk.den_bits_max": self.den_bits["walk"],
            "graph.partition_calls": self.calls["graph.neighbor_partition"],
            "spectrum.calls": self.counts["spectrum.calls"],
            "spectrum.useful": self.useful("spectrum.calls"),
            "cli.parse_s": self.total_s["cli.parse_edge_list"],
            "cli.render_s": self.total_s["cli.render"],
            "bounds.calls": sum(n for name, n in self.calls.items() if name.startswith("bounds.")),
        })
        return m
