"""Audits: the exact inequalities underneath the eigenvalue bounds.

Positive curvature contracts coupled random walks: the transport distance
between t-step distributions shrinks like (1-k)^t.  The audits below replay
that contraction, the hop-metric comparison with the walk graph, and the
curvature transfer to G[t], all in rational arithmetic.
"""

from ricci_spectrum import (
    build_graph,
    contraction_audit,
    curvature_transfer_check,
    global_lower_bound,
    metric_audit,
    verify_transfer_identity,
)

triangle = build_graph([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
pentagon = build_graph([(i, (i + 1) % 5, 1) for i in range(5)])

# k = 1/2 on the triangle: walk distributions approach each other by at
# least a factor 1/2 per step, and the worst observed ratio confirms it.
print("triangle k =", global_lower_bound(triangle))
audit = contraction_audit(triangle, 4)
print(f"contraction: passed={audit.passed}, worst ratio={audit.max_ratio} "
      f"at (x, y, t)={audit.witness}")

# k = 0 on the pentagon: no contraction, but never expansion either.
audit = contraction_audit(pentagon, 4)
print(f"\npentagon contraction: passed={audit.passed}, worst ratio={audit.max_ratio}")

# Metric comparison: an edge of G[t] spans at most t hops of G, so
# d(x, y)/t <= d_t(x, y); when no edge disappears, d_t <= d as well.
for t in (1, 2, 3):
    m = metric_audit(triangle, t)
    print(f"\ntriangle[{t}] metric: d/t <= d_t holds={m.lower_holds}, "
          f"edges persist={m.edge_subset}, d_t <= d holds={m.upper_holds}")

# Curvature transfer: with the edge set preserved, curvature on G[t] stays
# above 1 - t(1-k)^t.
for t in (2, 3):
    c = curvature_transfer_check(triangle, t)
    print(f"triangle[{t}] curvature transfer: threshold={c.threshold}, "
          f"min kappa={c.min_kappa}, passed={c.passed}")

# And the spectral side of the same story: the walk-graph spectrum is the
# polynomial image of the original one, up to eigensolver noise.
for t in (2, 4, 6):
    print(f"pentagon transfer identity deviation at t={t}:",
          f"{verify_transfer_identity(pentagon, t):.2e}")
