"""Exact optimal transport between walk measures, with a dual certificate.

Curvature is defined through the cheapest way to move one walk distribution
onto another, with hop distance as the unit cost.  Everything below is
rational arithmetic: the optimum, the plan, and the 1-Lipschitz potential
certifying optimality from the other side.
"""

from ricci_spectrum import (
    build_graph,
    dual_certificate,
    one_step_measure,
    ricci_curvature,
    verify_plan,
    wasserstein,
)

pentagon = build_graph([(i, (i + 1) % 5, 1) for i in range(5)])

mu = one_step_measure(pentagon, 0)
nu = one_step_measure(pentagon, 1)
print("mu = walk from v0:", mu)
print("nu = walk from v1:", nu)

cost, plan = wasserstein(pentagon.distance, mu, nu)
print(f"\nW1(mu, nu) = {cost}")
print("an optimal plan:")
for (src, dst), mass in plan.entries.items():
    print(f"  move {mass} from v{src} to v{dst} (distance {pentagon.distance(src, dst)})")
print("plan verifies:", verify_plan(plan, mu, nu, pentagon.distance))

# The certificate: a function with |f(u) - f(v)| <= d(u, v) whose mu/nu gap
# equals the cost, proving no cheaper plan exists.
cert = dual_certificate(pentagon.distance, mu, nu, cost)
print("\n1-Lipschitz potential:", dict(cert.potential))
gap = sum(cert.potential[v] * m for v, m in mu.items()) - sum(
    cert.potential[v] * m for v, m in nu.items()
)
print("dual value:", gap)
print("equals the primal cost:", gap == cost)

# Curvature is one minus the transport cost per unit distance.
value = ricci_curvature(pentagon, 0, 1)
print(f"\nkappa(v0, v1) = 1 - {value.w1}/{value.distance} = {value.kappa}")

# A weighted example with a loop: the loop pins mass in place, which makes
# staying cheap and pushes the curvature up.
looped = build_graph([(0, 1, "1/2"), (1, 2, 1), (0, 2, 1), (0, 0, "3/2")])
value = ricci_curvature(looped, 0, 1)
print(f"\nweighted triangle with a loop at v0: kappa(v0, v1) = {value.kappa}")
