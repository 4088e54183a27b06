"""Walkthrough: eigenvalue bounds for the 5-cycle from walk curvature.

The 5-cycle is the smallest graph where plain curvature says nothing about
the spectrum (its curvature infimum is 0), yet curvature measured on the
random-walk neighborhood graphs gives nontrivial two-sided bounds that keep
improving with the walk length.
"""

from ricci_spectrum import (
    build_graph,
    global_lower_bound,
    k_scan,
    largest_upper,
    neighborhood_graph,
    ollivier_lower,
    ricci_curvature,
)
from ricci_spectrum.spectrum import spectrum

pentagon = build_graph([(i, (i + 1) % 5, 1) for i in range(5)])

# The true spectrum we are trying to trap: 1 - cos(2 pi j / 5).
spec = spectrum(pentagon)
print("spectrum:", [f"{v:.6f}" for v in spec.eigenvalues])
print(f"lambda_1 = {spec.lambda_1:.4f}, lambda_max = {spec.lambda_max:.4f}")

# Every adjacent pair has curvature exactly 0, so the one-step bounds
# lambda_1 >= k and lambda_max <= 2 - k collapse to the trivial [0, 2].
kappa = ricci_curvature(pentagon, 0, 1)
print(f"\nkappa(v0, v1) = {kappa.kappa} (W1 = {kappa.w1})")
print("one-step gap bound:     ", ollivier_lower(pentagon).lower)
print("one-step largest bound: ", largest_upper(pentagon).upper)

# Walk graphs change the picture. G[2] keeps the degrees but rewires the
# edges along 2-step walks; its curvature infimum is 1/4.
g2 = neighborhood_graph(pentagon, 2)
print("\nG[2] edges (loops included):")
for u, v, w in g2.edges():
    print(f"  {u} {v}  weight {w}")
print("k[2] =", global_lower_bound(g2))

# Scanning t = 1..6 produces a shrinking bracket around the spectrum:
# lower = 1 - (1 - k[t])^(1/t), upper = 1 + (1 - k[t])^(1/t).
print("\n t  k[t]    lower    upper")
table = k_scan(pentagon, 6)
for row in table.rows:
    print(f" {row.t}  {str(row.k_exact):5}  {row.lower:.4f}   {row.upper:.4f}")
print(f"best lower arm at t={table.best_lower_t}, best upper arm at t={table.best_upper_t}")
print(f"(true gap {spec.lambda_1:.4f} and top {spec.lambda_max:.4f} stay inside every row)")
