"""Complete graphs: where every curvature-based eigenvalue bound is sharp.

The unweighted complete graph K_N has curvature (N-2)/(N-1) on every pair
and eigenvalues {0, N/(N-1)}; the upper bound 2 - k lands exactly on the
largest eigenvalue.  Making the walk lazy (unit loop at every vertex, so
each step is uniform over all N vertices) pushes the curvature to 1 and the
whole nonzero spectrum to 1, making both bounds tight at once.
"""

from fractions import Fraction

from ricci_spectrum import (
    build_graph,
    joint_neighbor_bounds,
    largest_upper,
    lazy_graph,
    lower_bound_formula,
    ollivier_lower,
    one_step_measure,
    ricci_curvature,
    upper_bound_formula,
)
from ricci_spectrum.spectrum import spectrum


def complete(n):
    return build_graph([(i, j, 1) for i in range(n) for j in range(i + 1, n)])


for n in (3, 5, 8):
    g = complete(n)
    kappa = ricci_curvature(g, 0, 1).kappa
    spec = spectrum(g)
    print(f"K_{n}:  kappa = {kappa}  (= (N-2)/(N-1))")
    print(f"      spectrum = 0, {spec.lambda_max:.6f} x{n - 1}")
    print(f"      gap bound {ollivier_lower(g).lower:.6f} < lambda_1, "
          f"largest bound {largest_upper(g).upper:.6f} = lambda_max")

# The lazy variant: loops of weight 1 make one-step measures uniform.
lazy = lazy_graph(complete(5), Fraction(1, 5))
print("\nlazy K_5 one-step measure from any vertex:", one_step_measure(lazy, 0))
print("kappa =", ricci_curvature(lazy, 0, 1).kappa)
print("closed-form bounds:", lower_bound_formula(lazy, 0, 1), "<= kappa <=",
      upper_bound_formula(lazy, 0, 1))
print("spectrum:", [f"{v:.3f}" for v in spectrum(lazy).eigenvalues])

# Counting joint neighbors (triangles through an edge plus loops at its
# ends) gives an independent route to the same sharp constants.
print("\njoint-neighbor route:")
for g, name in ((complete(5), "K_5"), (lazy, "lazy K_5")):
    report = joint_neighbor_bounds(g)
    print(f"  {name}: upper {report.upper}, lower {report.lower} "
          f"(lambda_max = {spectrum(g).lambda_max:.6f})")
