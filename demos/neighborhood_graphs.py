"""Neighborhood graphs G[t]: walk probabilities turned back into a graph.

w_xy[t] is the probability a t-step walk from x ends at y, scaled by the
degree of x.  Degrees never change, but the edge set does: bipartite graphs
fall apart at even t (a walk of even length cannot switch color classes),
while non-bipartite graphs eventually become complete with loops.
"""

from ricci_spectrum import (
    build_graph,
    first_complete_t,
    heat_kernel,
    is_bipartite,
    neighborhood_graph,
    t_step_measure,
)

square = build_graph([(i, (i + 1) % 4, 1) for i in range(4)])
pentagon = build_graph([(i, (i + 1) % 5, 1) for i in range(5)])

print("square (bipartite):", is_bipartite(square)[0])
print("pentagon (odd cycle):", is_bipartite(pentagon)[0])

# Even t fractures the bipartite square into its two color classes.
sq2 = neighborhood_graph(square, 2)
print("\nsquare[2] connected:", sq2.is_connected())
print("square[2] distance between color classes:", sq2.distance(0, 1))
print("square[2] edges:", [(u, v, str(w)) for u, v, w in sq2.edges()])

# Odd t keeps bipartite graphs connected and bipartite.
sq3 = neighborhood_graph(square, 3)
print("square[3] connected:", sq3.is_connected(),
      "| bipartite:", is_bipartite(sq3)[0])

# The pentagon stays connected at every order and saturates at t = 4.
for t in (2, 3, 4):
    gt = neighborhood_graph(pentagon, t)
    print(f"\npentagon[{t}]: loops at {[x for x in gt.vertices() if gt.has_loop(x)]}")
    print(f"  weights: {sorted(set(str(w) for _, _, w in gt.edges()))}")
print("\nfirst t with all-pairs walks (pentagon):", first_complete_t(pentagon, 16))
print("first t with all-pairs walks (square):  ", first_complete_t(square, 16))

# The walk distribution itself, and the symmetric heat kernel it induces.
print("\n4-step walk from pentagon v0:", t_step_measure(pentagon, 0, 4))
print("heat kernel p_2(v0, v0):", heat_kernel(pentagon, 2, 0, 0))
print("heat kernel symmetric:", heat_kernel(pentagon, 3, 0, 2) == heat_kernel(pentagon, 3, 2, 0))
