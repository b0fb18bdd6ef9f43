"""One-dimensional hard rods, where everything is known in closed form.

Rods of length 1 have virial coefficients 1, 1, 1, ...  The demo estimates
cluster integrals by Monte Carlo, compares the single-edge integral with its
exact value, and pushes the estimates through the inversion pipeline.
"""

from virialkit import (
    ColouredGraph,
    Graph,
    HardRods1D,
    McParams,
    MultiIndex,
    Truncation,
    invert_recursive,
    mc_pressure_series,
    pair_integral_exact,
    weight_mc,
)

rods = HardRods1D(sigma={1: 1}, box_length=10)

print("== the single-edge cluster integral ==")
exact = pair_integral_exact(rods, 1, 1)
print("exact value:", exact)
edge = ColouredGraph(Graph.from_edges(2, [(1, 2)]), (1, 1))
est, err = weight_mc(edge, rods, McParams(sample_count=200_000, seed=1))
print(f"monte carlo: {est:.4f} +- {err:.4f}")

print()
print("== the triangle: three mutually overlapping rods ==")
triangle = ColouredGraph(Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), (1, 1, 1))
est, err = weight_mc(triangle, rods, McParams(sample_count=200_000, seed=2))
print(f"monte carlo: {est:.4f} +- {err:.4f}   (closed form: -3)")

print()
print("== virial coefficients from sampled weights ==")
p, errors = mc_pressure_series(rods, McParams(sample_count=300_000, seed=3),
                               Truncation(degree=3, species=1))
for k in (1, 2, 3):  # the series holds each estimate at its exact binary value
    n = MultiIndex.single(1, k)
    print(f"b({k}) = {float(p.series[n]):.4f} +- {errors[n]:.4f}")
c = invert_recursive(p).series
for k in (2, 3):
    n = MultiIndex.single(1, k)
    print(f"c({k}) = {float(c[n]):.4f}   (hard rods of length 1: exactly 1)")
