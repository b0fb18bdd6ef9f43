"""Convergence-domain constants and the coefficient-bound audit.

Given per-species radii 0 < r < R and a log-derivative budget a, the library
evaluates the explicit bound constant C, describes the density polydisk, and
audits computed virial coefficients against C sup|p| prod (e^a/r)^n.
"""

import math

from virialkit import (
    HardRods1D,
    KpSpec,
    McParams,
    MPSeries,
    MultiIndex,
    PressureSeries,
    Truncation,
    check_coefficient_bounds,
    density_domain,
    det_bound_constant,
    hypothesis_check,
    invert_recursive,
    kp_check,
    make_domain_spec,
    z_of_rho_bound,
)

spec = make_domain_spec([(1, 0.25, 1.0, 0.75)])
print("== the bound constant and domains ==")
print("C =", det_bound_constant(spec))
print("density polydisk radius:", density_domain(spec).radii[1])
print("activity bound at rho = 0.01:", z_of_rho_bound(spec, {1: 0.01}, 1))

print()
print("== hypothesis sampling and the audit on p = z - z^2 ==")
p = PressureSeries(MPSeries({MultiIndex.single(1): 1, MultiIndex.single(1, 2): -1},
                            Truncation(6, 1)))
tight = make_domain_spec([(1, 0.1, 0.25, 0.75)])
report = hypothesis_check(p, tight, samples=200)
print(f"max |log dp/dz| over samples: {report.log_checks[0].max_log_abs:.4f} "
      f"(budget {report.log_checks[0].budget})  passed: {report.passed}")

c = invert_recursive(p)
audit = check_coefficient_bounds(p, spec, c)
print("audit of all coefficients through degree 6:",
      "clean" if audit.passed else "violations!")
for entry in audit.entries:
    print(f"  |c| = {entry.value:<8g} bound = {entry.bound:.4g}")

print()
print("== convergence criterion for a hard-rod mixture ==")
cap = 10
rods = HardRods1D({k: k for k in range(1, cap + 1)}, 100)
radii = {k: 0.5 * math.exp(-2 * k) for k in range(1, cap + 1)}
report = kp_check(rods, KpSpec(radii, a=1.0, b=0.0), cap, McParams(100))
print(f"integrals evaluated over: {report.integral_domain}")
for entry in report.entries[:4]:
    print(f"  k={entry.species}: lhs = {entry.lhs:.4f} <= {entry.rhs}  -> {entry.passed}")
print("criterion satisfied for all species up to the cap:", report.passed)
print("radii scaled up 2.8x:",
      kp_check(rods, KpSpec({k: 2.8 * v for k, v in radii.items()}, a=1.0, b=0.0),
               cap, McParams(100)).passed)
