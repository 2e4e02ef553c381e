"""Independent verification of a solved flow.

Every check here avoids the solver's own stepping machinery: the flow
equation residual plugs the field into the evolution law directly, the
stay-on-target check follows the truncated squared distance along fresh
sample paths (`solve` draws none; `sample_solution` draws them from the
solved field), the weak-form identity integrates against test functions,
and a rotation-equivariant sphere-to-sphere run is compared with a
method-of-lines reference.

Run:  python3 demos/05_verification.py
"""

import numpy as np

from hmflow import (DOMAIN_SAMPLE_PATH, bsde_residual, make_benchmark, pde_reference,
                    sample_solution, solve, stay_on_target, tension_residual,
                    weak_form_residual)

print("=== circle -> sphere great-circle map (harmonic) ===")
case = make_benchmark("great_circle_s2", horizon=0.25)
field, state = solve(case.source, case.target, case.terminal, 0.25,
                     tol=1e-10, dt=1e-3)
# the solution pair (Y, Z) of the fixed point along 1000 fresh grid-start paths
sample = sample_solution(field, 1000, 0, DOMAIN_SAMPLE_PATH)

times, res = tension_residual(case.source, case.target, field)
print(f"flow-equation residual: sup over interior slices = {res.max():.2e}")

report = stay_on_target(sample)
print(f"stay-on-target: max distance of Y from the sphere = "
      f"{report.max_dist:.2e} over 1000 paths")
print("decay of mean G along the sample (every 50th slice):")
for k in range(0, len(report.times), 50):
    print(f"  s = {report.times[k]:.3f}: mean G = {report.mean_g[k]:.3e}, "
          f"integral to horizon = {report.integral[k]:.3e}")
print(f"fitted self-bounding constant: {report.c_fit:.1f}")

wf = weak_form_residual(case.source, field, np.cos(case.source.thetas))
print(f"weak-form identity defect against cos(theta): {wf:.2e}")

print(f"pathwise backward-identity residual: {bsde_residual(sample):.3e} "
      "(decays like sqrt(dt))")

print("\n=== equivariant sphere -> sphere flow vs method-of-lines ===")
case = make_benchmark("equivariant_s2", horizon=0.1, amplitude=0.2,
                      n_theta=32, n_phi=64)
ref = pde_reference(case, n_t=40)
field, state = solve(case.source, case.target, case.terminal, 0.1,
                     tol=1e-9, dt=0.0025)
err = np.abs(field.values - ref.values).max()
print(f"converged in {state.iterations} iterations; "
      f"sup error vs reference = {err:.2e}")

print("\n=== refinement: the stay-on-target distance is O(dt^2) ===")
case = make_benchmark("great_circle_s2", horizon=0.25)
for dt in (1e-2, 1e-3):
    u, _ = solve(case.source, case.target, case.terminal, 0.25, tol=1e-10, dt=dt)
    sm = sample_solution(u, 300, 0, DOMAIN_SAMPLE_PATH)
    print(f"  dt = {dt:.0e}: max distance = {stay_on_target(sm).max_dist:.3e}")

print("\n=== short-time gradient growth of the heat semigroup ===")
from hmflow import Circle, constant_radius, semigroup_gradient_rate

circle = Circle(constant_radius(1.0), n_theta=1024)
taus = [1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2]
sups, rate = semigroup_gradient_rate(circle, taus)
for tau, s in zip(taus, sups):
    print(f"  tau = {tau:.4f}: sup |grad P_tau f| = {s:7.2f}")
print(f"fitted growth exponent: {rate:.3f} (bounded rough data smooths at "
      "rate tau^(-1/2); the prefactor is reported, not asserted)")
