"""Target geometry walkthrough.

Shows the embedded-sphere toolbox the backward dynamics are built on:
nearest-point projection, the second fundamental form and its two
independent computations, the cut-off extension to ambient space, and the
truncated squared-distance function with its lower-bound constant.

Run:  python3 demos/01_target_geometry.py
"""

import numpy as np

from hmflow import UnitSphere, fit_g_inequality_constant, sff_finite_difference

s2 = UnitSphere(2)
print(f"target: {s2}, reach = 1, tube radius delta = {s2.tube_radius}")

p = np.array([0.3, -0.2, 1.2])
q = s2.nearest_point(p)
print(f"\nnearest point of {p} -> {np.round(q, 6)}  (distance {s2.distance(p):.4f})")

print("\nsecond fundamental form at the north pole:")
north = np.array([0.0, 0.0, 1.0])
u = np.array([1.0, 0.0, 0.0])
analytic = s2.second_fundamental_form(north, u, u)
numeric = sff_finite_difference(s2, north, u)
print(f"  closed form          : {np.round(analytic, 10)}")
print(f"  Hessian of projection: {np.round(numeric, 10)}")
print(f"  disagreement         : {np.abs(analytic - numeric).max():.2e}")

print("\ncut-off extension along the polar ray p = (0, 0, 1 + s):")
for s in (0.05, 0.15, 0.25, 0.35, 0.45):
    val = s2.extended_sff(np.array([0.0, 0.0, 1.0 + s]), u)
    print(f"  dist {s:.2f}: cutoff = {s2.cutoff(s):.4f},  "
          f"extended form = {np.round(val, 6)}")

print("\ntruncated squared distance G (plateau at 4 delta^2 = "
      f"{4 * s2.tube_radius ** 2}):")
for s in (0.1, 0.2, 0.3, 0.5, 1.0):
    pt = np.array([0.0, 0.0, 1.0 + s])
    hess = s2.g_hessian_quad(pt, np.array([0.0, 0.0, 1.0]))
    print(f"  dist {s:.1f}: G = {s2.g_value(pt):.4f}, "
          f"|grad G| = {np.linalg.norm(s2.g_gradient(pt)):.4f}, "
          f"Hess G(e_z, e_z) = {hess:.4f}")

c_fit, margin = fit_g_inequality_constant(s2, n_samples=10_000, seed=0)
print(f"\nlower-bound constant for Hess G + <grad G, curvature>:")
print(f"  fitted c = {c_fit:.2f} over 10^4 samples; "
      f"worst margin at 2c = {margin:.3e} (>= 0 means no violation)")
