"""Forward diffusion on circles and spheres with a changing radius.

Simulates the metric Brownian motion, checks the exact decay of the first
moments (a time change through the radius profile), and prints the
one-step weak-consistency table of the integrators.

Run:  python3 demos/02_brownian_paths.py
"""

import numpy as np

from hmflow import (Circle, Sphere2, constant_radius, moment_check, simulate,
                    sine_radius, time_change, weak_error_probe)

print("=== circle, static radius ===")
circle = Circle(constant_radius(1.0), n_theta=64, horizon=1.0)
rep = moment_check(circle, 0.0, 1.0, 1 / 256, 20_000, master_seed=42)
print(f"E[cos theta] at t=1: sample {rep['sample_mean']:.5f} vs exact "
      f"{rep['expected']:.5f}  (z = {rep['zscore']:+.2f}, pass={rep['pass']})")

print("\n=== circle, breathing radius 1 + 0.2 sin t ===")
breathing = Circle(sine_radius(0.2, 1.0), n_theta=64, horizon=1.0)
rep = moment_check(breathing, 0.0, 1.0, 1 / 256, 20_000, master_seed=43)
tau = time_change(breathing.profile, 0.0, 1.0)
print(f"time change integral of rho^-2 over [0,1]: {tau:.6f}")
print(f"E[cos theta]: sample {rep['sample_mean']:.5f} vs exact "
      f"{rep['expected']:.5f}  (z = {rep['zscore']:+.2f}, pass={rep['pass']})")

print("\n=== sphere, projected Euler-Maruyama ===")
sphere = Sphere2(constant_radius(1.0), n_theta=16, n_phi=32, horizon=1.0)
x0 = np.array([0.0, 0.0, 1.0])
rep = moment_check(sphere, x0, 0.5, 1 / 128, 20_000, master_seed=44)
print(f"E[<X, x0>] at t=0.5: sample {rep['sample_mean']:.5f} vs exact "
      f"{rep['expected']:.5f}  (z = {rep['zscore']:+.2f}, pass={rep['pass']})")
print(f"max |X|-1 before renormalization: {rep['max_constraint_violation']:.2e} "
      f"(one step is {1 / 128:.4f})")

print("\n=== determinism: same seed, same paths ===")
a = simulate(circle, 0.0, 0.5, 1 / 64, 1000, master_seed=7)
b = simulate(circle, 0.0, 0.5, 1 / 64, 1000, master_seed=7)
print(f"two runs identical: {np.array_equal(a.states, b.states)}")

print("\n=== one-step weak error beyond (h/2) Lap f ===")
tab = weak_error_probe(circle, 0.0, 0.0, np.cos, [1e-1, 1e-2, 1e-3, 1e-4])
print("circle (Gauss-Hermite expectation):")
for h, r in tab:
    print(f"  h = {h:8.1e}   residual = {r:.3e}")
slope = np.polyfit(np.log(tab[:, 0]), np.log(tab[:, 1]), 1)[0]
print(f"  fitted log-log slope: {slope:.3f}  (second order: the scheme is "
      "first-order weakly consistent)")

fine = Sphere2(constant_radius(1.0), n_theta=256, n_phi=512, horizon=1.0)
f = lambda p: 0.6 * np.asarray(p)[..., 2] + 0.8 * np.asarray(p)[..., 0]
start = np.array([0.0, 0.6, 0.8])
tab = weak_error_probe(fine, 0.0, start, f, [0.32, 0.16, 0.08, 0.04])
print("sphere (Gauss-Hermite expectation through the path step):")
for h, r in tab:
    print(f"  h = {h:8.2f}   residual = {r:.3e}")
slope = np.polyfit(np.log(tab[:, 0]), np.log(tab[:, 1]), 1)[0]
print(f"  fitted log-log slope: {slope:.3f}")
