"""The fixed-point solve, start to finish.

Runs the backward-flow iteration on circle-valued benchmarks with known
closed forms: the harmonic identity map (a fixed point up to scheme
error), the perturbed geodesic whose perturbation amplitude decays under
the flow, and the same benchmark with a breathing metric where the decay
follows the time-change integral.  `solve` returns the fixed point and
its iteration state; the demo prints the contraction history.

Run:  python3 demos/04_picard_harmonic_flow.py
"""

import numpy as np

from hmflow import circle_lift, make_benchmark, pde_reference, solve, time_change

print("=== harmonic identity map: one delta and done ===")
case = make_benchmark("identity_circle", horizon=0.25)
field, state = solve(case.source, case.target, case.terminal, 0.25,
                     tol=1e-10, dt=1e-3)
print(f"iterations: {state.iterations}, first delta = {state.deltas[0]:.2e}, "
      f"sup distance from terminal = "
      f"{np.abs(field.values - case.terminal[None]).max():.2e}")

print("\n=== perturbed geodesic, horizon 0.5 ===")
case = make_benchmark("perturbed_geodesic", horizon=0.5)
field, state = solve(case.source, case.target, case.terminal, 0.5,
                     tol=1e-10, dt=1e-3)
ref = pde_reference(case, n_t=field.n_t)
print(f"converged in {state.iterations} iterations at horizon "
      f"{state.horizon} (tried {state.horizons_tried})")
print(f"sup error vs mode-decay reference: "
      f"{np.abs(field.values - ref.values).max():.2e}")
print("contraction history (n, delta, ratio):")
final = [rec for rec in state.records if rec["horizon"] == state.horizon]
for rec in final[:8]:
    ratio = rec["ratio"]
    print(f"  {rec['n']:2d}   {rec['delta']:.3e}   "
          f"{'-' if ratio is None else f'{ratio:.3f}'}")

print("\namplitude of the sin-theta mode per slice (flow vs exact decay):")
th = case.source.thetas
for j in np.linspace(0, field.n_t, 6).astype(int):
    lift = circle_lift(field.values[j], th)
    amp = 2.0 * np.mean((lift - th) * np.sin(th))
    exact = 0.3 * np.exp(-0.5 * (0.5 - field.times[j]))
    print(f"  t = {field.times[j]:.3f}: {amp:.6f} vs {exact:.6f}")

print("\n=== breathing metric rho(t) = 1 + 0.2 sin t ===")
case = make_benchmark("perturbed_geodesic_sine_metric", horizon=0.5)
field, state = solve(case.source, case.target, case.terminal, 0.5,
                     tol=1e-10, dt=1e-3)
for j in (0, field.n_t // 2):
    lift = circle_lift(field.values[j], th)
    amp = 2.0 * np.mean((lift - th) * np.sin(th))
    tau = time_change(case.source.profile, field.times[j], 0.5)
    print(f"  t = {field.times[j]:.2f}: amplitude {amp:.6f} vs "
          f"0.3 exp(-tau/2) = {0.3 * np.exp(-0.5 * tau):.6f}")

print("\n=== short horizon: measured contraction factor ===")
case = make_benchmark("perturbed_geodesic", horizon=1.0)
_, state = solve(case.source, case.target, case.terminal, 0.05,
                 tol=1e-10, dt=1e-3)
print(f"ratios at horizon 0.05: {['%.3f' % r for r in state.ratios]} "
      "(all far below the 1/2 contraction bound)")
