"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run pytest with -s or -rA to see them).  Criteria 1-6 are library-level
checks of the solver against exact oracles; 7-9 validate the integrators
and the pathwise backward identity; 10 reruns the criteria-1..6
configurations through the CLI and byte-compares every emitted CSV/JSON.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from hmflow.bsde import bsde_residual, picard_map, step_operators
from hmflow.cli import main as cli_main
from hmflow.fields import MapField
from hmflow.forward import time_change, weak_error_probe
from hmflow.picard import solve
from hmflow.sources import Circle, Sphere2, constant_radius, sine_radius
from hmflow.targets import FlatSpace, UnitSphere, sff_finite_difference
from hmflow.verify import make_benchmark, stay_on_target


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_flat_target_feynman_kac():
    start = time.perf_counter()
    c = Circle(constant_radius(1.0), n_theta=256, horizon=1.0)
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    flat = FlatSpace(2)

    u = MapField.constant_in_time(c, flat, h, 1.0, 1000)   # dt = 1e-3
    w = picard_map(u, h, step_operators(u, "semigroup"))
    exact = np.exp(-0.5 * (1.0 - w.times))[:, None, None] * h[None]
    sup_err = float(np.abs(w.values - exact).max())

    # Monte Carlo backend: 1e4 paths per node-batch; its standard error is
    # estimated from ten independent runs at 1e3 paths, scaled by sqrt(10)
    u_mc = MapField.constant_in_time(c, flat, h, 1.0, 100)  # dt = 1e-2
    exact_mc = np.exp(-0.5 * (1.0 - u_mc.times))[:, None, None] * h[None]
    runs = np.array([picard_map(u_mc, h, step_operators(u_mc, "monte_carlo", n_paths=1000,
                                                        master_seed=1000 + r)).values
                     for r in range(10)])
    sigma = runs.std(axis=0, ddof=1) * np.sqrt(1000.0 / 10_000.0)
    w_mc = picard_map(u_mc, h, step_operators(u_mc, "monte_carlo", n_paths=10_000,
                                              master_seed=7)).values
    diff = np.abs(w_mc - exact_mc)
    frac = float(np.mean(diff[:-1] <= 3 * sigma[:-1] + 1e-14))
    worst = float(np.max(diff[:-1] - 6 * sigma[:-1]))
    wall = time.perf_counter() - start
    ok = sup_err <= 1e-6 and frac >= 0.97 and worst <= 1e-9 and wall <= 60
    report(1, ok, f"semigroup sup_err={sup_err:.2e} (<=1e-6); "
                  f"MC within 3SE at {frac:.1%} of nodes, runtime {wall:.1f}s")


def test_criterion_02_harmonic_fixed_point():
    start = time.perf_counter()
    c = Circle(constant_radius(1.0), n_theta=256, horizon=1.0)
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    field, state, _ = solve(c, UnitSphere(1), h, 0.25, tol=1e-10, dt=1e-3,
                            sample_paths=100)
    dist = float(np.abs(field.values - h[None]).max())
    wall = time.perf_counter() - start
    ok = (state.converged and state.deltas[0] <= 1e-4 and dist <= 1e-3
          and wall <= 60)
    report(2, ok, f"first delta={state.deltas[0]:.2e} (<=1e-4), "
                  f"sup distance from terminal={dist:.2e} (<=1e-3), "
                  f"runtime {wall:.1f}s")


def _perturbed_geodesic_run(case, horizon):
    field, state, sample = solve(case.source, case.target, case.terminal,
                                 horizon, tol=1e-10, dt=1e-3, sample_paths=100)
    th = case.source.thetas
    amp = [0.3 * np.exp(-0.5 * time_change(case.source.profile, t, horizon))
           for t in field.times]
    phi = th[None] + np.array(amp)[:, None] * np.sin(th)[None]
    exact = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return field, state, sample, float(np.abs(field.values - exact).max())


def test_criterion_03_perturbed_geodesic_closed_form():
    start = time.perf_counter()
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    field, state, _, sup_err = _perturbed_geodesic_run(case, 0.5)
    wall = time.perf_counter() - start
    ok = state.converged and sup_err <= 5e-3 and wall <= 300
    report(3, ok, f"sup error vs closed form={sup_err:.2e} (<=5e-3), "
                  f"{state.iterations} iterations, runtime {wall:.1f}s")


def test_criterion_04_time_dependent_metric():
    from hmflow.verify import circle_lift
    start = time.perf_counter()
    case = make_benchmark("perturbed_geodesic_sine_metric", horizon=0.5)
    field, state, _, sup_err = _perturbed_geodesic_run(case, 0.5)
    # amplitude factor per slice vs the exact time-change decay
    th = case.source.thetas
    amp_err = 0.0
    for j, t in enumerate(field.times):
        lift = circle_lift(field.values[j], th)
        amp = 2.0 * np.mean((lift - th) * np.sin(th)) / 0.3
        exact = np.exp(-0.5 * time_change(case.source.profile, t, 0.5))
        amp_err = max(amp_err, abs(amp - exact))
    wall = time.perf_counter() - start
    ok = state.converged and sup_err <= 1e-2 and amp_err <= 1e-2 and wall <= 300
    report(4, ok, f"sup error={sup_err:.2e}, amplitude-factor error="
                  f"{amp_err:.2e} (both <=1e-2), runtime {wall:.1f}s")


def test_criterion_05_contraction_bound():
    case = make_benchmark("perturbed_geodesic", horizon=1.0)
    _, s005, _ = solve(case.source, case.target, case.terminal, 0.05,
                       tol=1e-10, dt=1e-3, sample_paths=50)
    max_ratio = max(s005.ratios)
    no_halving = []
    for horizon in (0.2, 0.1):
        _, st, _ = solve(case.source, case.target, case.terminal, horizon,
                         tol=1e-10, dt=1e-3, sample_paths=50)
        no_halving.append(st.converged and st.horizons_tried == [horizon])
    ok = max_ratio <= 0.5 and all(no_halving)
    report(5, ok, f"all ratios at T0=0.05 <= {max_ratio:.3f} (<=0.5); "
                  f"contracts without halving at T0 in (0.2, 0.1)")


def test_criterion_06_stay_on_target():
    start = time.perf_counter()
    case = make_benchmark("great_circle_s2", horizon=0.25)
    dists = {}
    for dt in (1e-3, 1e-4):
        _, _, sample = solve(case.source, case.target, case.terminal, 0.25,
                             tol=1e-10, dt=dt, sample_paths=1000)
        dists[dt] = stay_on_target(case.target, sample).max_dist
    factor = dists[1e-3] / dists[1e-4]
    wall = time.perf_counter() - start
    ok = dists[1e-3] <= 1e-2 and factor >= 2.0
    report(6, ok, f"max dist at dt=1e-3: {dists[1e-3]:.2e} (<=1e-2); "
                  f"10x finer step shrinks it {factor:.1f}x (>=2), "
                  f"runtime {wall:.1f}s")


def test_criterion_07_weak_error_consistency():
    c = Circle(constant_radius(1.0), n_theta=256, horizon=1.0)
    tab = weak_error_probe(c, 0.0, 0.0, np.cos, [1e-1, 1e-2, 1e-3, 1e-4])
    slope_circle = float(np.polyfit(np.log(tab[:, 0]), np.log(tab[:, 1]), 1)[0])

    s = Sphere2(constant_radius(1.0), n_theta=256, n_phi=512, horizon=1.0)

    def f(p):
        p = np.asarray(p)
        return 0.6 * p[..., 2] + 0.8 * p[..., 0]

    x0 = np.array([0.0, 0.6, 0.8])
    tab_s = weak_error_probe(s, 0.0, x0, f, [0.32, 0.16, 0.08, 0.04])
    slope_sphere = float(np.polyfit(np.log(tab_s[:, 0]), np.log(tab_s[:, 1]), 1)[0])
    ok = 1.8 <= slope_circle <= 2.2 and 0.9 <= slope_sphere <= 1.6
    report(7, ok, f"circle residual slope={slope_circle:.3f} (in [1.8,2.2]); "
                  f"sphere slope={slope_sphere:.3f} (in [0.9,1.6], Gauss-Hermite)")


def test_criterion_08_geometry_unit_oracle():
    s2 = UnitSphere(2)
    rng = np.random.default_rng(12345)
    p = rng.standard_normal((10_000, 3))
    p /= np.linalg.norm(p, axis=-1, keepdims=True)
    u = rng.standard_normal((10_000, 3))
    u -= np.sum(u * p, -1, keepdims=True) * p
    gamma = s2.second_fundamental_form(p, u, u)
    closed_form_err = float(np.abs(
        gamma + np.sum(u * u, -1, keepdims=True) * p).max())

    fd = sff_finite_difference(s2, p[:1000], u[:1000], step=1e-4)
    fd_err = float(np.abs(fd - gamma[:1000]).max())
    ok = closed_form_err <= 1e-8 and fd_err <= 1e-6
    report(8, ok, f"curvature closed-form defect={closed_form_err:.2e} (<=1e-8) "
                  f"on 1e4 samples; Richardson FD Hessian error={fd_err:.2e} "
                  f"(<=1e-6)")


def test_criterion_09_bsde_pathwise_residual_refinement():
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    dts = [2e-2, 1e-2, 5e-3, 2.5e-3]
    residuals = []
    for dt in dts:
        # tol sits above the coarse-dt contraction floor of the explicit
        # scheme and five orders below the O(sqrt(dt)) residuals measured
        _, state, sample = solve(case.source, case.target, case.terminal, 0.5,
                                 tol=1e-7, dt=dt, sample_paths=1000)
        assert state.converged and state.horizons_tried == [0.5]
        residuals.append(bsde_residual(sample))
    order = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    ok = decreasing and order >= 0.4
    report(9, ok, f"residuals {['%.3e' % r for r in residuals]} decreasing, "
                  f"fitted order={order:.2f} (>=0.4)")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns of criteria 1-6 through the CLI
# ---------------------------------------------------------------------------

_BASE = """\
[source]
family = circle
profile = {profile}
radius = 1.0
n_theta = 256
horizon = {src_horizon}

[target]
family = {target}

[terminal]
name = {terminal}
amplitude = 0.3

[run]
t0 = {t0}
dt = {dt}
tol = 1e-10
master_seed = 42
backend = {backend}
n_paths = {n_paths}
sample_paths = 200
"""

_CASES = {
    "c1_semigroup": dict(profile="constant", target="flat", terminal="identity",
                         t0="1.0", dt="1e-3", backend="semigroup",
                         n_paths="0", src_horizon="1.0"),
    "c1_monte_carlo": dict(profile="constant", target="flat", terminal="identity",
                           t0="1.0", dt="5e-3", backend="monte_carlo",
                           n_paths="2000", src_horizon="1.0"),
    "c2_identity": dict(profile="constant", target="circle", terminal="identity",
                        t0="0.25", dt="1e-3", backend="semigroup",
                        n_paths="0", src_horizon="1.0"),
    "c3_perturbed": dict(profile="constant", target="circle",
                         terminal="perturbed_geodesic", t0="0.5", dt="1e-3",
                         backend="semigroup", n_paths="0", src_horizon="1.0"),
    "c4_sine_metric": dict(profile="sine", target="circle",
                           terminal="perturbed_geodesic", t0="0.5", dt="1e-3",
                           backend="semigroup", n_paths="0", src_horizon="1.0"),
    "c5_short_horizon": dict(profile="constant", target="circle",
                             terminal="perturbed_geodesic", t0="0.05",
                             dt="1e-3", backend="semigroup", n_paths="0",
                             src_horizon="1.0"),
    "c6_great_circle": dict(profile="constant", target="sphere2",
                            terminal="great_circle", t0="0.25", dt="1e-3",
                            backend="semigroup", n_paths="0",
                            src_horizon="1.0"),
}


def test_criterion_10_determinism(tmp_path):
    mismatches = []
    for name, params in _CASES.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(_BASE.format(**params))
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{name}_{tag}"
            assert cli_main(["solve", "--config", str(cfg),
                             "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("field.csv", "iterations.json", "summary.json",
                      "error_vs_reference.csv"):
            a, b = outs[0] / fname, outs[1] / fname
            if not a.exists():
                continue
            if a.read_bytes() != b.read_bytes():
                mismatches.append(f"{name}/{fname}")

    # the stay-on-target verification of criterion 6, twice
    cfg6 = tmp_path / "c6_verify.ini"
    cfg6.write_text(_BASE.format(**_CASES["c6_great_circle"]) +
                    f"\n[verify]\nfield_file = {tmp_path}/c6_great_circle_x/field.csv\n")
    for tag in ("x", "y"):
        assert cli_main(["verify", "--config", str(cfg6),
                         "--out", str(tmp_path / f"v_{tag}")]) == 0
    if (tmp_path / "v_x" / "verdict.json").read_bytes() != \
            (tmp_path / "v_y" / "verdict.json").read_bytes():
        mismatches.append("verify/verdict.json")

    ok = not mismatches
    report(10, ok, "criteria 1-6 CLI reruns byte-identical in all CSV/JSON"
           + ("" if ok else f"; mismatches: {mismatches}"))
