import numpy as np
import pytest

from hmflow._rng import DOMAIN_FORWARD_PATH, DOMAIN_SAMPLE_PATH
from hmflow.bsde import (BsdeSolutionSample, bsde_residual, picard_map, sample_solution,
                         step_operators)
from hmflow.errors import BlowUp, HorizonMismatch, ShapeMismatch
from hmflow.fields import MapField, c01_norm
from hmflow.forward import simulate
from hmflow.sources import Circle, Sphere2, constant_radius, sine_radius
from hmflow.targets import FlatSpace, UnitSphere

S1 = UnitSphere(1)


def circle_identity(n_theta=256, horizon=1.0):
    c = Circle(constant_radius(1.0), n_theta=n_theta, horizon=horizon)
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    return c, h


def test_flat_target_heat_semigroup_exact():
    c, h = circle_identity()
    u = MapField.constant_in_time(c, FlatSpace(2), h, 1.0, 1000)
    w = picard_map(u, h, step_operators(u, "semigroup"))
    exact = np.exp(-0.5 * (1.0 - w.times))[:, None, None] * h[None]
    assert np.abs(w.values - exact).max() <= 1e-6


def test_terminal_slice_is_exact():
    c, h = circle_identity(n_theta=64)
    u = MapField.constant_in_time(c, S1, h, 0.25, 50)
    w = picard_map(u, h, step_operators(u))
    assert np.array_equal(w.values[-1], h)


def test_harmonic_identity_is_operator_fixed_point():
    # tension of the identity map vanishes: one pass moves the field only by
    # the O(T dt) scheme error
    c, h = circle_identity()
    u = MapField.constant_in_time(c, S1, h, 0.25, 1250)  # dt = 2e-4
    w = picard_map(u, h, step_operators(u))
    assert np.abs(w.values - u.values).max() <= 1e-5


def test_horizon_mismatch():
    c, h = circle_identity(n_theta=64)
    u = MapField.constant_in_time(c, S1, h, 0.25, 50)
    with pytest.raises(HorizonMismatch):
        picard_map(u, h[:32], step_operators(u))
    with pytest.raises(HorizonMismatch):   # operators built for another time grid
        picard_map(u, h, step_operators(MapField.constant_in_time(c, S1, h, 0.25, 25)))


def test_unknown_backend_rejected():
    c, h = circle_identity(n_theta=16)
    with pytest.raises(ValueError, match="unknown backend 'bogus'"):
        step_operators(MapField.constant_in_time(c, S1, h, 0.05, 5), "bogus")


def test_blowup_guard():
    c, h = circle_identity(n_theta=256)
    # the sweep's iterate peaks at sup|w| = 70.1 against the bound 20; at amplitude 15 it
    # peaks at 18.2 and passes
    huge = 30.0 * np.stack([np.cos(20 * c.thetas), np.sin(20 * c.thetas)], axis=-1)
    u = MapField.constant_in_time(c, S1, huge, 0.25, 250)
    with pytest.raises(BlowUp):
        picard_map(u, h, step_operators(u))


def test_frame_gradient_block_norms():
    # the Euclidean block norm over (frame, value) axes is the metric norm
    c, h = circle_identity(n_theta=128)
    z = c.frame_gradient(0.1, h)
    assert z.shape == (128, 1, 2)
    np.testing.assert_allclose(np.linalg.norm(z, axis=(-2, -1)), 1.0, atol=1e-10)
    h2 = np.stack([np.cos(2 * c.thetas), np.sin(2 * c.thetas)], axis=-1)
    np.testing.assert_allclose(np.linalg.norm(c.frame_gradient(0.1, h2), axis=(-2, -1)),
                               2.0, atol=1e-9)
    const = np.broadcast_to([1.0, 0.0], (128, 2))
    np.testing.assert_allclose(c.frame_gradient(0.1, const), 0.0, atol=1e-12)


def test_backend_agreement_flat_override():
    # semigroup vs monte_carlo on the flat test, nodewise within Monte Carlo
    # error bars estimated from an independent-seed ensemble
    c, h = circle_identity(n_theta=128)
    u = MapField.constant_in_time(c, FlatSpace(2), h, 0.3, 15)
    exact = picard_map(u, h, step_operators(u, "semigroup"))
    runs = np.array([picard_map(u, h, step_operators(u, "monte_carlo", n_paths=2000,
                                                     master_seed=100 + r)).values
                     for r in range(12)])
    # the Monte Carlo standard error of one run is its per-node standard
    # deviation, estimated across the independent-seed ensemble
    sigma = runs.std(axis=0, ddof=1)
    diff = np.abs(runs[0] - exact.values)
    frac = np.mean(diff <= 3 * sigma + 1e-12)
    assert frac >= 0.97, f"only {frac:.3f} of nodes within 3 SE"
    assert np.all(diff <= 6 * sigma + 1e-9)


def test_monte_carlo_needs_paths():
    c, h = circle_identity(n_theta=16)
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    for field, vals in ((MapField.constant_in_time(c, S1, h, 0.05, 5), h),
                        (MapField.constant_in_time(s, UnitSphere(2), s.grid_points(), 0.05, 5),
                         s.grid_points())):
        with pytest.raises(ValueError, match="n_paths"):
            picard_map(field, vals, step_operators(field, "monte_carlo", n_paths=0))


def test_norm_bound_coefficient_shrinks_with_horizon():
    # fit c01(T(u)) ~ alpha |h| + beta(T0) |u|^2 over a family of gradients;
    # the quadratic coefficient must decrease as the horizon does
    c, h = circle_identity(n_theta=128)
    betas = []
    for horizon in (0.4, 0.2, 0.1, 0.05):
        xs, ys = [], []
        for amp in (0.05, 0.10, 0.15):
            phi = c.thetas + amp * np.sin(3 * c.thetas)
            uv = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
            u = MapField.constant_in_time(c, S1, uv, horizon,
                                          int(round(horizon / 1e-3)))
            xs.append(c01_norm(u) ** 2)
            ys.append(c01_norm(picard_map(u, h, step_operators(u))))
        betas.append(np.polyfit(xs, ys, 1)[0])
    assert all(b1 > b2 > 0 for b1, b2 in zip(betas, betas[1:])), betas


def test_solution_sample_and_z_bound_stability():
    from hmflow.picard import solve
    maxima = []
    for n_theta in (128, 256):
        c, _ = circle_identity(n_theta=n_theta)
        phi = c.thetas + 0.3 * np.sin(c.thetas)
        h = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        field, _ = solve(c, S1, h, 0.25, tol=1e-10, dt=2e-3)
        sample = sample_solution(field, 200, 0, DOMAIN_SAMPLE_PATH)
        assert np.all(np.isfinite(sample.z))
        maxima.append(np.linalg.norm(sample.z, axis=(-2, -1)).max())
    ratio = maxima[1] / maxima[0]
    assert 0.8 <= ratio <= 1.25, maxima


def test_solution_sample_rejects_bad_arrays():
    c, h = circle_identity(n_theta=16)
    field = MapField.constant_in_time(c, S1, h, 0.05, 5)
    sample = sample_solution(field, 4, 3, DOMAIN_FORWARD_PATH)
    for y, z, message in ((sample.y[:-1], sample.z, "sample arrays do not match the ensemble"),
                          (sample.y[:, :-1], sample.z, "sample arrays do not match the ensemble"),
                          (sample.y, sample.z[:-1], "sample arrays do not match the ensemble"),
                          (np.full_like(sample.y, np.nan), sample.z, "non-finite values"),
                          (sample.y, np.full_like(sample.z, np.inf), "non-finite values")):
        with pytest.raises(ShapeMismatch, match=message):
            BsdeSolutionSample(sample.ensemble, y, z, S1)


def test_sample_on_own_slices_reads_kept_gradient(monkeypatch):
    from hmflow.picard import solve
    c = Circle(sine_radius(0.2, 1.0), n_theta=64, horizon=0.1)
    phi = c.thetas + 0.3 * np.sin(c.thetas)
    h = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    field, state = solve(c, S1, h, 0.02, dt=2e-3)
    assert state.converged and field.n_t == 10
    calls = []
    original = Circle.frame_gradient

    def counting(self, t, f):
        calls.append(t)
        return original(self, t, f)

    monkeypatch.setattr(Circle, "frame_gradient", counting)
    sample = sample_solution(field, 50, 9, DOMAIN_FORWARD_PATH)
    assert calls == []
    # the sample's paths start on the grid and step on the field's own slices
    ens = simulate(c, "grid", field.horizon, field.dt, 50, 9)
    assert sample.ensemble.n_steps == field.n_t
    np.testing.assert_array_equal(sample.ensemble.states, ens.states)


def test_bsde_residual_zero_noise_constant_field():
    # a constant field on a flat target has no driver and no gradient, so the
    # defect vanishes whatever the noise
    c, _ = circle_identity(n_theta=64)
    p0 = np.array([1.0, 0.0])
    const = MapField.constant_in_time(c, FlatSpace(2),
                                      np.broadcast_to(p0, (64, 2)).copy(), 0.2, 20)
    sample = sample_solution(const, 16, 5, DOMAIN_FORWARD_PATH)
    assert bsde_residual(sample) == pytest.approx(0.0, abs=1e-14)


def test_bsde_residual_flat_heat_rate():
    # exact heat solution: the summed pathwise defect decays like sqrt(dt)
    c, h = circle_identity(n_theta=128)
    residuals = []
    dts = [0.02, 0.01, 0.005, 0.0025]
    for dt in dts:
        n_t = int(round(0.5 / dt))
        times = np.linspace(0.0, 0.5, n_t + 1)
        vals = np.exp(-0.5 * (0.5 - times))[:, None, None] * h[None]
        w = MapField(times, vals, c, FlatSpace(2))
        residuals.append(bsde_residual(sample_solution(w, 400, 77, DOMAIN_FORWARD_PATH)))
    order = np.polyfit(np.log(dts), np.log(residuals), 1)[0]
    assert residuals[-1] < residuals[0]
    assert order >= 0.4, (order, residuals)


def test_bsde_residual_flat_heat_sphere_frame():
    # u = e^{-(T-t)} X solves the heat equation of the unit sphere in R^3, so
    # the defect shrinks with dt only when frame_increments pairs Z with the
    # increments in the frame frame_gradient uses: the fitted order is about
    # 0.35-0.39 on 16x32 to 32x64 grids, and with e_phi flipped the residuals
    # stay above 1
    s = Sphere2(constant_radius(1.0), n_theta=16, n_phi=32, horizon=0.5)
    x = s.grid_points()
    residuals = []
    for dt in [0.02, 0.01, 0.005, 0.0025]:
        times = np.linspace(0.0, 0.5, int(round(0.5 / dt)) + 1)
        w = MapField(times, np.exp(-(0.5 - times))[:, None, None, None] * x[None], s,
                     FlatSpace(3))
        residuals.append(bsde_residual(sample_solution(w, 400, 77, DOMAIN_FORWARD_PATH)))
    assert all(a > b for a, b in zip(residuals, residuals[1:])), residuals
    assert residuals[0] <= 0.1, residuals


def test_bsde_residual_identity_fixed_point_baseline():
    from hmflow.picard import solve
    c, h = circle_identity()
    field, _ = solve(c, S1, h, 0.25, tol=1e-10, dt=1e-3)
    assert bsde_residual(sample_solution(field, 1000, 0, DOMAIN_SAMPLE_PATH)) <= 1.3e-2
    shorter, _ = solve(c, S1, h, 0.2, tol=1e-10, dt=1e-3)
    # quadratic-variation noise floor is |u| sqrt(T dt / 2) = 1.0e-2 here
    assert bsde_residual(sample_solution(shorter, 1000, 0, DOMAIN_SAMPLE_PATH)) <= 1.1e-2


def test_sphere_picard_map_smoke():
    # equivariant terminal data on a small sphere grid, one operator pass
    s = Sphere2(constant_radius(1.0), n_theta=16, n_phi=32, horizon=0.5)
    vals = s.grid_points()
    u = MapField.constant_in_time(s, UnitSphere(2), vals, 0.05, 10)
    w = picard_map(u, vals, step_operators(u))
    # identity sphere map is harmonic: one pass stays close
    assert np.abs(w.values - u.values).max() <= 5e-3

