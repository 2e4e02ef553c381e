import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

import hmflow.fields as fields_mod
from hmflow._rng import DOMAIN_FORWARD_PATH, DOMAIN_SAMPLE_PATH
from hmflow.bsde import sample_solution
from hmflow.errors import FieldLeftTube, ShapeMismatch, UnsupportedReduction
from hmflow.fields import MapField
from hmflow.forward import time_change
from hmflow.picard import solve
from hmflow.sources import Circle, Sphere2, constant_radius, shrinking_radius, sine_radius
from hmflow.targets import FlatSpace, UnitSphere
from hmflow.verify import (BenchmarkCase, _not_a_knot_spline, circle_lift, make_benchmark,
                           pde_reference, stay_on_target, tension_residual,
                           weak_form_residual)


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

def test_reference_perturbed_geodesic_closed_form():
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    ref = pde_reference(case, n_t=200)
    th = case.source.thetas
    phi = th[None] + 0.3 * np.exp(-0.5 * (0.5 - ref.times))[:, None] * np.sin(th)[None]
    exact = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    assert np.abs(ref.values - exact).max() <= 1e-12


def test_reference_self_check_pde_residual():
    # closed-form reference fields satisfy the flow equation on a fine grid
    for name in ("perturbed_geodesic", "perturbed_geodesic_sine_metric"):
        case = make_benchmark(name, horizon=0.5)
        ref = pde_reference(case, n_t=500)
        _, res = tension_residual(case.source, case.target, ref)
        assert res.max() <= 1e-8, (name, res.max())


def test_reference_harmonic_winding_is_stationary():
    case = make_benchmark("perturbed_geodesic", horizon=0.4, amplitude=0.0)
    case.lift = lambda a: 2 * a
    case.winding = 2
    th = case.source.thetas
    case.terminal = np.stack([np.cos(2 * th), np.sin(2 * th)], axis=-1)
    ref = pde_reference(case, n_t=50)
    assert np.abs(ref.values - ref.values[-1][None]).max() == 0.0


def test_reference_time_changed_amplitude():
    case = make_benchmark("perturbed_geodesic_sine_metric", horizon=0.5)
    ref = pde_reference(case, n_t=100)
    th = case.source.thetas
    lift = circle_lift(ref.values[0], th)
    amp = 2.0 * np.mean((lift - th) * np.sin(th))
    tau = time_change(case.source.profile, 0.0, 0.5)
    assert amp == pytest.approx(0.3 * np.exp(-0.5 * tau), rel=1e-9)


def test_reference_flat_target_heat():
    case = make_benchmark("flat_heat", horizon=1.0)
    ref = pde_reference(case, n_t=50)
    exact = np.exp(-0.5 * (1.0 - ref.times))[:, None, None] * case.terminal[None]
    assert np.abs(ref.values - exact).max() <= 1e-13


def test_reference_great_circle_constant():
    case = make_benchmark("great_circle_s2", horizon=0.25)
    ref = pde_reference(case, n_t=25)
    assert ref.values.shape[-1] == 3
    assert np.abs(ref.values - case.terminal[None]).max() <= 1e-12
    np.testing.assert_allclose(ref.values[..., 2], 0.0, atol=1e-15)


def test_reference_equivariant_identity_stationary():
    case = make_benchmark("equivariant_s2", horizon=0.25, amplitude=0.0,
                          n_theta=16, n_phi=32)
    ref = pde_reference(case, n_t=10)
    assert np.abs(ref.values - ref.values[-1][None]).max() <= 1e-10


def test_reference_equivariant_vs_picard():
    case = make_benchmark("equivariant_s2", horizon=0.1, amplitude=0.2,
                          n_theta=32, n_phi=64)
    ref = pde_reference(case, n_t=40, n_x=300)
    field, state = solve(case.source, case.target, case.terminal, 0.1,
                         tol=1e-9, dt=0.0025)
    assert state.converged
    assert np.abs(field.values - ref.values).max() <= case.tolerances["sup_error"]


def _equivariant_dop853(case, n_t, n_x=200):
    """The equivariant method of lines integrated by scipy's DOP853 and read by CubicSpline."""
    grid = np.linspace(0.0, np.pi, n_x + 1)
    inner, h = grid[1:-1], grid[1] - grid[0]

    def rhs(s, psi):
        full = np.concatenate([[0.0], psi, [np.pi]])
        d1 = (full[2:] - full[:-2]) / (2.0 * h)
        d2 = (full[2:] - 2.0 * full[1:-1] + full[:-2]) / h ** 2
        rho = float(case.source.profile(case.horizon - s))
        return 0.5 / rho ** 2 * (d2 + d1 / np.tan(inner)
                                 - np.sin(2.0 * psi) / (2.0 * np.sin(inner) ** 2))

    times = np.linspace(0.0, case.horizon, n_t + 1)
    sol = solve_ivp(rhs, (0.0, case.horizon), case.psi_terminal(inner), method="DOP853",
                    t_eval=case.horizon - times[::-1], rtol=1e-13, atol=1e-15)
    assert sol.success
    psi = np.concatenate([np.zeros((1, n_t + 1)), sol.y[:, ::-1],
                          np.full((1, n_t + 1), np.pi)])
    return np.stack([case.source.profile_map(CubicSpline(grid, p)(case.source.thetas), 3)
                     for p in psi.T])


@pytest.mark.parametrize("profile, n_theta, horizon, n_t", [
    (sine_radius(0.2, 1.0), 24, 0.034, 34),   # the benchmark's sphere case
    (shrinking_radius(), 16, 0.4, 40),        # rho_min^2 = 0.2 multiplies the substeps by 5
])
def test_reference_equivariant_rk4_matches_dop853(profile, n_theta, horizon, n_t):
    source = Sphere2(profile, n_theta=n_theta, n_phi=2 * n_theta, horizon=horizon)
    case = BenchmarkCase("equivariant", source, UnitSphere(2), horizon, None)
    case.psi_terminal = lambda th: th + 0.3 * np.sin(th)
    ref = pde_reference(case, n_t=n_t)
    # the benchmark's solved field sits about 1.3e-4 from this reference
    assert np.abs(ref.values - _equivariant_dop853(case, n_t)).max() <= 1e-10


@pytest.mark.parametrize("knots", [np.linspace(0.0, np.pi, 201), np.linspace(0.0, 1.0, 4),
                                   np.sort(np.random.default_rng(5).uniform(0.0, 3.0, 40))])
def test_not_a_knot_spline_matches_cubic_spline(knots):
    y = np.stack([np.sin(3.0 * knots) + knots, knots ** 3,
                  np.random.default_rng(6).normal(size=len(knots))], axis=1)
    x_new = np.concatenate([np.linspace(knots[0], knots[-1], 97), knots])
    ref = CubicSpline(knots, y)(x_new)
    assert np.abs(_not_a_knot_spline(knots, y, x_new) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_reference_unsupported_reduction():
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    case.lift = None
    with pytest.raises(UnsupportedReduction):
        pde_reference(case, n_t=10)
    with pytest.raises(UnsupportedReduction):
        make_benchmark("does_not_exist", horizon=0.5)


# ---------------------------------------------------------------------------
# tension residual
# ---------------------------------------------------------------------------

def test_tension_residual_constant_point():
    c = Circle(constant_radius(1.0), n_theta=64)
    p0 = np.array([0.0, 1.0])
    f = MapField.constant_in_time(c, UnitSphere(1),
                                  np.broadcast_to(p0, (64, 2)).copy(), 0.2, 10)
    _, res = tension_residual(c, f.target, f)
    assert res.max() <= 1e-13


def test_tension_residual_needs_an_interior_slice():
    # a two-slice field on the target has no interior slice; it did not leave the tube
    c = Circle(constant_radius(1.0), n_theta=64)
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    f = MapField.constant_in_time(c, UnitSphere(1), h, 0.002, 1)
    with pytest.raises(ShapeMismatch, match="2 slices has no interior slice"):
        tension_residual(c, f.target, f)


def test_tension_residual_identity_map():
    c = Circle(constant_radius(1.0), n_theta=256)
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    f = MapField.constant_in_time(c, UnitSphere(1), h, 0.25, 20)
    _, res = tension_residual(c, f.target, f)
    assert res.max() <= 1e-4


def test_tension_residual_refines_with_time_grid():
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    sups = []
    for n_t in (25, 50, 100):
        field, _ = solve(case.source, case.target, case.terminal, 0.5,
                         tol=1e-10, dt=0.5 / n_t)
        _, res = tension_residual(case.source, case.target, field)
        sups.append(res.max())
    assert sups[2] < sups[1] < sups[0]


def _circle_reference():
    case = make_benchmark("perturbed_geodesic_sine_metric", horizon=0.5, n_x=64)
    return case, pde_reference(case, n_t=30)


def _sphere_reference():
    source = Sphere2(sine_radius(0.2, 1.0), n_theta=24, n_phi=48, horizon=0.034)
    case = BenchmarkCase("equivariant", source, UnitSphere(2), 0.034, None)
    case.psi_terminal = lambda th: th + 0.3 * np.sin(th)
    return case, pde_reference(case, n_t=34)


# 2^16 entries: one block on the circle, 9 slices a block on the sphere;
# 3000 entries: blocks of 23 slices (a ragged last one) and of 1 slice
@pytest.mark.parametrize("entries", [1 << 16, 3000])
@pytest.mark.parametrize("make", [_circle_reference, _sphere_reference],
                         ids=["circle", "sphere"])
def test_tension_residual_blocks_equal_a_slice_loop(monkeypatch, make, entries):
    monkeypatch.setattr(fields_mod, "_GRADIENT_BLOCK_ENTRIES", entries)
    case, field = make()
    source, target, values = case.source, case.target, field.values
    times, res = tension_residual(source, target, field)
    loop = []
    for k in range(1, field.n_t):
        dudt = (values[k + 1] - values[k - 1]) / (2.0 * field.dt)
        lap = source.laplace_beltrami(field.times[k], values[k])
        gamma = target.sff_trace(values[k], source.frame_gradient(field.times[k], values[k]))
        loop.append(np.linalg.norm(dudt + 0.5 * (lap - gamma), axis=-1))
    np.testing.assert_array_equal(times, field.times[1:-1])
    assert res.tobytes() == np.stack(loop).tobytes()


def test_tension_residual_requires_tube():
    c = Circle(constant_radius(1.0), n_theta=64)
    h = 1.4 * np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    f = MapField.constant_in_time(c, UnitSphere(1), h, 0.2, 10)
    with pytest.raises(FieldLeftTube):
        tension_residual(c, f.target, f)


# ---------------------------------------------------------------------------
# stay on target
# ---------------------------------------------------------------------------

def test_stay_on_target_fixed_point():
    case = make_benchmark("great_circle_s2", horizon=0.25)
    reports = {}
    for dt in (1e-2, 1e-3):
        field, _ = solve(case.source, case.target, case.terminal, 0.25,
                         tol=1e-10, dt=dt)
        reports[dt] = stay_on_target(sample_solution(field, 300, 0, DOMAIN_SAMPLE_PATH))
    assert reports[1e-3].max_dist <= 1e-2
    assert reports[1e-2].max_dist / reports[1e-3].max_dist >= 2.0
    # the decay curve vanishes at the horizon where Y is pinned to the target
    assert reports[1e-3].mean_g[-1] <= 1e-30
    assert reports[1e-3].mean_g.max() <= 1e-6


def test_stay_on_target_flat_subspace_is_exact():
    c = Circle(constant_radius(1.0), n_theta=64)
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    flat = FlatSpace(2)
    f = MapField.constant_in_time(c, flat, h, 0.2, 20)
    rep = stay_on_target(sample_solution(f, 100, 3, DOMAIN_FORWARD_PATH))
    assert rep.max_dist == 0.0
    assert rep.c_fit == 0.0
    assert rep.times.shape == rep.mean_g.shape == rep.integral.shape == (21,)


def test_stay_on_target_integral_adds_trapezoids_from_the_horizon():
    # a field just off the circle target, by an amount that varies in time and
    # angle; the right-tail integral is the running sum of the trapezoid
    # increments from the horizon down, to the bit
    c = Circle(constant_radius(1.0), n_theta=32)
    times = np.linspace(0.0, 0.2, 21)
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    scale = 1.0 + 0.02 * np.sin(7.0 * times)[:, None] * (1.0 + np.cos(c.thetas))[None]
    s1 = UnitSphere(1)
    f = MapField(times, scale[..., None] * h[None], c, s1)
    rep = stay_on_target(sample_solution(f, 40, 3, DOMAIN_FORWARD_PATH))
    expected = np.zeros(21)
    for k in range(19, -1, -1):
        expected[k] = expected[k + 1] + 0.5 * f.dt * (rep.mean_g[k] + rep.mean_g[k + 1])
    assert expected[0] > 0.0
    np.testing.assert_array_equal(rep.integral, expected)


# ---------------------------------------------------------------------------
# weak form
# ---------------------------------------------------------------------------

def test_weak_form_zero_test_function():
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    ref = pde_reference(case, n_t=100)
    assert weak_form_residual(case.source, ref, np.zeros(256)) == 0.0


def test_weak_form_closed_form_benchmark():
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    ref = pde_reference(case, n_t=500)
    res = weak_form_residual(case.source, ref, np.cos(case.source.thetas))
    assert res <= 1e-3


def test_weak_form_time_dependent_metric_volume_term():
    case = make_benchmark("perturbed_geodesic_sine_metric", horizon=0.5)
    ref = pde_reference(case, n_t=500)
    res = weak_form_residual(case.source, ref, np.cos(case.source.thetas))
    assert res <= 1e-3


def test_weak_form_refinement_monotone():
    case = make_benchmark("perturbed_geodesic", horizon=0.5)
    f = np.cos(case.source.thetas)
    res = [weak_form_residual(case.source, pde_reference(case, n_t=n), f)
           for n in (50, 100, 200)]
    assert res[2] < res[1] < res[0]


def test_quadrature_self_adjointness():
    # spectral circle calculus: integration by parts holds to rounding
    c = Circle(constant_radius(1.0), n_theta=128)
    rng = np.random.default_rng(5)
    for _ in range(5):
        ka, kb = rng.integers(1, 6, 2)
        a = np.sin(ka * c.thetas) + 0.3 * np.cos((ka + 1) * c.thetas)
        b = np.cos(kb * c.thetas)
        w = c.volume_weights(0.3)
        lhs = np.sum(w * c.laplace_beltrami(0.3, a) * b)
        za = c.frame_gradient(0.3, a)[:, 0]
        zb = c.frame_gradient(0.3, b)[:, 0]
        rhs = -np.sum(w * za * zb)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_circle_lift_recovers_winding_fields():
    c = Circle(constant_radius(1.0), n_theta=64)
    phi = 2 * c.thetas + 0.4 * np.sin(c.thetas)
    vals = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    np.testing.assert_allclose(circle_lift(vals, c.thetas, winding=2), phi,
                               atol=1e-12)


def test_semigroup_gradient_growth_rate():
    from hmflow.verify import semigroup_gradient_rate
    c = Circle(constant_radius(1.0), n_theta=1024)
    taus = [1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2]
    sups, rate = semigroup_gradient_rate(c, taus)
    assert np.all(np.diff(sups) < 0)
    assert -0.6 <= rate <= -0.4
