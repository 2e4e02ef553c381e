import numpy as np
import pytest
from scipy.integrate import solve_ivp

import hmflow.fields as fields_mod
from hmflow._rng import DOMAIN_FORWARD_PATH, DOMAIN_SAMPLE_PATH
from hmflow.bsde import sample_solution
from hmflow.errors import FieldLeftTube, ShapeMismatch, UnsupportedReduction
from hmflow.fields import MapField
from hmflow.forward import time_change
from hmflow.picard import solve
from hmflow.sources import Circle, Sphere2, constant_radius, shrinking_radius, sine_radius
from hmflow.targets import FlatSpace, UnitSphere
from hmflow.verify import (BenchmarkCase, circle_lift, make_benchmark, pde_reference,
                           stay_on_target, tension_residual, terminal_case,
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
    ref = pde_reference(case, n_t=40)
    field, state = solve(case.source, case.target, case.terminal, 0.1,
                         tol=1e-9, dt=0.0025)
    assert state.converged
    assert np.abs(field.values - ref.values).max() <= case.tolerances["sup_error"]


@pytest.mark.parametrize("n_theta, dt, bound", [
    (24, 1e-3, 7.57e-5), (24, 2e-3, 1.526e-4), (48, 1e-3, 7.69e-5), (48, 2e-3, 1.541e-4),
    (24, 8.5e-3, 1e-5)])
def test_sphere_semigroup_solve_accuracy(n_theta, dt, bound):
    # the benchmark's sphere case; the first four bounds are 0.6 times the error
    # of a backward Euler heat step (1.262e-4, 2.543e-4, 1.282e-4, 2.568e-4). In 4
    # slices of 8.5e-3 the second-order step reads 4.45e-6, its time error; a
    # first-order step reads 5.9e-4
    source = Sphere2(sine_radius(0.2, 1.0), n_theta=n_theta, n_phi=2 * n_theta, horizon=0.034)
    case = terminal_case("equivariant", source, UnitSphere(2), 0.034)
    field, state = solve(source, case.target, case.terminal, 0.034, tol=1e-9, dt=dt)
    assert state.converged and state.horizons_tried == [0.034]
    ref = pde_reference(case, n_t=field.n_t)
    assert np.linalg.norm(field.values - ref.values, axis=-1).max() <= bound


def test_sphere_solve_matches_a_resolved_oracle():
    # the benchmark's sphere case: 1.17e-7 with 6th-order colatitude stencils,
    # 5.3e-6 with 4th-order ones. The reference is 3.0e-10 from one on 4x as many
    # knots, so this is the solve's own error
    source = Sphere2(sine_radius(0.2, 1.0), n_theta=24, n_phi=48, horizon=0.034)
    case = terminal_case("equivariant", source, UnitSphere(2), 0.034)
    field, state = solve(source, case.target, case.terminal, 0.034, tol=1e-10, dt=1e-3)
    assert state.converged and state.horizons_tried == [0.034]
    ref = pde_reference(case, n_t=field.n_t)
    assert np.linalg.norm(field.values - ref.values, axis=-1).max() <= 3e-7


def test_circle_solve_is_second_order_in_time():
    # the exact time change and the half-shifted driver sweep: errors 4.1e-6,
    # 1.0e-6, 2.6e-7; a first-order step falls 2x per halving
    source = Circle(sine_radius(0.2, 1.0), n_theta=256, horizon=0.25)
    case = terminal_case("perturbed_geodesic", source, UnitSphere(1), 0.25)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        field, state = solve(source, case.target, case.terminal, 0.25, tol=1e-10, dt=dt)
        assert state.converged and state.horizons_tried == [0.25]
        ref = pde_reference(case, n_t=field.n_t)
        errors.append(np.linalg.norm(field.values - ref.values, axis=-1).max())
    assert errors[0] >= 3.5 * errors[1] >= 3.5 ** 2 * errors[2], errors


def test_fine_sphere_solve_keeps_its_horizon():
    # 48x96 at tol 1e-10: a first-order step halves this horizon twice (the
    # pole-row growth of the README's note on the contraction floor)
    source = Sphere2(sine_radius(0.2, 1.0), n_theta=48, n_phi=96, horizon=0.034)
    case = terminal_case("equivariant", source, UnitSphere(2), 0.034)
    _, state = solve(source, case.target, case.terminal, 0.034, tol=1e-10, dt=2e-3)
    assert state.converged and state.horizons_tried == [0.034]


def _equivariant_dop853(case, n_t, n_x=100):
    """The equivariant method of lines integrated by scipy's DOP853 and read by index."""
    # knots per grid colatitude: the odd number nearest n_x / n_theta, ties up
    r = (n_x // case.source.n_theta) | 1
    h = case.source.dtheta / r
    knots = (case.source.thetas[:, None] + h * np.arange(-(r // 2), r // 2 + 1)).ravel()

    def rhs(s, psi):
        full = np.concatenate([-psi[1::-1], psi, 2.0 * np.pi - psi[:-3:-1]])
        d1 = (full[:-4] - 8.0 * full[1:-3] + 8.0 * full[3:-1] - full[4:]) / (12.0 * h)
        d2 = (-full[:-4] + 16.0 * full[1:-3] - 30.0 * psi + 16.0 * full[3:-1]
              - full[4:]) / (12.0 * h ** 2)
        rho = float(case.source.profile(case.horizon - s))
        return 0.5 / rho ** 2 * (d2 + d1 / np.tan(knots)
                                 - np.sin(2.0 * psi) / (2.0 * np.sin(knots) ** 2))

    times = np.linspace(0.0, case.horizon, n_t + 1)
    sol = solve_ivp(rhs, (0.0, case.horizon), case.psi_terminal(knots), method="DOP853",
                    t_eval=case.horizon - times[::-1], rtol=1e-13, atol=1e-15)
    assert sol.success
    return np.stack([case.source.profile_map(p, 3) for p in sol.y[r // 2::r, ::-1].T])


@pytest.mark.parametrize("profile, n_theta, horizon, n_t", [
    (sine_radius(0.2, 1.0), 24, 0.034, 34),   # the benchmark's sphere case: 5 knots a row
    (shrinking_radius(), 16, 0.4, 40),        # rho_min^2 = 0.2 multiplies the substeps by 5
])
def test_reference_equivariant_rk4_matches_dop853(profile, n_theta, horizon, n_t):
    source = Sphere2(profile, n_theta=n_theta, n_phi=2 * n_theta, horizon=horizon)
    case = BenchmarkCase("equivariant", source, UnitSphere(2), horizon, None)
    case.psi_terminal = lambda th: th + 0.3 * np.sin(th)
    ref = pde_reference(case, n_t=n_t)
    assert np.abs(ref.values - _equivariant_dop853(case, n_t)).max() <= 1e-10


def _benchmark_sphere_case():
    source = Sphere2(sine_radius(0.2, 1.0), n_theta=24, n_phi=48, horizon=0.034)
    return terminal_case("equivariant", source, UnitSphere(2), 0.034)


def test_equivariant_reference_is_resolved_at_its_default():
    # fourth-order knots: 3.0e-10 from a reference on 4x as many knots; the
    # second-order knots read 5.3e-7 between 200 and 400 of them
    case = _benchmark_sphere_case()
    ref = pde_reference(case, n_t=34)
    assert np.abs(ref.values - pde_reference(case, n_t=34, n_x=400).values).max() <= 1e-8


def test_equivariant_reference_keeps_the_terminal_slice():
    # the knots hold the grid colatitudes, so no interpolant moves the terminal data
    case = _benchmark_sphere_case()
    assert pde_reference(case, n_t=34).values[-1].tobytes() == case.terminal.tobytes()


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
    case, ref = make()
    # without the reference's own gradient, so tension_residual computes it in blocks
    field = MapField(ref.times, ref.values, ref.source, ref.target)
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


@pytest.mark.parametrize("name", ["flat_heat", "perturbed_geodesic_sine_metric",
                                  "great_circle_s2"])
def test_circle_reference_keeps_the_fourier_gradient_of_its_reduction(monkeypatch, name):
    case = make_benchmark(name, horizon=0.25, n_x=64)
    ref = pde_reference(case, n_t=20)
    calls = []
    monkeypatch.setattr(Circle, "frame_gradient", lambda *args: calls.append(args))
    grad = ref.gradient
    assert calls == []
    stencil = MapField(ref.times, ref.values, ref.source, ref.target)   # no kept gradient
    monkeypatch.undo()
    # the spectral derivative of the lifted angle, or of each flat component, is the
    # solver's spectral derivative of the map to rounding
    np.testing.assert_allclose(grad, stencil.gradient, rtol=0, atol=1e-13)


def test_equivariant_reference_gradient_converges_at_sixth_order(monkeypatch):
    # psi_theta from the knot stencil is exact to the oracle's accuracy, so its distance
    # from the grid's sixth-order stencil falls 2^6-fold with each grid refinement
    errors = []
    for n in (12, 24, 48):
        source = Sphere2(sine_radius(0.2, 1.0), n_theta=n, n_phi=2 * n, horizon=0.034)
        ref = pde_reference(terminal_case("equivariant", source, UnitSphere(2), 0.034), n_t=34)
        with monkeypatch.context() as m:
            m.setattr(Sphere2, "frame_gradient", lambda *args: pytest.fail("stencil read"))
            fields_mod.c01_norm(ref)
        stencil = MapField(ref.times, ref.values, source, ref.target).gradient
        errors.append(np.abs(ref.gradient - stencil).max())
    assert errors[2] < 1e-7 and errors[0] > 40.0 * errors[1] > 40.0 ** 2 * errors[2], errors


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


def _weak_form_slice_loop(source, field, f):
    """The weak-form defect slice by slice: z_f rescaled from slice 0, one sff_trace a slice."""
    def space_int(vals, weights, scalar):
        return np.tensordot(weights * scalar, vals, axes=vals.ndim - 1)
    z_f0 = source.frame_gradient(field.times[0], f)
    rho_0 = float(source.profile(field.times[0]))
    rates = []
    for j, s in enumerate(field.times):
        u, z_u, w = field.values[j], field.gradient[j], source.volume_weights(s)
        z_f = z_f0 * (rho_0 / float(source.profile(s)))
        pair = np.sum(z_u * z_f[..., None], axis=len(field.grid_shape))
        rates.append([space_int(u, source.volume_weights_dt(s), f),
                      np.tensordot(w, pair, axes=pair.ndim - 1),
                      space_int(field.target.sff_trace(u, z_u), w, f)])
    vol, grad, curv = np.trapezoid(np.array(rates), dx=field.dt, axis=0)
    defect = (space_int(field.values[-1], source.volume_weights(field.horizon), f)
              - space_int(field.values[0], source.volume_weights(0.0), f)
              - vol - 0.5 * grad - 0.5 * curv)
    return float(np.linalg.norm(defect))


@pytest.mark.parametrize("entries", [1 << 16, 3000, 1])
@pytest.mark.parametrize("make", [_circle_reference, _sphere_reference],
                         ids=["circle", "sphere"])
def test_weak_form_blocks_equal_a_slice_loop(monkeypatch, make, entries):
    monkeypatch.setattr(fields_mod, "_GRADIENT_BLOCK_ENTRIES", entries)
    case, field = make()
    source = case.source
    f = np.broadcast_to(np.cos(source.thetas).reshape((-1,) + (1,) * (source.dim - 1)),
                        source.grid_shape)
    want = _weak_form_slice_loop(source, field, f)
    calls = []
    original = type(source).frame_gradient
    with monkeypatch.context() as m:
        m.setattr(type(source), "frame_gradient",
                  lambda self, t, g: calls.append(np.shape(t)) or original(self, t, g))
        got = weak_form_residual(source, field, f)
    # one gradient of the test function per block, all its slices at once
    assert calls == [field.times[ks].shape for ks in fields_mod._time_blocks(field)]
    # the defect cancels terms of order one: the two agree to their rounding
    assert abs(got - want) <= 1e-14


def test_weak_form_of_the_equivariant_reference_refines():
    # against a reference on 80 slices, whose own error stays below the 64x128
    # defect: 3.1e-6, 5.0e-8, 4.9e-10 on 16x32, 32x64, 64x128 (4th-order colatitude
    # stencils: 3.9e-5, 2.5e-6, 1.65e-7); exact cap areas in place of the spectral
    # weights hold the defect at 1.1e-3, 2.7e-4, 6.9e-5
    res = []
    for n in (16, 32, 64):
        source = Sphere2(sine_radius(0.2, 1.0), n_theta=n, n_phi=2 * n, horizon=0.05)
        case = terminal_case("equivariant", source, UnitSphere(2), 0.05)
        f = np.broadcast_to(np.cos(source.thetas)[:, None], source.grid_shape)
        res.append(weak_form_residual(source, pde_reference(case, n_t=80), f))
    assert res[0] < 1e-4 and res[0] >= 4.0 * res[1] >= 4.0 ** 2 * res[2], res


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
