import tracemalloc

import numpy as np
import pytest

import hmflow.bsde as bsde_mod
import hmflow.forward as forward_mod
import hmflow.picard as picard_mod
from hmflow._rng import DOMAIN_MC_SLICE, keyed_generator, path_normals
from hmflow.bsde import picard_map, step_operators
from hmflow.errors import BlowUp, NoContraction, TerminalNotOnTarget, TimeOutOfRange
from hmflow.fields import c01_norm, difference_c01
from hmflow.picard import solve
from hmflow.sources import Circle, Sphere2, constant_radius, sine_radius
from hmflow.targets import FlatSpace, UnitSphere
from hmflow.verify import terminal_case

S1 = UnitSphere(1)


def circle_h(lift, n_theta=256, horizon=1.0):
    c = Circle(constant_radius(1.0), n_theta=n_theta, horizon=horizon)
    phi = lift(c.thetas)
    return c, np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def test_identity_map_converges_immediately():
    c, h = circle_h(lambda a: a)
    field, state = solve(c, S1, h, 0.25, tol=1e-10, dt=1e-3)
    assert state.converged
    assert state.deltas[0] <= 1e-4
    assert np.abs(field.values - h[None]).max() <= 1e-3
    assert state.horizons_tried == [0.25]


def test_perturbed_geodesic_matches_closed_form():
    c, h = circle_h(lambda a: a + 0.3 * np.sin(a))
    field, state = solve(c, S1, h, 0.5, tol=1e-10, dt=2e-3)
    assert state.converged
    phi = c.thetas[None] + 0.3 * np.exp(-0.5 * (0.5 - field.times))[:, None] \
        * np.sin(c.thetas)[None]
    exact = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    assert np.abs(field.values - exact).max() <= 5e-3


def test_contraction_ratios_small_horizon():
    c, h = circle_h(lambda a: a + 0.3 * np.sin(a))
    _, state = solve(c, S1, h, 0.05, tol=1e-10, dt=1e-3)
    assert state.converged
    assert state.horizons_tried == [0.05]
    assert state.ratios and max(state.ratios) <= 0.5


def test_adaptive_halving_engages_for_long_horizon():
    c = Circle(constant_radius(1.0), n_theta=128, horizon=5.0)
    phi = 3 * c.thetas + 0.8 * np.sin(c.thetas)
    h = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    field, state = solve(c, S1, h, 2.0, tol=1e-9, dt=5e-3, max_iter=30)
    assert len(state.horizons_tried) > 1          # halving sequence engaged
    assert state.converged
    assert state.horizon == pytest.approx(2.0 / 2 ** (len(state.horizons_tried) - 1))
    # every horizon keeps its records, and each abandoned one says why it ended
    horizons = [rec["horizon"] for rec in state.records]
    assert sorted(set(horizons), reverse=True) == state.horizons_tried
    for horizon in state.horizons_tried[:-1]:
        recs = [rec for rec in state.records if rec["horizon"] == horizon]
        assert [rec.get("halved") for rec in recs] == [None] * (len(recs) - 1) + ["ratio"]
    assert not any("halved" in rec for rec in state.records if rec["horizon"] == state.horizon)


def test_blowup_halving_is_recorded(monkeypatch):
    c, h = circle_h(lambda a: a + 0.3 * np.sin(a), n_theta=64)
    calls = []

    def blow_up_once(u, h, steps):
        calls.append(u.horizon)
        if len(calls) == 1:
            raise BlowUp("|w| reached 99 > 20 at slice 7; horizon too long for "
                         "the contraction regime")
        return picard_map(u, h, steps)

    monkeypatch.setattr(picard_mod, "picard_map", blow_up_once)
    _, state = solve(c, S1, h, 0.2, tol=1e-10, dt=2e-3)
    assert state.converged and state.horizons_tried == [0.2, 0.1]
    assert state.records[0] == {"n": 1, "delta": None, "ratio": None, "horizon": 0.2,
                                "halved": "|w| reached 99 > 20 at slice 7; horizon too "
                                          "long for the contraction regime"}
    assert all(rec["horizon"] == 0.1 and "halved" not in rec for rec in state.records[1:])
    assert len(state.records) == 1 + state.iterations


def test_no_contraction_below_floor():
    # an unreasonably tight ratio trigger cannot be simulated, so force the
    # geometry: a huge-gradient map keeps ratios high until the floor
    c = Circle(constant_radius(1.0), n_theta=128, horizon=5.0)
    phi = 3 * c.thetas + 0.8 * np.sin(c.thetas)
    h = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    old = picard_mod._MIN_HORIZON
    picard_mod._MIN_HORIZON = 1.9   # floor right below the initial horizon
    try:
        with pytest.raises(NoContraction):
            solve(c, S1, h, 2.0, tol=1e-9, dt=5e-3, max_iter=30)
    finally:
        picard_mod._MIN_HORIZON = old


def test_terminal_must_lie_on_target():
    c, h = circle_h(lambda a: a)
    with pytest.raises(TerminalNotOnTarget):
        solve(c, S1, 1.01 * h, 0.25)


@pytest.mark.parametrize("t0_init,tol", [(0.0, 1e-10), (0.25, -1e-10)])
def test_nonpositive_horizon_or_tolerance_rejected(t0_init, tol):
    c, h = circle_h(lambda a: a, n_theta=16)
    with pytest.raises(ValueError, match="need t0_init > 0 and tol > 0"):
        solve(c, S1, h, t0_init, tol=tol)


@pytest.mark.parametrize("kwargs", [{"dt": 0.0}, {"dt": -1.0}, {"max_iter": 0}],
                         ids=["dt_zero", "dt_negative", "max_iter_zero"])
def test_nonpositive_step_or_no_iterations_rejected(kwargs):
    c, h = circle_h(lambda a: a, n_theta=16)
    with pytest.raises(ValueError, match="dt > 0 and max_iter >= 1"):
        solve(c, S1, h, 0.25, **kwargs)


def test_horizon_beyond_metric_interval():
    c, h = circle_h(lambda a: a, horizon=1.0)
    with pytest.raises(TimeOutOfRange):
        solve(c, S1, h, 1.5)


def test_deterministic_iterate_history():
    c, h = circle_h(lambda a: a + 0.3 * np.sin(a), n_theta=64)
    f1, s1_ = solve(c, S1, h, 0.2, tol=1e-10, dt=2e-3)
    f2, s2_ = solve(c, S1, h, 0.2, tol=1e-10, dt=2e-3)
    assert s1_.deltas == s2_.deltas
    np.testing.assert_array_equal(f1.values, f2.values)
    f3, s3_ = solve(c, S1, h, 0.2, tol=1e-10, dt=2e-3, backend="monte_carlo", n_paths=500,
                    master_seed=9)
    f4, s4_ = solve(c, S1, h, 0.2, tol=1e-10, dt=2e-3, backend="monte_carlo", n_paths=500,
                    master_seed=9)
    assert s3_.deltas == s4_.deltas
    np.testing.assert_array_equal(f3.values, f4.values)


def test_fixed_point_residual_within_twice_tolerance():
    c, h = circle_h(lambda a: a + 0.3 * np.sin(a), n_theta=128)
    tol = 1e-9
    field, state = solve(c, S1, h, 0.25, tol=tol, dt=2e-3)
    assert difference_c01(picard_map(field, h, step_operators(field)), field) <= 2 * tol


def test_ball_stability_reported():
    c, h = circle_h(lambda a: a + 0.3 * np.sin(a), n_theta=128)
    field, state = solve(c, S1, h, 0.2, tol=1e-10, dt=2e-3)
    assert not state.ball_exceeded
    assert all(np.isfinite(state.deltas))
    # recorded radius follows the terminal data's norm
    import hmflow.fields as fields_mod
    from hmflow.fields import MapField
    u0 = MapField.constant_in_time(c, S1, h, 0.2, 100)
    assert state.ball_radius == pytest.approx(2 * c01_norm(u0) + 1.0, rel=1e-12)


def test_monte_carlo_backend_flat_converges_fast():
    c, h = circle_h(lambda a: a, n_theta=128)
    field, state = solve(c, FlatSpace(2), h, 0.3, tol=1e-10, dt=5e-3,
                         backend="monte_carlo", n_paths=1000)
    # zero driver: the operator ignores u, so the second pass reproduces the first
    assert state.converged and state.iterations == 2


def test_time_reversal_consistency():
    # terminal slice equals the terminal data exactly, and the time variation
    # of the fixed point is bounded by the flow's right-hand side
    from hmflow.targets import sff_trace
    c, h = circle_h(lambda a: a + 0.3 * np.sin(a), n_theta=128)
    field, state = solve(c, S1, h, 0.25, tol=1e-10, dt=2e-3)
    assert np.array_equal(field.values[-1], h)

    dudt_sup = np.abs(np.diff(field.values, axis=0) / field.dt).max()
    rhs_sup = 0.0
    for k, t in enumerate(field.times):
        z = c.frame_gradient(t, field.values[k])
        rhs = 0.5 * (c.laplace_beltrami(t, field.values[k])
                     - sff_trace(S1, field.values[k], z))
        rhs_sup = max(rhs_sup, float(np.abs(rhs).max()))
    assert dudt_sup <= 1.1 * rhs_sup + 1e-8


def test_identity_first_delta_at_fine_step():
    c, h = circle_h(lambda a: a)
    _, state = solve(c, S1, h, 0.25, tol=1e-10, dt=1e-4)
    assert state.deltas[0] <= 1e-5


def _converged_solve(family, **kwargs):
    """A short solve with a sine radius that converges at its first horizon."""
    if family == "circle":
        source = Circle(sine_radius(0.2, 1.0), n_theta=64, horizon=0.1)
        case = terminal_case("perturbed_geodesic", source, S1, 0.1)
    else:
        source = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16, horizon=0.1)
        case = terminal_case("equivariant", source, UnitSphere(2), 0.1)
    field, state = solve(source, case.target, case.terminal, 0.02, dt=2e-3, **kwargs)
    assert state.converged and state.horizons_tried == [0.02]
    return field, state


@pytest.mark.parametrize("family", ["circle", "sphere"])
def test_solve_computes_each_gradient_once_per_iterate(monkeypatch, family):
    calls = []
    for cls in (Circle, Sphere2):
        original = cls.frame_gradient

        def counting(self, t, f, original=original):
            calls.append(np.size(t))   # slices: a call may take a block of slice times
            return original(self, t, f)

        monkeypatch.setattr(cls, "frame_gradient", counting)
    field, state = _converged_solve(family)
    # the start iterate and one new iterate per pass
    assert sum(calls) <= (field.n_t + 1) * (state.iterations + 1)


@pytest.mark.parametrize("family", ["circle", "sphere"])
def test_solve_draws_no_paths(monkeypatch, family):
    calls = []

    def counting(*args):
        calls.append(args)
        return path_normals(*args)

    monkeypatch.setattr(forward_mod, "path_normals", counting)
    _converged_solve(family)
    assert calls == []


def test_solve_converges_with_a_step_above_the_path_bound():
    # dt = 0.5 exceeds the path integrator's bound rho^2 / 4, which binds a
    # sample of the fixed point but not the solve
    c, h = circle_h(lambda a: a, n_theta=32)
    field, state = solve(c, FlatSpace(2), h, 1.0, dt=0.5)
    assert state.converged and field.n_t == 2


def test_solve_holds_one_gradient_array():
    # 64x128 sphere, 18 slices: F = one field's values, and a sphere
    # gradient holds 2F; keeping both iterates' gradients would reach 6.4F
    source = Sphere2(sine_radius(0.2, 1.0), n_theta=64, n_phi=128, horizon=0.1)
    case = terminal_case("equivariant", source, UnitSphere(2), 0.1)
    source.heat_semigroup_step(0.0, 1e-3, case.terminal)   # eigenbasis outside the trace
    tracemalloc.start()
    try:
        field, state = solve(source, case.target, case.terminal, 0.017)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.converged and state.horizons_tried == [0.017]
    assert peak <= 5.5 * field.values.nbytes


def _per_pass_steps(u, backend, n_paths, master_seed):
    """Reference operators: `mc_step_mean` on a freshly keyed generator at every application."""
    def step(k, t):
        return lambda f: u.source.mc_step_mean(
            t, u.dt, f, n_paths, keyed_generator(master_seed, DOMAIN_MC_SLICE, k))
    return [step(k, t) for k, t in enumerate(u.times[:-1])]


@pytest.mark.parametrize("family", ["circle", "sphere"])
def test_monte_carlo_operators_built_once_match_per_pass_draws(monkeypatch, family):
    kwargs = dict(backend="monte_carlo", n_paths=64, master_seed=4)
    field, state = _converged_solve(family, **kwargs)
    monkeypatch.setattr(picard_mod, "step_operators", _per_pass_steps)
    ref_field, ref_state = _converged_solve(family, **kwargs)
    assert state.iterations == ref_state.iterations > 1
    assert state.deltas == ref_state.deltas
    np.testing.assert_array_equal(field.values, ref_field.values)


def test_circle_monte_carlo_keys_each_slice_once_per_horizon(monkeypatch):
    keys = []
    original = bsde_mod.keyed_generator

    def counting(master_seed, domain, index):
        keys.append((domain, index))
        return original(master_seed, domain, index)

    monkeypatch.setattr(bsde_mod, "keyed_generator", counting)
    c = Circle(constant_radius(1.0), n_theta=128, horizon=5.0)
    phi = 3 * c.thetas + 0.8 * np.sin(c.thetas)
    h = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    _, state = solve(c, S1, h, 2.0, tol=1e-9, dt=5e-3, max_iter=30,
                     backend="monte_carlo", n_paths=200, master_seed=3)
    assert len(state.horizons_tried) > 1 and state.iterations > 1
    expected = sorted((DOMAIN_MC_SLICE, k) for horizon in state.horizons_tried
                      for k in range(round(horizon / 5e-3)))
    assert sorted(keys) == expected
