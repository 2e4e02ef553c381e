"""Independent verification oracles.

These checks deliberately share no stepping code with the backward
operator: the reference solver works in Fourier mode space (circle
reductions) or through a method-of-lines ODE integration (equivariant
sphere reduction), the tension residual plugs fields into the flow
equation directly, the stay-on-target check follows the truncated squared
distance along solution samples, and the weak-form identity tests the
space-time integral formulation by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ._linalg import row_dot
from .bsde import BsdeSolutionSample
from .errors import ConfigError, FieldLeftTube, ShapeMismatch, UnsupportedReduction
from .fields import MapField, _time_blocks
from .forward import time_change
from .sources import Circle, Sphere2, constant_radius, sine_radius
from .targets import FlatSpace, UnitSphere, sff_trace


@dataclass
class BenchmarkCase:
    """A named flow problem with terminal data and the data of its exact reduction.

    `lift` (with `winding`) is the angle function of a circle terminal map;
    `psi_terminal` is the colatitude profile of an equivariant map of the
    2-sphere into S^2.  Each is set only where `pde_reference` solves the
    case with it.
    """

    name: str
    source: object
    target: object
    horizon: float
    terminal: np.ndarray
    lift: object = None
    winding: int = 0
    psi_terminal: object = None
    tolerances: dict = dataclass_field(default_factory=dict)


def terminal_case(name: str, source, target, horizon: float,
                  amplitude: float = 0.3, winding: int = 1) -> BenchmarkCase:
    """The named terminal map on the source grid, with its reduction data.

    Each terminal is `source.profile_map` of a profile of the first chart
    angle: the lift of the angle on a circle, the colatitude profile of an
    equivariant map on a sphere.  Raises ConfigError for a name the source
    does not support.
    """
    identity = (lambda a: a), 1
    perturbed = (lambda a: a + amplitude * np.sin(a)), 1
    # by source dimension: name -> (profile, winding of the map)
    terminals = {
        1: {"identity": identity, "perturbed_geodesic": perturbed,
            "winding": ((lambda a: winding * a), winding),
            "great_circle": identity, "constant_point": ((lambda a: 0.0 * a), 0)},
        2: {"identity": identity, "equivariant": perturbed},
    }[source.dim]
    if name not in terminals:
        raise ConfigError(f"unknown terminal map {name!r} for {source!r}")
    if name == "great_circle" and target.ambient_dim != 3:
        raise ConfigError("great_circle requires a sphere2 target")
    profile, wind = terminals[name]
    case = BenchmarkCase(name, source, target, horizon,
                         source.profile_map(profile(source.thetas), target.ambient_dim))
    if source.dim == 1:
        case.lift, case.winding = profile, wind
    elif isinstance(target, UnitSphere) and target.dim == 2:
        case.psi_terminal = profile
    return case


def make_benchmark(name: str, horizon: float, n_x: int = 256,
                   amplitude: float = 0.3, n_theta: int = 48,
                   n_phi: int = 96) -> BenchmarkCase:
    """Construct one of the named benchmark cases on a fresh grid."""
    def circle(profile):
        return lambda: Circle(profile, n_theta=n_x, horizon=horizon)

    def sphere():
        return Sphere2(constant_radius(1.0), n_theta=n_theta, n_phi=n_phi, horizon=horizon)

    # name -> (source, target, terminal, tolerances)
    table = {
        "flat_heat": (circle(constant_radius(1.0)), FlatSpace(2), "identity",
                      {"sup_error": 1e-6}),
        "identity_circle": (circle(constant_radius(1.0)), UnitSphere(1), "identity",
                            {"sup_error": 1e-3}),
        "perturbed_geodesic": (circle(constant_radius(1.0)), UnitSphere(1),
                               "perturbed_geodesic", {"sup_error": 5e-3}),
        "perturbed_geodesic_sine_metric": (circle(sine_radius(0.2, 1.0)), UnitSphere(1),
                                           "perturbed_geodesic", {"sup_error": 1e-2}),
        "great_circle_s2": (circle(constant_radius(1.0)), UnitSphere(2), "great_circle",
                            {"sup_error": 1e-3, "max_dist": 1e-2}),
        "equivariant_s2": (sphere, UnitSphere(2), "equivariant", {"sup_error": 2e-2}),
    }
    if name not in table:
        raise UnsupportedReduction(f"unknown benchmark {name!r}")
    source, target, terminal, tolerances = table[name]
    case = terminal_case(terminal, source(), target, horizon, amplitude)
    case.name, case.tolerances = name, tolerances
    return case


# ---------------------------------------------------------------------------
# reference solver
# ---------------------------------------------------------------------------

def pde_reference(case: BenchmarkCase, n_t: int, n_x: int = 100) -> MapField:
    """Reference solution of the backward flow on the case grid.

    The case's data picks the reduction.  A lift on a flat target gives the
    componentwise heat decay of the terminal slice; a lift on a curved
    target lifts to the scalar heat equation on the angle.  Both are solved
    exactly per Fourier mode with the adaptive time-change integral,
    `forward.time_change`.  The backward step's semigroup operators read
    the same integral, so the circle reference and the solve share it;
    `test_time_change_closed_forms` and
    `test_time_change_matches_adaptive_quadrature` (tests/test_forward.py)
    pin it to 1e-13 relative against closed forms and scipy's quad.  A
    psi_terminal integrates the equivariant colatitude profile by method of
    lines with fourth-order central differences, on r uniform knots of
    spacing h = dtheta / r centred on each grid colatitude, r the odd
    integer nearest n_x / n_theta.  The knots hold the grid colatitudes,
    which are read back by index.  Two ghost knots beyond each pole come
    from the profile's odd symmetries psi(-x) = -psi(x) and
    psi(pi + x) = 2 pi - psi(pi - x).  Classical RK4 steps it in time: each
    slice takes ceil(span L / 2) substeps, L = (16/(3h^2) + 1.5 max|cot|/h
    + 1/sin^2(h/2)) / (2 rho_min^2) bounding the Jacobian over the slice,
    so every substep lies in RK4's real stability interval.  Shares no
    other stepping code with the backward operator.
    """
    source = case.source
    times = np.linspace(0.0, case.horizon, n_t + 1)
    if case.lift is not None:
        # Fourier modes decay by exp(-k^2 tau / 2): the terminal's components on
        # a flat target, the periodic part of the lifted angle on a curved one
        th = source.thetas
        flat = isinstance(case.target, FlatSpace)
        modes = np.fft.rfft(case.terminal if flat else
                            (case.lift(th) - case.winding * th)[:, None], axis=0)
        k = np.fft.rfftfreq(len(th), d=1.0 / len(th))
        values = np.empty((n_t + 1,) + case.terminal.shape)
        for j, t in enumerate(times):
            tau = time_change(source.profile, t, case.horizon)
            decayed = np.fft.irfft(modes * np.exp(-0.5 * k ** 2 * tau)[:, None], n=len(th), axis=0)
            values[j] = decayed if flat else source.profile_map(
                case.winding * th + decayed[:, 0], case.target.ambient_dim)
        return MapField(times, values, source, case.target)

    if case.psi_terminal is not None:
        # r knots per grid colatitude, centred on it; r odd and nearest n_x / n_theta
        r = max(1, 2 * (n_x // (2 * source.n_theta)) + 1)
        hstep = source.dtheta / r
        knots = (source.thetas[:, None] + hstep * np.arange(-(r // 2), r // 2 + 1)).ravel()
        sin_k = np.sin(knots)
        cot_k = np.cos(knots) / sin_k
        two_sin2_k = 2.0 * sin_k ** 2
        # bound on the Jacobian of rhs at unit radius: stencil, cot term, sin(2 psi) term
        jac_bound = 0.5 * (16.0 / (3.0 * hstep ** 2) + 1.5 * np.max(np.abs(cot_k)) / hstep
                           + 1.0 / sin_k[0] ** 2)
        # fourth-order central stencils of d/dtheta and d^2/dtheta^2 on the knots
        d1_stencil = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * hstep)
        d2_stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * hstep ** 2)

        def rhs(scale, psi_in):
            # d psi / d(-t) of the backward flow, scale = 1 / (2 rho^2); two ghost knots
            # beyond each pole from the odd symmetries psi(-x) = -psi(x) and
            # psi(pi + x) = 2 pi - psi(pi - x)
            full = np.concatenate([-psi_in[1::-1], psi_in, 2.0 * np.pi - psi_in[:-3:-1]])
            d1 = np.correlate(full, d1_stencil, "valid")
            d2 = np.correlate(full, d2_stencil, "valid")
            return scale * (d2 + cot_k * d1 - np.sin(2.0 * psi_in) / two_sin2_k)

        psi = np.empty((n_t + 1, len(knots)))
        psi[n_t] = case.psi_terminal(knots)
        for j in range(n_t, 0, -1):
            # classical RK4 from t_j down to t_{j-1}: substep x Jacobian bound
            # stays within 2, inside RK4's real stability interval [-2.78, 0]
            span = times[j] - times[j - 1]
            rho_min = source.min_radius(times[j - 1], times[j])
            n_sub = math.ceil(span * jac_bound / rho_min ** 2 / 2.0)
            k = span / n_sub
            # 1 / (2 rho^2) at t_j - i k / 2: each substep's ends and midpoint
            scale = 0.5 / source.profile(times[j] - 0.5 * k * np.arange(2 * n_sub + 1)) ** 2
            y = psi[j]
            for i in range(n_sub):
                k1 = rhs(scale[2 * i], y)
                k2 = rhs(scale[2 * i + 1], y + 0.5 * k * k1)
                k3 = rhs(scale[2 * i + 1], y + 0.5 * k * k2)
                k4 = rhs(scale[2 * i + 2], y + k * k3)
                y = y + k / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            psi[j - 1] = y
        values = np.empty((n_t + 1,) + source.grid_shape + (3,))
        for j, p in enumerate(psi[:, r // 2::r]):
            values[j] = source.profile_map(p, case.target.ambient_dim)
        return MapField(times, values, source, case.target)

    raise UnsupportedReduction(
        f"no reference reduction for benchmark {case.name!r}")


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def tension_residual(source, target, field: MapField):
    """Flow-equation residual per interior slice.

    Computes |du/dt + (Lap u - curvature trace)/2| nodewise, with the time
    derivative by central differences on the slices.  Returns
    (interior_times, residual_norms) where the norms have one entry per
    interior slice and grid node.  Raises ShapeMismatch for a field of
    fewer than 3 slices, which has no interior slice, and FieldLeftTube
    when a value leaves the target tube.

    The interior slices go in the time blocks of the field's kept
    gradient (`fields._time_blocks`): one `laplace_beltrami` and one
    `sff_trace` call per block, bit-equal to a call per slice.
    """
    n_t = field.n_t
    if n_t < 2:
        raise ShapeMismatch(f"a field of {n_t + 1} slices has no interior slice")
    dist = target.distance(field.values)
    if np.any(dist >= target.tube_radius):
        raise FieldLeftTube(
            f"field leaves the target tube by {float(np.max(dist)):.3g}")
    dt = field.dt
    values = field.values
    out = np.empty((n_t - 1,) + field.grid_shape)
    for ks in _time_blocks(field):
        lo, hi = max(ks.start, 1), min(ks.stop, n_t)
        if lo >= hi:
            continue
        dudt = (values[lo + 1:hi + 1] - values[lo - 1:hi - 1]) / (2.0 * dt)
        lap = source.laplace_beltrami(field.times[lo:hi], values[lo:hi])
        gamma = sff_trace(target, values[lo:hi], field.gradient[lo:hi])
        res = dudt + 0.5 * (lap - gamma)
        out[lo - 1:hi - 1] = np.sqrt(row_dot(res, res))   # np.linalg.norm, bit for bit
    return field.times[1:-1], out


@dataclass
class StayOnTargetReport:
    """Distance-to-target statistics along a solution sample."""

    max_dist: float
    times: np.ndarray
    mean_g: np.ndarray        # mean truncated squared distance per time node
    integral: np.ndarray      # integral of mean_g from each node to the horizon
    c_fit: float              # smallest c with mean_g <= c * integral where defined


def stay_on_target(sample: BsdeSolutionSample) -> StayOnTargetReport:
    """Maximum distance of the sample's Y from its target plus the decay-of-G curve.

    The empirical curve s -> mean G(Y_s) and its right-tail integral expose
    the self-bounding structure that forces G to vanish; the fitted constant
    is the largest observed ratio of the two where the integral is resolved.
    """
    ens, target = sample.ensemble, sample.target
    dist = target.distance(sample.y)
    g = target.g_value(sample.y)
    mean_g = g.mean(axis=1)
    dt = ens.dt
    # integral of mean_g from s to the horizon: trapezoid increments summed right-to-left
    integral = np.zeros_like(mean_g)
    integral[-2::-1] = np.cumsum((0.5 * dt * (mean_g[:-1] + mean_g[1:]))[::-1])
    floor = max(float(integral.max()), 1e-300) * 1e-3
    valid = integral > floor
    c_fit = float(np.max(mean_g[valid] / integral[valid])) if np.any(valid) else 0.0
    return StayOnTargetReport(float(dist.max()), ens.times.copy(), mean_g,
                              integral, c_fit)


def weak_form_residual(source, field: MapField, test_fn) -> float:
    """Defect of the space-time integral identity tying the terminal slice to slice 0.

    All spatial integrals use the metric quadrature weights; the time
    derivative of the volume element comes from the closed-form radius
    derivative.  test_fn is the test function as a scalar grid field.  Returns
    the Euclidean norm of the vector-valued defect.
    """
    f = np.asarray(test_fn, float)

    def space_int(slice_vals, weights, scalar):
        return np.tensordot(weights * scalar, slice_vals, axes=slice_vals.ndim - 1)

    term_a = space_int(field.values[-1], source.volume_weights(field.horizon), f)
    term_b = space_int(field.values[0], source.volume_weights(field.times[0]), f)

    vol_dt = np.zeros((field.n_t + 1,) + term_a.shape)
    grad_pair = np.zeros_like(vol_dt)
    curv = np.zeros_like(vol_dt)
    # f does not depend on time and a frame gradient scales as 1 / rho(s)
    z_f0 = source.frame_gradient(field.times[0], f)
    rho_0 = float(source.profile(field.times[0]))
    for j, s in enumerate(field.times):
        w_s = source.volume_weights(s)
        u = field.values[j]
        vol_dt[j] = space_int(u, source.volume_weights_dt(s), f)
        z_u = field.gradient[j]
        z_f = z_f0 * (rho_0 / float(source.profile(s)))
        pair = np.sum(z_u * z_f[..., None], axis=len(field.grid_shape))
        grad_pair[j] = np.tensordot(w_s, pair, axes=pair.ndim - 1)
        curv[j] = space_int(sff_trace(field.target, u, z_u), w_s, f)
    dt = field.dt
    int_vol = np.trapezoid(vol_dt, dx=dt, axis=0)
    int_grad = np.trapezoid(grad_pair, dx=dt, axis=0)
    int_curv = np.trapezoid(curv, dx=dt, axis=0)

    defect = term_a - term_b - int_vol - 0.5 * int_grad - 0.5 * int_curv
    return float(np.linalg.norm(defect))


def semigroup_gradient_rate(source: Circle, taus):
    """Short-time gradient growth of the heat semigroup on the rough data sign(sin theta).

    For bounded rough data the gradient sup of the smoothed function grows
    like tau^(-1/2); this measures the rate (the prefactor is not asserted,
    only the exponent).  Returns (sups, fitted_rate) over the tau list.
    """
    f = np.sign(np.sin(source.thetas))
    taus = np.asarray(taus, dtype=float)
    grads = (source.frame_gradient(0.0, source.heat_semigroup_step(0.0, tau, f))
             for tau in taus)
    sups = np.array([float(np.max(np.linalg.norm(z, axis=-1))) for z in grads])
    rate = float(np.polyfit(np.log(taus), np.log(sups), 1)[0])
    return sups, rate


def circle_lift(values, thetas, winding: int = 1):
    """Lift a circle-valued slice to angles near winding * theta."""
    raw = np.arctan2(values[..., 1], values[..., 0])
    base = winding * thetas
    return base + np.mod(raw - base + np.pi, 2.0 * np.pi) - np.pi
