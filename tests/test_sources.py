import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hmflow import sources
from hmflow._linalg import row_dot
from hmflow._rng import DOMAIN_MC_SLICE, keyed_generator
from hmflow.errors import GridTooCoarse, HmflowError, ShapeMismatch, TimeOutOfRange
from hmflow.forward import time_change
from hmflow.sources import (Circle, Sphere2, constant_radius, shrinking_radius,
                            sine_radius)

SPHERE_HARMONICS = {
    # (l, label): field builder from unit vectors
    (1, "z"): lambda X: X[..., 2],
    (1, "x"): lambda X: X[..., 0],
    (2, "zonal"): lambda X: 1.5 * X[..., 2] ** 2 - 0.5,
    (2, "sectoral"): lambda X: X[..., 0] ** 2 - X[..., 1] ** 2,
    (3, "zonal"): lambda X: 2.5 * X[..., 2] ** 3 - 1.5 * X[..., 2],
    (3, "tesseral"): lambda X: (X[..., 0] ** 2 - X[..., 1] ** 2) * X[..., 2],
}


# ---------------------------------------------------------------------------
# time domain
# ---------------------------------------------------------------------------

def test_embed_time_out_of_range():
    c = Circle(constant_radius(1.0), horizon=1.0)
    with pytest.raises(TimeOutOfRange):
        c.volume_weights(1.5)
    with pytest.raises(TimeOutOfRange):
        c.frame_gradient(-0.1, np.ones(c.n_theta))


# ---------------------------------------------------------------------------
# gradient / laplacian
# ---------------------------------------------------------------------------

def test_metric_gradient_circle():
    c = Circle(constant_radius(1.0), n_theta=256)
    u = np.sin(c.thetas)
    def gnorm(source, f):
        return np.linalg.norm(source.frame_gradient(0.0, f), axis=-1)

    np.testing.assert_allclose(gnorm(c, u), np.abs(np.cos(c.thetas)), atol=1e-12)
    c2 = Circle(constant_radius(2.0), n_theta=256)
    np.testing.assert_allclose(gnorm(c2, u), np.abs(np.cos(c2.thetas)) / 2.0, atol=1e-12)
    np.testing.assert_allclose(gnorm(c, np.ones(256)), 0.0, atol=1e-13)


def test_gradient_identity_ambient_projection():
    # projection of the ambient gradient of the radial extension equals the
    # metric gradient as an ambient tangent vector
    c = Circle(constant_radius(1.0), n_theta=512)
    u_fn = lambda th: np.sin(2 * th) + 0.3 * np.cos(5 * th)
    u = u_fn(c.thetas)
    z = c.frame_gradient(0.0, u)[:, 0]
    eps = 1e-6
    for j in range(0, 512, 37):
        y = np.array([np.cos(c.thetas[j]), np.sin(c.thetas[j])])   # unit-radius embedding
        tau = np.array([-y[1], y[0]])                               # unit tangent
        amb = np.array([
            (u_fn(np.arctan2(y[1], y[0] + eps)) - u_fn(np.arctan2(y[1], y[0] - eps))) / (2 * eps),
            (u_fn(np.arctan2(y[1] + eps, y[0])) - u_fn(np.arctan2(y[1] - eps, y[0]))) / (2 * eps),
        ])
        proj = np.outer(tau, tau) @ amb
        tangent = z[j] * tau
        np.testing.assert_allclose(proj, tangent, atol=1e-5)


def test_laplacian_circle_eigenfunctions():
    c = Circle(constant_radius(1.0), n_theta=256)
    np.testing.assert_allclose(c.laplace_beltrami(0.0, np.cos(c.thetas)),
                               -np.cos(c.thetas), atol=1e-11)
    c2 = Circle(constant_radius(2.0), n_theta=256)
    np.testing.assert_allclose(c2.laplace_beltrami(0.0, np.cos(c2.thetas)),
                               -np.cos(c2.thetas) / 4.0, atol=1e-11)
    np.testing.assert_allclose(c.laplace_beltrami(0.0, np.ones(256)), 0.0, atol=1e-13)
    for k in (1, 2, 3, 5):
        u = np.sin(k * c.thetas)
        np.testing.assert_allclose(c.laplace_beltrami(0.0, u), -k ** 2 * u,
                                   atol=1e-9)


def test_laplacian_sphere_eigenvalues_default_grid():
    s = Sphere2(constant_radius(1.0))
    X = s.grid_points()
    w = s.volume_weights(0.0)
    for (l, _), build in SPHERE_HARMONICS.items():
        f = build(X)
        lam = np.sum(w * f * s.laplace_beltrami(0.0, f)) / np.sum(w * f * f)
        assert lam == pytest.approx(-l * (l + 1), rel=1e-4)


def test_laplacian_sphere_radius_scaling():
    s = Sphere2(constant_radius(2.0))
    X = s.grid_points()
    f = X[..., 2]
    w = s.volume_weights(0.0)
    lam = np.sum(w * f * s.laplace_beltrami(0.0, f)) / np.sum(w * f * f)
    assert lam == pytest.approx(-2.0 / 4.0, rel=1e-4)


def test_grid_too_coarse():
    # a source checks its grid once, when it is built
    with pytest.raises(GridTooCoarse, match="n_theta=4"):
        Circle(constant_radius(1.0), n_theta=4)
    with pytest.raises(GridTooCoarse, match="n_theta=4, n_phi=16"):
        Sphere2(constant_radius(1.0), n_theta=4, n_phi=16)


# ---------------------------------------------------------------------------
# generator identity
# ---------------------------------------------------------------------------

def test_generator_identity_circle():
    c = Circle(constant_radius(1.0), n_theta=512)
    res = c.generator_residual(0.0, np.cos(c.thetas))
    assert np.abs(res).max() <= 1e-6
    np.testing.assert_allclose(c.generator_residual(0.0, np.ones(512)), 0.0,
                               atol=1e-13)


def test_generator_identity_time_dependent_refinement():
    errs = []
    for n in (32, 64):
        c = Circle(sine_radius(0.2, 1.0), n_theta=n, horizon=1.0)
        res = c.generator_residual(0.5, np.sin(2 * c.thetas))
        errs.append(np.abs(res).max())
    # spectral composition: already at rounding level on both grids
    assert errs[-1] <= 1e-10


def test_sphere_generator_residual_needs_a_scalar_field():
    # both families take scalar fields only: here each one's 3-vector chart map
    for src in (Circle(constant_radius(1.0), n_theta=8),
                Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)):
        field = src.profile_map(src.thetas, 3)
        with pytest.raises(ShapeMismatch, match="scalar"):
            src.generator_residual(0.0, field)


def test_generator_identity_sphere():
    s = Sphere2(constant_radius(1.0), n_theta=48, n_phi=96)
    X = s.grid_points()
    res = s.generator_residual(0.0, X[..., 0] ** 2 - X[..., 1] ** 2)
    assert np.abs(res).max() <= 5e-4
    res64 = Sphere2(constant_radius(1.0), n_theta=96, n_phi=192)
    X64 = res64.grid_points()
    r2 = res64.generator_residual(0.0, X64[..., 0] ** 2 - X64[..., 1] ** 2)
    assert np.abs(r2).max() < np.abs(res).max() / 40  # 6th order: 64x per doubling


def test_sphere_colatitude_calculus_is_sixth_order():
    # 6th-order colatitude stencils: both errors fall 63x and 64x from 24x48 to
    # 48x96; 4th-order ones fall 16x
    lap_err, grad_err = [], []
    for n in (24, 48):
        s = Sphere2(constant_radius(1.0), n_theta=n, n_phi=2 * n)
        X = s.grid_points()
        f = X[..., 0] ** 2 - X[..., 1] ** 2
        lap_err.append(np.abs(s.laplace_beltrami(0.0, f) + 6.0 * f).max())
        z_theta = s.frame_gradient(0.0, X[..., 2])[:, :, 0]
        grad_err.append(np.abs(z_theta + np.sin(s.thetas)[:, None]).max())
    assert lap_err[1] < lap_err[0] / 40, lap_err
    assert grad_err[1] < grad_err[0] / 40, grad_err


# ---------------------------------------------------------------------------
# volume and curvature bound
# ---------------------------------------------------------------------------

def test_volume_weights():
    c = Circle(constant_radius(2.0), n_theta=100)
    w = c.volume_weights(0.0)
    assert w.sum() == pytest.approx(4 * np.pi, rel=1e-12)
    np.testing.assert_allclose(w, 2 * np.pi * 2.0 / 100)
    c1 = Circle(constant_radius(1.0), n_theta=64)
    np.testing.assert_allclose(c1.volume_weights(0.0), 2 * np.pi / 64)
    s = Sphere2(constant_radius(1.0))
    assert s.volume_weights(0.0).sum() == pytest.approx(4 * np.pi, rel=1e-6)
    s3 = Sphere2(constant_radius(3.0))
    assert s3.volume_weights(0.0).sum() == pytest.approx(36 * np.pi, rel=1e-6)


def test_ricci_bound_circle():
    assert Circle(constant_radius(1.0)).ricci_bound() == 0.0
    c = Circle(sine_radius(0.2, 1.0), horizon=1.0)
    t = np.linspace(0, 1, 200_001)
    expected = np.max(np.abs(0.4 * np.cos(t) / (1 + 0.2 * np.sin(t))))
    assert c.ricci_bound() == pytest.approx(expected, rel=1e-6)


def test_ricci_bound_sphere():
    s = Sphere2(constant_radius(1.0))
    assert s.ricci_bound() == pytest.approx(np.sqrt(2.0), rel=1e-12)
    sh = Sphere2(shrinking_radius(), horizon=0.4)
    # |2 rho'/rho + 1/rho^2| = 1/(1-2t), largest at the horizon
    assert sh.ricci_bound() == pytest.approx(np.sqrt(2.0) / (1 - 0.8), rel=1e-3)


def test_shrinking_profile_positivity_guard():
    with pytest.raises(ValueError):
        Sphere2(shrinking_radius(), horizon=0.6)


# ---------------------------------------------------------------------------
# interpolation and heat steps
# ---------------------------------------------------------------------------

def test_circle_interpolation_exact_for_bandlimited():
    c = Circle(constant_radius(1.0), n_theta=64)
    f = np.cos(3 * c.thetas) - 2 * np.sin(5 * c.thetas)
    q = np.array([0.1, 1.7, 4.4, 6.2])
    exact = np.cos(3 * q) - 2 * np.sin(5 * q)
    np.testing.assert_allclose(c.interpolate_slice(f, q), exact, atol=1e-12)


@pytest.mark.parametrize("n_theta", [64, 65])
@pytest.mark.parametrize("value_shape", [(), (2,), (1, 2)])
def test_circle_interpolation_matches_direct_sum(n_theta, value_shape):
    # reference: sum_k w_k Re(c_k e^{ik theta}) over the rfft modes, with the
    # halved weights at k = 0 and, for even n_theta, at the Nyquist mode
    c = Circle(constant_radius(1.0), n_theta=n_theta)
    rng = np.random.default_rng(n_theta)
    f = rng.standard_normal((n_theta,) + value_shape)
    theta = rng.uniform(-np.pi, 3.0 * np.pi, 2 * sources._PHASE_CHUNK + 37)
    k = np.arange(n_theta // 2 + 1)
    w = np.where((k == 0) | (2 * k == n_theta), 1.0, 2.0) / n_theta
    modes = np.fft.rfft(f, axis=0).reshape(len(k), -1)
    direct = np.real(np.exp(1j * np.outer(theta, k)) @ (w[:, None] * modes))
    got = c.interpolate_slice(f, theta)
    assert got.shape == theta.shape + value_shape
    np.testing.assert_allclose(got.reshape(len(theta), -1), direct, rtol=0, atol=1e-13)
    assert np.shape(c.interpolate_slice(f, 0.3)) == value_shape


def test_sphere_interpolation_second_order():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((400, 3))
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    errs = []
    for n in (32, 64):
        s = Sphere2(constant_radius(1.0), n_theta=n, n_phi=2 * n)
        f = s.grid_points()[..., 2]
        errs.append(np.abs(s.interpolate_slice(f, pts) - pts[:, 2]).max())
    assert errs[1] < errs[0] / 3.0
    assert errs[1] < 5e-4


def test_sphere_interpolation_longitude_wrap():
    # just below longitude 0, phi = mod(-1e-17, 2 pi) rounds to 2 pi exactly;
    # the point must read the phi = 0 column, where y vanishes
    s = Sphere2(constant_radius(1.0), n_theta=16, n_phi=32)
    f = s.grid_points()[..., 1]
    theta = 1.0
    x = np.array([[np.sin(theta), -1e-17, np.cos(theta)]])
    assert np.mod(np.arctan2(x[0, 1], x[0, 0]), 2 * np.pi) == 2 * np.pi
    assert abs(s.interpolate_slice(f, x)[0]) <= 1e-12


def test_circle_heat_step_exact_mode_decay():
    c = Circle(constant_radius(1.0), n_theta=128)
    f = np.cos(c.thetas)
    out = c.heat_semigroup_step(0.0, 0.1, f)
    np.testing.assert_allclose(out, np.exp(-0.05) * f, atol=1e-14)
    c2 = Circle(constant_radius(2.0), n_theta=128)
    out2 = c2.heat_semigroup_step(0.0, 0.1, f)
    np.testing.assert_allclose(out2, np.exp(-0.05 / 4) * f, atol=1e-14)


def test_sphere_heat_step_l1_decay():
    s = Sphere2(constant_radius(1.0), n_theta=32, n_phi=64)
    f = s.grid_points()[..., 2]
    dt = 0.01
    out = s.heat_semigroup_step(0.0, dt, f)
    # the heat semigroup on the l=1 eigenspace: factor exp(-dt), up to the stencil's error
    np.testing.assert_allclose(out, f * np.exp(-dt), atol=1e-7)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Circle(constant_radius(1.0), n_theta=64), id="circle"),
    pytest.param(lambda: Sphere2(constant_radius(1.0), n_theta=16, n_phi=32), id="sphere16x32"),
    pytest.param(lambda: Sphere2(constant_radius(1.0), n_theta=24, n_phi=48), id="sphere24x48"),
])
@pytest.mark.parametrize("value_shape", [(), (3,)], ids=["scalar", "vector"])
def test_heat_step_is_a_semigroup(make, value_shape):
    # with the metric frozen, two steps of dt are one step of 2 dt
    s = make()
    f = np.random.default_rng(9).standard_normal(s.grid_shape + value_shape)
    twice = s.heat_semigroup_step(0.0, 0.01, s.heat_semigroup_step(0.0, 0.01, f))
    np.testing.assert_allclose(twice, s.heat_semigroup_step(0.0, 0.02, f), rtol=0, atol=1e-12)


BLOCK_SOURCES = [
    pytest.param(lambda: Circle(sine_radius(0.2, 1.0), n_theta=64, horizon=1.0), id="circle"),
    pytest.param(lambda: Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16, horizon=1.0),
                 id="sphere"),
]


@pytest.mark.parametrize("make", BLOCK_SOURCES)
@pytest.mark.parametrize("value_shape", [(), (3,)])
def test_time_blocked_calculus_equals_stacked_slices(make, value_shape):
    s = make()
    times = np.linspace(0.0, 0.3, 7)
    block = np.random.default_rng(4).standard_normal((7,) + s.grid_shape + value_shape)
    for name in ("frame_gradient", "laplace_beltrami"):
        method = getattr(s, name)
        out = method(times, block)
        np.testing.assert_array_equal(out, np.stack([method(t, f) for t, f in zip(times, block)]))
        assert out.flags.c_contiguous
    assert s.frame_gradient(times, block).shape == block.shape[:1 + s.dim] + (s.dim,) + value_shape
    with pytest.raises(ShapeMismatch):
        s.frame_gradient(times[:-1], block)
    with pytest.raises(TimeOutOfRange):
        s.frame_gradient(times + 0.9, block)


@pytest.mark.parametrize("make", BLOCK_SOURCES)
@pytest.mark.parametrize("value_shape", [(), (3,)])
def test_one_slice_at_several_times_equals_the_broadcast_block(make, value_shape):
    # a block of one slice is differentiated once and scaled by each slice's rho
    s = make()
    times = np.linspace(0.0, 0.3, 7)
    f = np.random.default_rng(6).standard_normal((1,) + s.grid_shape + value_shape)
    block = np.broadcast_to(f, (7,) + f.shape[1:])
    for name in ("frame_gradient", "laplace_beltrami"):
        method = getattr(s, name)
        out = method(times, f)
        assert out.tobytes() == method(times, block).tobytes()
        assert out.tobytes() == np.stack([method(t, f[0]) for t in times]).tobytes()
        assert out.flags.c_contiguous
    with pytest.raises(ShapeMismatch, match="slice times for a field block"):
        s.frame_gradient(times, np.concatenate([f, f]))


def _shifted_sum(s, block, sign, weights):
    """The colatitude stencil as 7 shifted slices of the pole-padded block, summed."""
    p = s._pad_poles(block, sign)
    return sum(w * p[:, k:k + s.n_theta] for k, w in enumerate(weights))


@pytest.mark.parametrize("n_theta,n_phi", [(24, 48), (48, 96), (96, 192), (256, 128), (33, 64)])
def test_stencil_matrices_equal_the_shifted_sum(n_theta, n_phi):
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=n_theta, n_phi=n_phi, horizon=1.0)
    d1, d2 = s._stencil_matrices
    # n_theta split evenly into blocks of at most 32 rows: one dense block on 24
    # colatitudes, two blocks of 17 rows on 33 (the last window overlaps)
    b = {24: 24, 48: 24, 96: 32, 256: 32, 33: 17}[n_theta]
    assert d1.shape == d2.shape == (b, b + 6)
    rng = np.random.default_rng(n_theta)
    fields = rng.standard_normal((2, n_theta, n_phi, 3))
    columns = rng.standard_normal((1, n_theta, n_theta))
    for block, signs in ((fields, [None]), (columns, [1.0, -1.0])):
        for sign in signs:
            padded = s._pad_poles(block, sign)
            for matrix, weights in ((d1, sources._D1_STENCIL), (d2, sources._D2_STENCIL)):
                want = _shifted_sum(s, block, sign, weights)
                got = s._colatitude_stencil(padded, matrix)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n_phi", [16, 48, 96])
@pytest.mark.parametrize("order", [1, 2])
def test_dense_longitude_derivative_equals_the_ffts(monkeypatch, n_phi, order):
    # rings up to 96 longitudes take the dense spectral matrix; finer ones the FFT pair
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=n_phi, horizon=1.0)
    block = np.random.default_rng(n_phi).standard_normal((3, 8, n_phi, 2))
    phis = s.phis[None, None, :, None]
    wave = np.cos(3 * phis) + np.sin(phis)   # exact derivatives of a band-limited field
    exact = (-3 * np.sin(3 * phis) + np.cos(phis) if order == 1
             else -9 * np.cos(3 * phis) - np.sin(phis))
    dense = s._dphi_spectral(block, order)
    np.testing.assert_allclose(s._dphi_spectral(wave, order), exact, rtol=0, atol=1e-11)
    monkeypatch.setattr(sources, "_DENSE_PHI_MAX", 0)
    fft = s._dphi_spectral(block, order)
    assert np.abs(dense - fft).max() <= 1e-13 * np.abs(fft).max()
    assert dense.flags.c_contiguous


def test_sphere_mode_operator_is_the_shifted_stencil_bit_for_bit():
    # on identity columns each entry sums at most two weights, so the matmul
    # gives the shifted sum's bits: the heat step's eigenbasis does not move
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=33, n_phi=64, horizon=1.0)
    eye = np.eye(33)[None]
    for m in range(s.n_phi // 2 + 1):
        sign = (-1.0) ** m
        want = (_shifted_sum(s, eye, sign, sources._D2_STENCIL) / s.dtheta ** 2
                + s._cot[:, None] * (_shifted_sum(s, eye, sign, sources._D1_STENCIL) / s.dtheta)
                - np.diag(m ** 2 / s._sin ** 2))[0]
        assert s._mode_operator(m).tobytes() == want.tobytes(), m


def _heat_step_reference(s, t, dt, f):
    """The one-slice heat kernels written out: Fourier decay, or exp(kappa lam) per sphere mode.

    kappa is half the time change tau over [t, t + dt].  The sphere's FFTs run
    along the strided longitude axis; the operator runs them with longitude
    last, which moves values and changes no bit.
    """
    kappa = 0.5 * time_change(s.profile, t, t + dt)
    if isinstance(s, Circle):
        decay = np.exp(-kappa * s._k ** 2)
        return np.fft.irfft(np.fft.rfft(f, axis=0) * decay.reshape((-1,) + (1,) * (f.ndim - 1)),
                            n=s.n_theta, axis=0)
    vecs, lam, inv = s._eigenbasis
    modes = np.fft.rfft(f, axis=1)
    rhs = np.ascontiguousarray(
        modes.reshape(s.n_theta, modes.shape[1], -1).transpose(1, 0, 2)).view(float)
    out = vecs @ (np.exp(kappa * lam)[..., None] * (inv @ rhs))
    out = out.view(complex).transpose(1, 0, 2).reshape(modes.shape)
    return np.fft.irfft(out, n=s.n_phi, axis=1)


@pytest.mark.parametrize("make", BLOCK_SOURCES + [
    pytest.param(lambda: Sphere2(sine_radius(0.2, 1.0), n_theta=n, n_phi=2 * n, horizon=1.0),
                 id=f"sphere{n}x{2 * n}") for n in (24, 48)])
def test_heat_operator_equals_the_one_step_kernel(make):
    s = make()
    rng = np.random.default_rng(6)
    for value_shape in ((), (3,)):
        f = rng.standard_normal(s.grid_shape + value_shape)
        for t in (0.0, 0.37, 0.99):
            step = s.heat_semigroup_operator(t, 0.01)
            np.testing.assert_array_equal(step(f), _heat_step_reference(s, t, 0.01, f))
            np.testing.assert_array_equal(s.heat_semigroup_step(t, 0.01, f), step(f))
    with pytest.raises(TimeOutOfRange):
        s.heat_semigroup_operator(1.5, 0.01)
    with pytest.raises(ShapeMismatch):
        s.heat_semigroup_operator(0.0, 0.01)(np.ones(4))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Circle(shrinking_radius(), n_theta=16, horizon=0.45), id="circle"),
    pytest.param(lambda: Sphere2(shrinking_radius(), n_theta=8, n_phi=16, horizon=0.45),
                 id="sphere")])
def test_one_step_operators_check_their_whole_step(make):
    # the step from 0.45 by 0.04 would read the radius past the horizon; by
    # 0.06 it would cross the radius's zero at t = 1/2
    s = make()
    new_rng = lambda: keyed_generator(5, DOMAIN_MC_SLICE, 0)
    for dt in (0.04, 0.06):
        with pytest.raises(TimeOutOfRange, match="outside metric definition interval"):
            s.heat_semigroup_operator(0.45, dt)
        with pytest.raises(TimeOutOfRange):
            s.mc_step_operator(0.45, dt, 16, new_rng)
    with pytest.raises(TimeOutOfRange):
        s.heat_semigroup_operator(-0.01, 0.005)
    s.heat_semigroup_operator(0.44, 0.01)
    s.mc_step_operator(0.44, 0.01, 16, new_rng)



@pytest.mark.parametrize("make", BLOCK_SOURCES)
@pytest.mark.parametrize("backend", ["semigroup", "monte_carlo"])
def test_one_step_and_calculus_outputs_are_c_contiguous(make, backend):
    # the Picard sweep's driver and sups read these slices; strided ones cost them 2x
    s = make()
    times = np.linspace(0.0, 0.3, 5)
    for value_shape in ((), (3,)):
        f = np.random.default_rng(9).standard_normal(s.grid_shape + value_shape)
        if backend == "semigroup":
            outs = [s.heat_semigroup_operator(0.2, 0.01)(f), s.heat_semigroup_step(0.2, 0.01, f)]
        else:
            new_rng = lambda: keyed_generator(5, DOMAIN_MC_SLICE, 3)
            outs = [s.mc_step_operator(0.2, 0.01, 16, new_rng)(f),
                    s.mc_step_mean(0.2, 0.01, f, 16, new_rng())]
        block = np.stack([f] * len(times))
        outs += [s.frame_gradient(times, block), s.laplace_beltrami(times, block),
                 s.frame_gradient(0.2, f), s.laplace_beltrami(0.2, f)]
        for out in outs:
            assert out.flags.c_contiguous, (value_shape, out.shape, out.strides)

def test_sphere_chart_point_at_any_scale():
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    for scale in (1e-200, 1.0, 1e300):
        np.testing.assert_allclose(s.chart_point([0.0, 0.6 * scale, 0.8 * scale]),
                                   [0.0, 0.6, 0.8], rtol=1e-15)


def test_sphere_mode_operator_is_laplacian_per_mode():
    # A_m, the heat step's colatitude operator, is laplace_beltrami's own
    # stencil on azimuthal mode m, scaled by rho^2
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=16, n_phi=32)
    t = 0.3
    f = np.random.default_rng(9).standard_normal((16, 32, 3))
    modes = np.fft.rfft(f, axis=1)
    lap = float(s.profile(t)) ** 2 * np.fft.rfft(s.laplace_beltrami(t, f), axis=1)
    for m in range(s.n_phi // 2 + 1):
        got = s._mode_operator(m) @ modes[:, m]
        assert np.linalg.norm(got - lap[:, m]) <= 1e-9 * np.linalg.norm(lap[:, m]), m


def test_circle_mc_step_unbiased_and_deterministic():
    c = Circle(constant_radius(1.0), n_theta=64)
    f = np.cos(c.thetas)
    exact = c.heat_semigroup_step(0.0, 0.01, f)
    outs = []
    for seed in range(30):
        rng = np.random.Generator(np.random.Philox(key=seed))
        outs.append(c.mc_step_mean(0.0, 0.01, f, 2000, rng))
    mean = np.mean(outs, axis=0)
    se = np.std(outs, axis=0, ddof=1) / np.sqrt(len(outs))
    assert np.all(np.abs(mean - exact) <= 4 * se + 1e-12)
    rng1 = np.random.Generator(np.random.Philox(key=7))
    rng2 = np.random.Generator(np.random.Philox(key=7))
    np.testing.assert_array_equal(c.mc_step_mean(0.0, 0.01, f, 500, rng1),
                                  c.mc_step_mean(0.0, 0.01, f, 500, rng2))


def test_circle_mc_step_matches_per_mode_formula():
    # the same draws (a cloned Philox key) through the explicit multiplier of
    # the draws and their mirrors, chi_k = mean_j cos(k delta_j); the draws
    # span more than one chunk, with an uneven last chunk
    c = Circle(sine_radius(0.2, 1.0), n_theta=256)
    f = np.stack([np.cos(c.thetas + 0.3 * np.sin(c.thetas)), np.sin(3 * c.thetas)], axis=-1)
    t, dt = 0.1, 5e-3
    n_paths = 4 * sources._PHASE_CHUNK + 202
    got = c.mc_step_mean(t, dt, f, n_paths, np.random.Generator(np.random.Philox(key=11)))
    draws = np.random.Generator(np.random.Philox(key=11)).standard_normal(n_paths)
    delta = draws * np.sqrt(time_change(c.profile, t, t + dt))
    chi = np.array([np.mean(np.cos(k * delta)) for k in range(c.n_theta // 2 + 1)])
    modes = np.fft.rfft(f, axis=0)
    expected = np.fft.irfft(modes * chi[:, None], n=c.n_theta, axis=0)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


def test_circle_mc_step_commutes_with_reflection():
    # each draw is paired with its mirror, so the step maps f(-theta) to its
    # own output at -theta, and an even field to an even field; a complex chi
    # leaves an odd part of about k sqrt(tau / n_paths) in mode k
    c = Circle(sine_radius(0.2, 1.0), n_theta=128)
    mirror = -np.arange(c.n_theta) % c.n_theta   # grid index of -theta
    step = c.mc_step_operator(0.1, 0.01, 2 * sources._PHASE_CHUNK + 77,
                              lambda: keyed_generator(5, DOMAIN_MC_SLICE, 3))
    f = np.random.default_rng(4).standard_normal((c.n_theta, 2))
    np.testing.assert_allclose(step(f[mirror]), step(f)[mirror], rtol=0, atol=1e-14)
    even = np.exp(np.cos(c.thetas)) + np.cos(3 * c.thetas)
    out = step(even)
    np.testing.assert_allclose(out[mirror], out, rtol=0, atol=1e-14)


def test_circle_mc_step_spread_is_below_the_complex_multiplier():
    # cos(theta) at tau = 0.01: over 30 seeds the mirrored step's per-node
    # spread peaks near tau / sqrt(2 n), against sqrt(tau / n) for the
    # empirical characteristic function of the same draws, a ratio near
    # sqrt(2 / tau) = 14
    c = Circle(constant_radius(1.0), n_theta=64)
    f = np.cos(c.thetas)
    n_paths, dt = 2000, 0.01
    modes = np.fft.rfft(f)
    mirrored, complex_chi = [], []
    for seed in range(30):
        rng = np.random.Generator(np.random.Philox(key=seed))
        mirrored.append(c.mc_step_mean(0.0, dt, f, n_paths, rng))
        delta = np.random.Generator(np.random.Philox(key=seed)).standard_normal(n_paths)
        delta *= np.sqrt(time_change(c.profile, 0.0, dt))
        chi = np.exp(1j * np.outer(np.arange(len(modes)), delta)).mean(axis=1)
        complex_chi.append(np.fft.irfft(modes * chi, n=c.n_theta))
    spread = np.std(mirrored, axis=0).max()
    assert 5 * spread <= np.std(complex_chi, axis=0).max()


def test_circle_phase_kernels_memory_is_bounded():
    # 2e5 angles at 256 nodes: a dense basis would hold 2e5 x 129 complex
    # numbers (413 MB); the chunked kernels keep a few MB beyond their output
    c = Circle(constant_radius(1.0), n_theta=256)
    f = np.cos(c.thetas)
    theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 200_000)
    rng = keyed_generator(5, DOMAIN_MC_SLICE, 0)
    tracemalloc.start()
    try:
        out = c.interpolate_slice(f, theta)
        interp_peak = tracemalloc.get_traced_memory()[1]
        del out
        tracemalloc.reset_peak()
        c.mc_step_mean(0.0, 1e-3, f, 200_000, rng)
        mc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert interp_peak - theta.nbytes < 3e6
    assert mc_peak < 1e6


def test_sphere_mc_step_unbiased():
    s = Sphere2(constant_radius(1.0), n_theta=32, n_phi=64)
    f = s.grid_points()[..., 2]
    dt = 0.01
    outs = []
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(key=seed))
        outs.append(s.mc_step_mean(0.0, dt, f, 400, rng))
    mean = np.mean(outs, axis=0)
    se = np.std(outs, axis=0, ddof=1) / np.sqrt(len(outs))
    # true conditional expectation for l=1 is exp(-dt) f; allow the scheme's
    # O(dt^2) bias plus the O(h^2) bilinear interpolation bias of the sampler
    target = np.exp(-dt) * f
    interp_bias = 1.5 * (np.pi / 32) ** 2 / 8.0
    assert np.mean(np.abs(mean - target) <= 4 * se + interp_bias + 2e-4) > 0.97


def test_sphere_mc_step_does_not_depend_on_chunking(monkeypatch):
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16)
    f = s.grid_points()

    def step(cap):
        monkeypatch.setattr(sources, "_MC_CHUNK_POINTS", cap)
        rng = keyed_generator(5, DOMAIN_MC_SLICE, 3)
        return s.mc_step_mean(0.1, 1e-3, f, 64, rng)

    whole = step(1 << 40)
    np.testing.assert_array_equal(step(1), whole)       # one node per chunk
    np.testing.assert_array_equal(step(200), whole)     # 3 nodes, uneven last chunk


def test_sphere_mc_step_mean_is_its_operator_applied_once(monkeypatch):
    monkeypatch.setattr(sources, "_MC_CHUNK_POINTS", 200)   # 3 nodes a chunk, uneven last
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16)
    f = s.grid_points()
    mean = s.mc_step_mean(0.1, 1e-3, f, 64, keyed_generator(5, DOMAIN_MC_SLICE, 3))
    rng = keyed_generator(5, DOMAIN_MC_SLICE, 3)
    step = s.mc_step_operator(0.1, 1e-3, 64, lambda: rng)
    np.testing.assert_array_equal(step(f), mean)
    # built from a fresh generator per call, each application draws the same increments
    step = s.mc_step_operator(0.1, 1e-3, 64, lambda: keyed_generator(5, DOMAIN_MC_SLICE, 3))
    np.testing.assert_array_equal(step(f), mean)
    np.testing.assert_array_equal(step(f), mean)


def test_sphere_mc_step_memory_is_bounded(monkeypatch):
    monkeypatch.setattr(sources, "_MC_CHUNK_POINTS", 4096)
    s = Sphere2(constant_radius(1.0), n_theta=16, n_phi=32)
    f = s.grid_points()
    n_paths = 1000
    one_shot_normals = s.n_nodes * n_paths * 3 * 8   # 12.3 MB drawn at once
    rng = keyed_generator(5, DOMAIN_MC_SLICE, 0)
    tracemalloc.start()
    try:
        s.mc_step_mean(0.0, 1e-3, f, n_paths, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * one_shot_normals


def _reference_sphere_step(s, states, t, dt, dW):
    """`Sphere2.step_paths` as numpy's reductions over the 3-long axis wrote it."""
    rho = float(s.profile(t))
    radial = np.sum(states * dW, axis=-1, keepdims=True) * states
    moved = states + (dW - radial) / rho - states * (dt / rho ** 2)
    norms = np.linalg.norm(moved, axis=-1, keepdims=True)
    violation = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    return moved / norms, violation


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _step_inputs(case, rng):
    if case == "moment_check_block":
        return _unit(rng.standard_normal((1364, 3))), rng.standard_normal((1364, 3)) / 16
    if case == "mc_step_broadcast":
        return _unit(rng.standard_normal((512, 1, 3))), rng.standard_normal((512, 200, 3)) / 30
    if case == "probe_nodes":
        # the weak-error probe: one start, a 60^3 Gauss-Hermite tensor of increments
        start = np.broadcast_to(_unit(np.array([0.3, -0.4, 0.8])), (216_000, 3))
        return start, np.sqrt(2e-3) * rng.standard_normal((216_000, 3))
    # signed-zero axes against every increment of -0.0, +0.0 and +-0.5 entries:
    # rows whose products are all -0.0, some, or none
    axes = [[z0, z1, one] for z0 in (0.0, -0.0) for z1 in (0.0, -0.0) for one in (1.0, -1.0)]
    axes = np.array([np.roll(a, r) for a in axes for r in range(3)])
    entries = np.array([-0.0, 0.0, 0.5, -0.5])
    incr = np.stack(np.meshgrid(entries, entries, entries, indexing="ij"), axis=-1).reshape(-1, 3)
    return np.repeat(axes, len(incr), axis=0), np.tile(incr, (len(axes), 1))


@pytest.mark.parametrize("case", ["moment_check_block", "mc_step_broadcast", "probe_nodes",
                                  "signed_zeros"])
def test_sphere_step_equals_numpy_reductions(case):
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16)
    states, dW = _step_inputs(case, np.random.default_rng(11))
    moved, violation = s.step_paths(states, 0.3, 1 / 256, dW)
    ref_moved, ref_violation = _reference_sphere_step(s, states, 0.3, 1 / 256, dW)
    assert moved.tobytes() == ref_moved.tobytes()      # signed zeros included
    assert violation == ref_violation


@pytest.mark.parametrize("n", range(1, 10))
def test_row_dot_equals_numpy_sum(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((300, n)) * rng.choice([1e-8, 1.0, 1e8], (300, n))
    y = rng.standard_normal((300, n))
    x[:3], y[:3] = -0.0, 0.5    # rows of -0.0 products sum to numpy's +0.0
    assert row_dot(x, x).tobytes() == np.sum(x * x, axis=-1).tobytes()
    assert row_dot(x, y).tobytes() == np.sum(x * y, axis=-1).tobytes()
    assert row_dot(x[:, None], y[:4]).tobytes() == np.sum(x[:, None] * y[:4], axis=-1).tobytes()


@pytest.mark.parametrize("source", [Circle(constant_radius(1.0), n_theta=16),
                                    Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)],
                         ids=["circle", "sphere"])
def test_mc_step_rejects_bad_path_counts(source):
    f = source.grid_points()
    with pytest.raises(ValueError, match="n_paths"):
        source.mc_step_mean(0.0, 1e-3, f, 0, keyed_generator(5, DOMAIN_MC_SLICE, 0))


def _held_nbytes(obj):
    """Bytes of the numpy arrays held in an object's attributes, through containers."""
    def walk(v):
        if isinstance(v, np.ndarray):
            return v.nbytes
        if isinstance(v, (list, tuple)):
            return sum(walk(x) for x in v)
        if isinstance(v, dict):
            return sum(walk(x) for x in v.values())
        return 0
    return walk(vars(obj))


def _dense_heat_step(s, t, dt, field):
    """Reference heat semigroup step: one dense matrix exponential exp(kappa A_m) per mode."""
    kappa = 0.5 * time_change(s.profile, t, t + dt)
    modes = np.fft.rfft(field, axis=1)
    for im, m in enumerate(s._m):
        modes[:, im] = scipy.linalg.expm(kappa * s._mode_operator(int(m))) @ modes[:, im]
    return np.fft.irfft(modes, n=s.n_phi, axis=1)


def test_sphere_heat_step_eigenbasis_bounded():
    s = Sphere2(sine_radius(0.1, 3.0), n_theta=8, n_phi=16, horizon=1.0)
    field = np.random.default_rng(5).standard_normal((8, 16, 3))
    before = _held_nbytes(s)
    s.heat_semigroup_step(0.0, 0.01, field)
    after_one = _held_nbytes(s)
    assert after_one > before          # the eigenbasis is built by the first step, not before
    for k in range(40):   # 40 distinct kappas
        out = s.heat_semigroup_step(k / 40.0, 0.01, field)
        np.testing.assert_allclose(out, _dense_heat_step(s, k / 40.0, 0.01, field),
                                   rtol=0, atol=1e-12)
    assert _held_nbytes(s) == after_one
    # the eigenbasis owns exactly the documented 2 n_modes n_theta^2 (+ n_modes n_theta) doubles,
    # not views that keep larger (complex) arrays alive
    n_modes = 16 // 2 + 1
    assert all(a.base is None for a in s._eigenbasis)
    assert sum(a.nbytes for a in s._eigenbasis) == 8 * (2 * n_modes * 8 ** 2 + n_modes * 8)
    np.testing.assert_array_equal(s.heat_semigroup_step(0.3, 0.01, field),
                                  s.heat_semigroup_step(0.3, 0.01, field))
    f = s.grid_points()[..., 2]
    out = s.heat_semigroup_step(0.0, 0.01, f)
    np.testing.assert_allclose(out, f * np.exp(-time_change(s.profile, 0.0, 0.01)),
                               atol=1e-5)


@pytest.mark.parametrize("block,found", [
    # eigenvalues -1 +- i
    (np.array([[-1.0, 1.0], [-1.0, -1.0]]), "(largest real part -1, imaginary 1)"),
    # a positive eigenvalue
    (np.array([[1.0, 0.0], [0.0, -1.0]]), "(largest real part 1, imaginary 0)"),
    # eigenvalues -1 and -1 - 1e-12 pass; their nearly parallel eigenvectors do not
    (np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-12]]), "(largest real part -1, imaginary 0)"),
])
def test_sphere_eigenbasis_guard_names_grid_and_mode(monkeypatch, block, found):
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    mode_operator = Sphere2._mode_operator

    def patched(self, m):
        return np.kron(np.eye(4), block) if m == 3 else mode_operator(self, m)

    monkeypatch.setattr(Sphere2, "_mode_operator", patched)
    for _ in range(2):   # a failed build is not kept
        with pytest.raises(HmflowError) as err:
            s.heat_semigroup_step(0.0, 0.01, s.grid_points()[..., 2])
        assert "n_theta=8, n_phi=16" in str(err.value) and "m = 3" in str(err.value)
        assert found in str(err.value)
