import numpy as np
import pytest

from hmflow.errors import PointNotOnManifold, PointOutsideTube
from hmflow.targets import (FlatSpace, UnitSphere, fit_g_inequality_constant,
                            sff_finite_difference)


def sphere_tangent_basis(p):
    """Orthonormal tangent basis at p on S^2 from the colatitude/longitude chart."""
    theta = np.arccos(np.clip(p[2], -1, 1))
    phi = np.arctan2(p[1], p[0])
    e_th = np.array([np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi),
                     -np.sin(theta)])
    e_ph = np.array([-np.sin(phi), np.cos(phi), 0.0])
    return e_th, e_ph


def random_sphere_points(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n, dim + 1))
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


def test_only_circle_and_two_sphere_targets():
    with pytest.raises(ValueError, match=r"only S\^1 and S\^2 targets are built in"):
        UnitSphere(3)


# ---------------------------------------------------------------------------
# nearest point / distance
# ---------------------------------------------------------------------------

def test_nearest_point_radial_projection():
    s2 = UnitSphere(2)
    np.testing.assert_allclose(s2.nearest_point(np.array([1.1, 0.0, 0.0])),
                               [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(s2.nearest_point(np.array([0.0, 0.0, 1.0])),
                               [0.0, 0.0, 1.0], atol=1e-15)
    s1 = UnitSphere(1)
    np.testing.assert_allclose(s1.nearest_point(1.1 * np.array([0.6, 0.8])),
                               [0.6, 0.8], atol=1e-14)


def test_nearest_point_outside_tube_raises():
    s2 = UnitSphere(2)
    with pytest.raises(PointOutsideTube):
        s2.nearest_point(np.array([2.0, 0.0, 0.0]))
    # boundary is strict
    with pytest.raises(PointOutsideTube):
        s2.nearest_point(np.array([1.6, 0.0, 0.0]))


def test_distance():
    s2 = UnitSphere(2)
    assert s2.distance(np.array([2.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert s2.distance(np.array([0.0, 1.0, 0.0])) == 0.0
    s1 = UnitSphere(1)
    assert s1.distance(np.array([0.0, 0.0])) == pytest.approx(1.0)



@pytest.mark.parametrize("dim", [1, 2])
def test_distance_equals_numpy_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    p = rng.standard_normal((35, 24, 48, dim + 1)) * rng.choice([1e-8, 1.0, 1e8], (35, 24, 48, 1))
    p[0, 0] = -0.0
    s = UnitSphere(dim)
    for q in (p, np.swapaxes(p, 1, 2), p[0, 0, 0]):
        assert s.distance(q).tobytes() == np.abs(np.linalg.norm(q, axis=-1) - 1.0).tobytes()

def test_projection_idempotent():
    s2 = UnitSphere(2)
    rng = np.random.default_rng(3)
    p = random_sphere_points(200, 5) * rng.uniform(0.5, 1.5, (200, 1))
    q = s2.nearest_point(p)
    np.testing.assert_allclose(s2.nearest_point(q), q, atol=1e-12)


def test_projection_orthogonality():
    s2 = UnitSphere(2)
    rng = np.random.default_rng(11)
    p = random_sphere_points(200, 7) * rng.uniform(0.6, 1.4, (200, 1))
    q = s2.nearest_point(p)
    for pi, qi in zip(p, q):
        e_th, e_ph = sphere_tangent_basis(qi)
        res = pi - qi
        assert abs(res @ e_th) < 1e-8
        assert abs(res @ e_ph) < 1e-8


# ---------------------------------------------------------------------------
# second fundamental form
# ---------------------------------------------------------------------------

def test_sff_hand_values():
    s2 = UnitSphere(2)
    p = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(s2.second_fundamental_form(p, u, u),
                               [0.0, 0.0, -1.0], atol=1e-14)
    p = np.array([1.0, 0.0, 0.0])
    u = np.array([0.0, 2.0, 0.0])
    np.testing.assert_allclose(s2.second_fundamental_form(p, u, u),
                               [-4.0, 0.0, 0.0], atol=1e-14)


def test_sff_zero_vector_bilinearity():
    s2 = UnitSphere(2)
    p = np.array([0.0, 1.0, 0.0])
    out = s2.second_fundamental_form(p, np.zeros(3), np.array([0.3, 0.0, 0.4]))
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_sff_requires_on_manifold_point():
    s2 = UnitSphere(2)
    with pytest.raises(PointNotOnManifold):
        s2.second_fundamental_form(np.array([1.01, 0.0, 0.0]),
                                   np.array([0.0, 1.0, 0.0]),
                                   np.array([0.0, 1.0, 0.0]))


def test_sff_projects_inputs_tangent():
    # a normal component in u must not change the value
    s2 = UnitSphere(2)
    p = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    u_skew = u + 0.7 * p
    np.testing.assert_allclose(s2.second_fundamental_form(p, u_skew, u_skew),
                               s2.second_fundamental_form(p, u, u), atol=1e-14)


def test_sff_sphere_closed_form_random_pairs():
    s2 = UnitSphere(2)
    rng = np.random.default_rng(23)
    p = random_sphere_points(500, 29)
    u = rng.standard_normal((500, 3))
    v = rng.standard_normal((500, 3))
    ut = u - np.sum(u * p, -1, keepdims=True) * p
    vt = v - np.sum(v * p, -1, keepdims=True) * p
    gamma = s2.second_fundamental_form(p, ut, vt)
    np.testing.assert_allclose(
        gamma + np.sum(ut * vt, -1, keepdims=True) * p, 0.0, atol=1e-8)


def test_sff_normal_valued():
    s2 = UnitSphere(2)
    p = random_sphere_points(100, 31)
    rng = np.random.default_rng(37)
    u = rng.standard_normal((100, 3))
    gamma = s2.second_fundamental_form(p, u, u)
    for pi, gi in zip(p, gamma):
        e_th, e_ph = sphere_tangent_basis(pi)
        assert abs(gi @ e_th) < 1e-8
        assert abs(gi @ e_ph) < 1e-8


def test_sff_finite_difference_oracle():
    # independent path: numerical Hessian of the nearest-point map
    for dim in (1, 2):
        sph = UnitSphere(dim)
        rng = np.random.default_rng(41 + dim)
        p = random_sphere_points(20, 43 + dim, dim=dim)
        u = rng.standard_normal((20, dim + 1))
        u = u - np.sum(u * p, -1, keepdims=True) * p
        fd = np.array([sff_finite_difference(sph, pi, ui) for pi, ui in zip(p, u)])
        np.testing.assert_allclose(fd, sph.second_fundamental_form(p, u, u),
                                   atol=1e-6)


def test_sff_finite_difference_polarization():
    s2 = UnitSphere(2)
    p = np.array([0.0, 0.0, 1.0])
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    fd = sff_finite_difference(s2, p, u, v)
    np.testing.assert_allclose(fd, s2.second_fundamental_form(p, u, v), atol=1e-6)


# ---------------------------------------------------------------------------
# extension and cutoff
# ---------------------------------------------------------------------------

def test_extended_sff_support():
    s2 = UnitSphere(2)
    u = np.array([1.0, 0.0, 0.0])
    # dist 0.5 > 2 delta: outside the support
    np.testing.assert_allclose(
        s2.extended_sff(np.array([0.0, 0.0, 1.5]), u), 0.0, atol=1e-15)
    # dist 0.05 < delta: full cutoff, equals the form at the projected point
    np.testing.assert_allclose(
        s2.extended_sff(np.array([0.0, 0.0, 1.05]), u), [0.0, 0.0, -1.0],
        atol=1e-13)


def test_extended_sff_matches_sff_on_manifold():
    s2 = UnitSphere(2)
    p = random_sphere_points(100, 51)
    rng = np.random.default_rng(53)
    u = rng.standard_normal((100, 3))
    ut = u - np.sum(u * p, -1, keepdims=True) * p
    np.testing.assert_allclose(s2.extended_sff(p, ut),
                               s2.second_fundamental_form(p, ut, ut), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_sff_trace_matches_finite_difference_oracle(dim, m):
    # independent path: cutoff(dist(p)) * sum_a of the numerical Hessian of the
    # nearest-point map at P(p), along ambient (not tangent) frame vectors
    sph = UnitSphere(dim)
    delta = sph.tube_radius
    rng = np.random.default_rng(71 + 2 * dim + m)
    q = random_sphere_points(12, 73 + dim, dim=dim)
    side = np.where(np.arange(12) % 2, 1.0, -1.0)
    dist = np.concatenate([rng.uniform(0.0, 0.95, 6), rng.uniform(1.05, 1.95, 6)]) * delta
    p = q * (1.0 + side * dist)[:, None]
    phi = sph.cutoff(sph.distance(p))
    assert np.all(phi[:6] == 1.0) and np.all((phi[6:] > 0.0) & (phi[6:] < 1.0))
    z = rng.standard_normal((12, m, dim + 1))
    oracle = np.array([
        phi_i * sum(sff_finite_difference(sph, sph.nearest_point(p_i), z_a) for z_a in z_i)
        for phi_i, p_i, z_i in zip(phi, p, z)])
    np.testing.assert_allclose(sph.sff_trace(p, z), oracle, atol=1e-6)


def test_sff_trace_positive_zero_off_support():
    for dim in (1, 2):
        sph = UnitSphere(dim)
        rng = np.random.default_rng(79 + dim)
        q = random_sphere_points(8, 83 + dim, dim=dim)
        # beyond 2 delta outside and inside the sphere, and the origin
        dist = rng.uniform(2.05, 4.0, 8) * sph.tube_radius
        radius = np.where(np.arange(8) % 2, 1.0 + dist, 1.0 - dist)
        p = np.concatenate([q * radius[:, None], np.zeros((1, dim + 1))])
        assert np.all(sph.cutoff(sph.distance(p)) == 0.0)
        out = sph.sff_trace(p, rng.standard_normal((9, 2, dim + 1)))
        assert out.shape == (9, dim + 1)
        assert np.all(out == 0.0) and not np.any(np.signbit(out))


def _sff_trace_with_cutoff(target, p, z):
    """The closed-form trace with the cut-off blend always applied."""
    r = np.linalg.norm(p, axis=-1, keepdims=True)
    phi = target.cutoff(np.abs(r - 1.0))
    q = p / np.where(r > 0.0, r, 1.0)
    a = np.einsum("...ml,...l->...m", z, q)
    az = np.einsum("...m,...ml->...l", a, z)
    a2 = np.einsum("...m,...m->...", a, a)[..., None]
    z2 = np.einsum("...ml,...ml->...", z, z)[..., None]
    return np.where(phi > 0.0, phi * (-2.0 * az + (3.0 * a2 - z2) * q), 0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("spread", [0.19, 0.3, 0.5],
                         ids=["inside_tube", "into_blend_zone", "past_blend_zone"])
def test_sff_trace_cutoff_skip_is_exact(dim, spread):
    # inside tube_radius the cut-off is exactly 1, and the trace skips it
    sph = UnitSphere(dim)
    rng = np.random.default_rng(12)
    p = rng.standard_normal((200, dim + 1))
    p *= rng.uniform(1.0 - spread, 1.0 + spread, (200, 1)) / np.linalg.norm(p, axis=-1,
                                                                            keepdims=True)
    z = rng.standard_normal((200, dim, dim + 1))
    z[rng.random(z.shape) < 0.2] = -0.0
    got = sph.sff_trace(p, z)
    want = _sff_trace_with_cutoff(sph, p, z)
    # one far point sends the whole batch through the cut-off blend
    blended = sph.sff_trace(np.concatenate([p, [[2.0] + [0.0] * dim]]),
                            np.concatenate([z, np.ones((1, dim, dim + 1))]))[:-1]
    for other in (want, blended):
        np.testing.assert_array_equal(got, other)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(other))


def test_flat_space_has_no_curvature():
    fl = FlatSpace(2)
    p = np.array([[3.0, -1.0], [0.1, 0.2]])
    u = np.array([[1.0, 1.0], [2.0, 0.0]])
    np.testing.assert_allclose(fl.extended_sff(p, u), 0.0)
    # frame stacks (..., m, L) trace to (..., L)
    out = FlatSpace(3).sff_trace(np.ones((4, 5, 3)), np.ones((4, 5, 2, 3)))
    assert out.shape == (4, 5, 3) and np.all(out == 0.0)
    assert FlatSpace(3).sff_trace(np.zeros(3), np.ones((7, 1, 3))).shape == (7, 3)
    np.testing.assert_allclose(fl.distance(p), 0.0)
    np.testing.assert_allclose(fl.g_value(p), 0.0)


def test_cutoff_profile():
    s2 = UnitSphere(2)
    d = s2.tube_radius
    assert s2.cutoff(0.0) == 1.0
    assert s2.cutoff(3 * d) == 0.0
    mid = s2.cutoff(1.5 * d)
    assert 0.0 < mid < 1.0
    grid = np.linspace(0.0, 3 * d, 400)
    vals = s2.cutoff(grid)
    assert np.all(np.diff(vals) <= 1e-15)
    # exact outside the blend zone
    assert np.all(vals[grid < d] == 1.0)
    assert np.all(vals[grid > 2 * d] == 0.0)


# ---------------------------------------------------------------------------
# truncated squared distance
# ---------------------------------------------------------------------------

def test_g_values():
    s2 = UnitSphere(2)
    d = s2.tube_radius
    assert s2.g_value(np.array([0.0, 0.0, 1.1])) == pytest.approx(0.01)
    assert s2.g_value(np.array([0.0, 1.0, 0.0])) == 0.0
    # plateau beyond 2 delta
    assert s2.g_value(np.array([0.0, 0.0, 2.0])) == pytest.approx(4 * d ** 2)
    assert s2.g_value(np.zeros(3)) == pytest.approx(4 * d ** 2)
    # lower bound outside the delta tube
    rng = np.random.default_rng(61)
    p = rng.uniform(-1.6, 1.6, (500, 3))
    outside = s2.distance(p) > d
    assert np.all(s2.g_value(p[outside]) >= d ** 2 - 1e-14)


def test_g_gradient():
    s2 = UnitSphere(2)
    p = np.array([0.0, 0.0, 1.1])
    assert s2.g_value(p) == pytest.approx(0.01)
    np.testing.assert_allclose(s2.g_gradient(p), [0.0, 0.0, 0.2], atol=1e-14)
    # inside the delta tube G is the squared distance: Hess G(e_r, e_r) = 2
    assert s2.g_hessian_quad(p, np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0)
    # on the target: both vanish
    on = np.array([1.0, 0.0, 0.0])
    assert s2.g_value(on) == 0.0
    np.testing.assert_allclose(s2.g_gradient(on), 0.0, atol=1e-15)


def test_g_gradient_finite_difference():
    s2 = UnitSphere(2)
    rng = np.random.default_rng(67)
    pts = rng.uniform(-1.5, 1.5, (50, 3))
    h = 1e-6
    for p in pts:
        grad = s2.g_gradient(p)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (s2.g_value(p + e) - s2.g_value(p - e)) / (2 * h)
            assert abs(fd - grad[i]) < 5e-9 * max(1.0, abs(fd))


def test_g_hessian_richardson_consistency():
    s2 = UnitSphere(2)
    rng = np.random.default_rng(71)
    pts = rng.uniform(-1.4, 1.4, (30, 3))
    dirs = rng.standard_normal((30, 3))
    for p, u in zip(pts, dirs):
        # skip the blend-edge kinks of chi where G is only C^2
        s = s2.distance(p) ** 2
        if min(abs(s - s2.tube_radius ** 2), abs(s - 4 * s2.tube_radius ** 2)) < 1e-2:
            continue
        quad = s2.g_hessian_quad(p, u)

        def central(h):
            return (s2.g_value(p + h * u) - 2 * s2.g_value(p)
                    + s2.g_value(p - h * u)) / h ** 2

        rich = (4 * central(5e-4) - central(1e-3)) / 3.0
        assert abs(rich - quad) < 1e-6 * max(1.0, abs(quad))


def test_g_inequality_fit_has_no_violation_at_2c():
    s2 = UnitSphere(2)
    c_fit, margin = fit_g_inequality_constant(s2, n_samples=10_000, seed=5)
    assert np.isfinite(c_fit) and c_fit >= 0.0
    assert margin >= -1e-12


def test_g_inequality_circle_target():
    s1 = UnitSphere(1)
    c_fit, margin = fit_g_inequality_constant(s1, n_samples=10_000, seed=9)
    assert margin >= -1e-12

