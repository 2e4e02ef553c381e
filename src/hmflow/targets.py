"""Compact target manifolds embedded in Euclidean space.

The closed-form families here back every curvature evaluation in the
backward dynamics: nearest-point projection, second fundamental form, one
curvature kernel per target (`sff_trace`: the cut-off extended form traced
over a stack of frame vectors, with `extended_sff` as its one-vector case),
and the truncated squared distance function used by the stay-on-target
verification.

All point operations are vectorized: a "point" argument of shape
(..., ambient_dim) is processed elementwise over the leading axes.
"""

from __future__ import annotations

import numpy as np

from ._linalg import row_dot
from .errors import PointNotOnManifold, PointOutsideTube

_ON_MANIFOLD_TOL = 1e-10


def smoothstep(x):
    """Quintic smooth step: 0 for x<=0, 1 for x>=1, C^2 monotone in between."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def _chi_blend(tau):
    """C^2 quintic Hermite blend q with q(0)=0, q'(0)=1, q''(0)=0, q(1)=1, q'(1)=q''(1)=0.

    Nondecreasing on [0,1]; q'(tau) = 1 + 12 tau^2 - 28 tau^3 + 15 tau^4 vanishes
    only at tau = 1.
    """
    return tau * (1.0 + tau * tau * (4.0 + tau * (-7.0 + 3.0 * tau)))


def _chi_blend_d1(tau):
    return 1.0 + tau * tau * (12.0 + tau * (-28.0 + 15.0 * tau))


def _chi_blend_d2(tau):
    return tau * (24.0 + tau * (-84.0 + 60.0 * tau))


class TargetManifold:
    """Common interface of the embedded targets.

    Every family implements distance and the curvature kernel sff_trace in
    closed form; the extension machinery (cutoff, extended form, truncated
    squared distance) is shared where it only depends on those.  The curved
    family, UnitSphere, adds the nearest-point projection, tangent
    projection, second fundamental form and the derivatives of G, which the
    finite-difference and G-inequality oracles below call.
    """

    ambient_dim: int
    tube_radius: float

    # -- cut-off profile ------------------------------------------------

    def cutoff(self, s):
        """Cut-off profile in the tube distance: 1 below delta, 0 above 2*delta.

        Realized as a reversed quintic smooth step in (s - delta)/delta: C^2,
        nonincreasing and exactly 1 / 0 outside the blend zone.
        """
        d = self.tube_radius
        return 1.0 - smoothstep((np.asarray(s, dtype=float) - d) / d)

    # -- truncated squared distance --------------------------------------

    def _blend_zone(self, s):
        """(s as floats, lo, hi, tau): the zone [delta^2, 4 delta^2] and s's place in it."""
        lo = self.tube_radius ** 2
        hi = 4.0 * lo
        s = np.asarray(s, dtype=float)
        return s, lo, hi, np.clip((s - lo) / (hi - lo), 0.0, 1.0)

    def _chi(self, s):
        """Truncation of the squared distance: identity below delta^2, plateau 4*delta^2."""
        s, lo, hi, tau = self._blend_zone(s)
        return np.where(s <= lo, s, np.where(s >= hi, hi, lo + (hi - lo) * _chi_blend(tau)))

    def _chi_d1(self, s):
        s, lo, hi, tau = self._blend_zone(s)
        return np.where(s <= lo, 1.0, np.where(s >= hi, 0.0, _chi_blend_d1(tau)))

    def _chi_d2(self, s):
        s, lo, hi, tau = self._blend_zone(s)
        return np.where((s <= lo) | (s >= hi), 0.0, _chi_blend_d2(tau) / (hi - lo))

    def extended_sff(self, p, u):
        """Cut-off extension of the second fundamental form along one ambient u.

        The one-vector case of `sff_trace`: cutoff(dist) * H_{P(p)}(u, u)
        inside the 2*delta tube, 0 outside.
        """
        p, u = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(u, dtype=float))
        return self.sff_trace(p, u[..., None, :])

    def g_value(self, p):
        """Truncated squared distance G(p) = chi(dist^2)."""
        return self._chi(self.distance(p) ** 2)


class UnitSphere(TargetManifold):
    """Unit sphere S^d in R^(d+1), d in {1, 2}.

    Reach is 1, so the default tube radius 0.2 keeps 3*delta = 0.6 well
    inside the region where the nearest-point projection is smooth.
    """

    def __init__(self, dim: int, tube_radius: float = 0.2):
        if dim not in (1, 2):
            raise ValueError("only S^1 and S^2 targets are built in")
        if not 0.0 < 3.0 * tube_radius < 1.0:
            raise ValueError("3*tube_radius must stay below the reach (= 1)")
        self.dim = dim
        self.ambient_dim = dim + 1
        self.tube_radius = float(tube_radius)

    def __repr__(self):
        return f"UnitSphere(dim={self.dim}, tube_radius={self.tube_radius})"

    # -- metric primitives ------------------------------------------------

    def distance(self, p):
        """Euclidean distance from p to the sphere: | |p| - 1 |."""
        p = np.asarray(p, dtype=float)
        return np.abs(np.sqrt(row_dot(p, p)) - 1.0)   # np.linalg.norm, bit for bit

    def nearest_point(self, p):
        """Radial projection p/|p|; only defined strictly inside the 3*delta tube."""
        p = np.asarray(p, dtype=float)
        dist = self.distance(p)
        if np.any(dist >= 3.0 * self.tube_radius):
            raise PointOutsideTube(
                f"point at distance {float(np.max(dist)):.6g} >= "
                f"{3.0 * self.tube_radius:.6g} from the target")
        return p / np.linalg.norm(p, axis=-1, keepdims=True)

    def project_tangent(self, q, u):
        """Tangential part of u at q: u - <u,q> q."""
        q = np.asarray(q, dtype=float)
        u = np.asarray(u, dtype=float)
        return u - np.sum(u * q, axis=-1, keepdims=True) * q

    # -- curvature ---------------------------------------------------------

    def second_fundamental_form(self, p, u, v):
        """Second fundamental form at p on the sphere: -<u,v> p after tangent projection.

        p must satisfy the on-manifold tolerance; u, v are forced tangent by
        projecting through the tangent projector first, so arbitrary ambient
        vectors are accepted.
        """
        p = np.asarray(p, dtype=float)
        if np.any(self.distance(p) > _ON_MANIFOLD_TOL):
            raise PointNotOnManifold(
                f"max distance {float(np.max(self.distance(p))):.3g} exceeds "
                f"{_ON_MANIFOLD_TOL:g}")
        ut = self.project_tangent(p, u)
        vt = self.project_tangent(p, v)
        return -np.sum(ut * vt, axis=-1, keepdims=True) * p

    def sff_trace(self, p, z):
        """Trace of the cut-off extended form over a frame stack z, (..., m, L).

        Equals cutoff(dist) * sum_a H_q(z_a, z_a) with q = p/|p| and H_q the
        full ambient Hessian of the radial projection,

            sum_a H_q(z_a, z_a) = -2 sum_a <z_a,q> z_a
                                  + (3 sum_a <z_a,q>^2 - sum_a |z_a|^2) q,

        for arbitrary ambient z_a; tangent z_a recover -sum_a |z_a|^2 q.  The
        result is exactly +0.0 wherever the cut-off vanishes, p = 0 included.
        When every p lies within tube_radius of the sphere the cut-off is
        exactly 1, so the trace is returned without it, bit for bit the same.
        """
        p = np.asarray(p, dtype=float)
        z = np.asarray(z, dtype=float)
        r = np.sqrt(row_dot(p, p))[..., None]   # np.linalg.norm, bit for bit
        dist = np.abs(r - 1.0)
        inside = dist.max(initial=0.0) <= self.tube_radius
        # the cut-off is positive only where dist < 2*delta < 1: r = 0 only where the result is 0
        q = p / (r if inside else np.where(r > 0.0, r, 1.0))
        a = np.einsum("...ml,...l->...m", z, q)
        az = np.einsum("...m,...ml->...l", a, z)
        a2 = np.einsum("...m,...m->...", a, a)[..., None]
        z2 = np.einsum("...ml,...ml->...", z, z)[..., None]
        trace = -2.0 * az + (3.0 * a2 - z2) * q
        if inside:
            return trace
        phi = self.cutoff(dist)
        return np.where(phi > 0.0, phi * trace, 0.0)

    # -- truncated squared distance: sphere closed forms --------------------

    def g_gradient(self, p):
        """Ambient gradient of G: 2 chi'(dist^2) (p - P(p)), with P the radial projection."""
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        d2 = (r[..., 0] - 1.0) ** 2
        c1 = self._chi_d1(d2)[..., None]
        # where chi' = 0 the gradient vanishes, including at the origin where
        # p/|p| is undefined
        safe_r = np.where(r > 0.0, r, 1.0)
        radial = p - p / safe_r
        return np.where(c1 > 0.0, 2.0 * c1 * radial, 0.0)

    def g_hessian_quad(self, p, u):
        """Hessian quadratic form of G along u.

        Chain rule through chi: with s = dist^2,
        Hess G (u,u) = chi''(s) <grad s, u>^2 + chi'(s) Hess s (u,u),
        and for the sphere Hess s (u,u) = 2[ <p^,u>^2 + (r-1)/r (|u|^2 - <p^,u>^2) ].
        """
        p = np.asarray(p, dtype=float)
        u = np.asarray(u, dtype=float)
        p, u = np.broadcast_arrays(p, u)
        r = np.linalg.norm(p, axis=-1)
        s = (r - 1.0) ** 2
        c1 = self._chi_d1(s)
        c2 = self._chi_d2(s)
        out = np.zeros(r.shape, dtype=float)
        active = (c1 > 0.0) | (c2 != 0.0)
        if np.any(active):
            pa, ua = p[active], u[active]
            ra = r[active]
            phat = pa / ra[..., None]
            pu = np.sum(phat * ua, axis=-1)
            u2 = np.sum(ua * ua, axis=-1)
            grad_s_u = 2.0 * (ra - 1.0) * pu
            hess_s = 2.0 * (pu ** 2 + (ra - 1.0) / ra * (u2 - pu ** 2))
            out[active] = c2[active] * grad_s_u ** 2 + c1[active] * hess_s
        return out


class FlatSpace(TargetManifold):
    """Flat target: the ambient space itself, with vanishing curvature.

    Used for the flat-target override: the backward driver vanishes
    identically and the dynamics reduce to the plain Feynman-Kac heat
    semigroup, which is where the exact linear oracles live.
    """

    def __init__(self, ambient_dim: int):
        self.ambient_dim = int(ambient_dim)
        self.tube_radius = np.inf

    def __repr__(self):
        return f"FlatSpace(ambient_dim={self.ambient_dim})"

    def distance(self, p):
        p = np.asarray(p, dtype=float)
        return np.zeros(p.shape[:-1], dtype=float)

    def sff_trace(self, p, z):
        z_shape = np.shape(z)
        return np.zeros(np.broadcast_shapes(np.shape(p), z_shape[:-2] + z_shape[-1:]))

    def g_value(self, p):
        # G = dist^2 = 0; the shared chi reaches it only past a NaN blend at tube_radius = inf
        return self.distance(p) ** 2


def sff_trace(target, base_points, frame_vectors):
    """Curvature term of the flow equation: target.sff_trace over the frame axis.

    base_points: (..., L2); frame_vectors: (..., m, L2) gradient components
    in an orthonormal tangent frame.  Returns shape (..., L2).
    """
    # bsde and verify call through this module attribute so perfbench/spans.py can trace it
    return target.sff_trace(base_points, frame_vectors)


def sff_finite_difference(target, p, u, v=None, step: float = 1e-4):
    """Second fundamental form via central differences of the nearest-point map.

    Independent cross-check of the closed-form curvature: contracts the
    numerical Hessian of target.nearest_point with u (x) v.  For u != v the
    polarization identity is used.  Richardson extrapolation combines steps
    h and h/2 to cancel the leading O(h^2) term.
    """
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if v is None:
        v = u
    v = np.asarray(v, dtype=float)

    def quad(direction, h):
        return (target.nearest_point(p + h * direction)
                - 2.0 * target.nearest_point(p)
                + target.nearest_point(p - h * direction)) / h ** 2

    def bilinear(h):
        if v is u or np.array_equal(u, v):
            return quad(u, h)
        return 0.25 * (quad(u + v, h) - quad(u - v, h))

    return (4.0 * bilinear(step / 2.0) - bilinear(step)) / 3.0


def fit_g_inequality_constant(target, n_samples: int = 10_000, seed: int = 0):
    """Empirical constant in the lower bound for the truncated squared distance.

    Samples ambient pairs (p, u), p in the box [-1.6, 1.6]^L around the
    target and |u| <= 1, and fits the smallest c with

        Hess G(p)(u,u) + <grad G(p), extended_sff(p)(u,u)>  >=  -c G(p) (1 + |u|^2)

    over the sample.  Returns (c_fit, worst_margin_at_2c) where the margin is
    min over samples of lhs + 2*c_fit*G*(1+|u|^2); a nonnegative margin means
    no sampled pair violates the bound once c is doubled.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    L = target.ambient_dim
    p = rng.uniform(-1.6, 1.6, size=(n_samples, L))
    u = rng.standard_normal((n_samples, L))
    u *= rng.uniform(0.0, 1.0, size=(n_samples, 1)) ** (1.0 / L) \
        / np.linalg.norm(u, axis=-1, keepdims=True)

    g = target.g_value(p)
    grad = target.g_gradient(p)
    gamma = target.extended_sff(p, u)
    lhs = target.g_hessian_quad(p, u) + np.sum(grad * gamma, axis=-1)
    scale = g * (1.0 + np.sum(u * u, axis=-1))

    neg = lhs < -1e-12
    if not np.any(neg):
        c_fit = 0.0
    else:
        # where lhs < 0, G must be positive for any finite c to exist
        if np.any(scale[neg] <= 0.0):
            raise AssertionError("negative left side at zero G: bound cannot hold")
        c_fit = float(np.max(-lhs[neg] / scale[neg]))
    margin = float(np.min(lhs + 2.0 * c_fit * scale))
    return c_fit, margin
