"""Source manifolds with a time-dependent metric.

Two closed-form families are built in: the circle and the 2-sphere, each
with a prescribed time-varying radius.  Both expose the same surface: a
chart grid, intrinsic gradient/Laplacian on grid fields, quadrature
weights, one-step conditional-expectation kernels for the backward
dynamics, the path integrator step for the forward diffusion, and a
deterministic one-step probe of that integrator's law.

Grid fields are numpy arrays of shape ``grid_shape + value_shape``:
``(n,)``-leading for the circle, ``(n_theta, n_phi)``-leading for the
sphere, with an optional trailing value axis for vector-valued maps.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._linalg import row_dot
from .errors import GridTooCoarse, HmflowError, ShapeMismatch, TimeOutOfRange
from .forward import time_change

_TIME_SLACK = 1e-12
# 6th-order central colatitude stencils: h d/dtheta and h^2 d^2/dtheta^2 on 7 rows
_D1_STENCIL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_D2_STENCIL = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_POLE_GHOSTS = len(_D1_STENCIL) // 2   # ghost rows beyond each pole
_STENCIL_BLOCK_ROWS = 32   # most colatitude rows per block of the stencil matrices
_DENSE_PHI_MAX = 96        # most longitudes differentiated by a dense matrix, not FFTs
_EIG_ROUNDING = 1e-10   # eigenvalue / spectral radius above this is not "<= 0"
_EIG_MAX_COND = 1e6     # 1-norm cond(V) above this lets a step's rounding pass ~1e-10
_PROBE_QUAD_NODES = 60  # Gauss-Hermite nodes per ambient axis of the weak-error probe
_MC_CHUNK_POINTS = 1 << 18  # node x path points per chunk of the sphere's Monte Carlo step
_PHASE_BLOCK = 12           # low powers per block of the circle's phase tables
_PHASE_CHUNK = 1 << 9       # angles per chunk of the circle's phase-table kernels


class RadiusProfile:
    """Smooth positive radius as a function of time, with derivative."""

    def __init__(self, value_fn, deriv_fn, label: str):
        self._value = value_fn
        self._deriv = deriv_fn
        self.label = label

    def __call__(self, t):
        return self._value(np.asarray(t, dtype=float))

    def derivative(self, t):
        return self._deriv(np.asarray(t, dtype=float))

    def __repr__(self):
        return f"RadiusProfile({self.label})"


def constant_radius(r: float = 1.0) -> RadiusProfile:
    r = float(r)
    return RadiusProfile(lambda t: np.full_like(t, r, dtype=float),
                         lambda t: np.zeros_like(t, dtype=float),
                         f"constant {r:g}")


def sine_radius(a: float = 0.2, b: float = 1.0) -> RadiusProfile:
    """rho(t) = 1 + a sin(b t)."""
    a, b = float(a), float(b)
    return RadiusProfile(lambda t: 1.0 + a * np.sin(b * t),
                         lambda t: a * b * np.cos(b * t),
                         f"1 + {a:g} sin({b:g} t)")


def shrinking_radius() -> RadiusProfile:
    """rho(t) = sqrt(1 - 2t): the round shrinking solution for the 2-sphere."""
    return RadiusProfile(lambda t: np.sqrt(np.maximum(1.0 - 2.0 * t, 0.0)),
                         lambda t: -1.0 / np.sqrt(np.maximum(1.0 - 2.0 * t, 1e-300)),
                         "sqrt(1 - 2t)")


class SourceManifold:
    """Shared behaviour of the closed-form source families.

    Each family declares its chart: `point_shape` is the shape of one chart
    point, `chart_columns` names its coordinates, and `moment_label` names
    the observable of `first_harmonic`.  Callers use these and the family
    methods instead of asking which family they hold.
    """

    dim: int
    ambient_dim: int
    point_shape: tuple
    chart_columns: tuple
    moment_label: str
    _cells: np.ndarray      # quadrature cell sizes at unit radius

    def __init__(self, profile: RadiusProfile, horizon: float):
        """Check the family's grid, which it sets before this call, and the radius profile."""
        self.profile = profile
        self.horizon = float(horizon)
        if min(self.grid_shape) < 8:
            raise GridTooCoarse(f"{self!r} needs at least 8 nodes per grid dimension")
        tgrid = np.linspace(0.0, self.horizon, 2001)
        rho = profile(tgrid)
        if np.min(rho) <= 0.0 or not np.all(np.isfinite(profile.derivative(tgrid))):
            raise ValueError("radius profile must stay positive with bounded "
                             "derivative on [0, horizon]")

    def _check_time(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -_TIME_SLACK) or np.any(t > self.horizon + _TIME_SLACK):
            raise TimeOutOfRange(
                f"t={t!r} outside metric definition interval [0, {self.horizon}]")

    def _check_step(self, t, dt):
        """`_check_time` of both ends of a one-step operator's step, whose radius it reads."""
        self._check_time([t, t + dt])

    @property
    def n_nodes(self) -> int:
        return math.prod(self.grid_shape)

    def _require_grid(self, field, lead: int = 0):
        """Raise ShapeMismatch unless the axes of field after `lead` start with the grid."""
        shape = field.shape[lead:lead + len(self.grid_shape)]
        if shape != self.grid_shape:
            raise ShapeMismatch(f"field shape {shape} does not match grid {self.grid_shape}")

    def _grid_field(self, field):
        """field as floats, after `_require_grid`: the front of each one-step operator."""
        field = np.asarray(field, dtype=float)
        self._require_grid(field)
        return field

    def _slices(self, t, field):
        """(field as floats with a leading slice axis, rho per slice) for the calculus.

        t is one time, or a 1-D array of slice times with field carrying a
        matching leading axis; one time is a block of one slice.  A block of
        one slice, leading axis 1, also goes with several times: it is that
        slice at each of them, differentiated once and scaled by each rho,
        since the calculus is linear in the field with rho a factor.  rho is
        float(profile(s)) slice by slice, the value a one-slice call reads,
        so a block's slices are bit-equal to their one-slice calls; it is
        shaped to broadcast over the block.
        """
        times = np.asarray(t, dtype=float)
        self._check_time(times)
        block = np.asarray(field, dtype=float)
        if times.ndim == 0:
            times, block = times[None], block[None]
        elif times.ndim != 1 or block.shape[:1] not in (times.shape, (1,)):
            raise ShapeMismatch(f"{times.shape} slice times for a field block of shape "
                                f"{block.shape}")
        self._require_grid(block, lead=1)
        rho = np.array([float(self.profile(s)) for s in times])
        return block, rho.reshape((-1,) + (1,) * (block.ndim - 1))

    @staticmethod
    def _check_path_count(n_paths: int):
        """Raise ValueError unless a one-step Monte Carlo mean has n_paths >= 1 samples."""
        if n_paths < 1:
            raise ValueError(f"a Monte Carlo step needs n_paths >= 1, got {n_paths}")

    def volume_weights(self, t):
        """Quadrature weights: the unit-radius cell sizes times rho(t)^dim."""
        self._check_time(t)
        return float(self.profile(t)) ** self.dim * self._cells

    def volume_weights_dt(self, t):
        """Time derivative of the quadrature weights, from the closed-form rho'."""
        self._check_time(t)
        rho, drho = float(self.profile(t)), float(self.profile.derivative(t))
        return self.dim * rho ** (self.dim - 1) * drho * self._cells

    def min_radius(self, t0: float, t1: float) -> float:
        tgrid = np.linspace(t0, t1, 1001)
        return float(np.min(self.profile(tgrid)))

    def ricci_bound(self) -> float:
        """Supremum over the time grid of the metric-compatibility tensor norm.

        A round family of radius rho has d(g_t)/dt = (2 rho'/rho) g_t and
        Ric_{g_t} = (dim - 1) g_t / rho^2, so the tensor d(g_t)/dt + Ric_{g_t}
        is conformal and its g x g norm is |2 rho'/rho + (dim - 1)/rho^2| *
        sqrt(dim); the sup is taken over 1001 time nodes.
        """
        tgrid = np.linspace(0.0, self.horizon, 1001)
        rho = self.profile(tgrid)
        scalar = 2.0 * self.profile.derivative(tgrid) / rho + (self.dim - 1) / rho ** 2
        return float(np.max(np.abs(scalar)) * np.sqrt(self.dim))

    def generator_residual(self, t, field):
        """Pointwise defect of the sum-of-squares identity for the projection fields.

        Projection field i of the embedding, the tangential part of ambient
        axis e_i, has frame components `frame_increments(points, e_i)`, and
        its derivative of a scalar field is their `row_dot` with
        `frame_gradient`.  Composed twice and summed over the axes, these
        derivatives give the Laplace-Beltrami value, which is subtracted.
        """
        field = np.asarray(field, dtype=float)
        if field.shape != self.grid_shape:
            raise ShapeMismatch(f"generator residual is defined for scalar fields on grid "
                                f"{self.grid_shape}, got shape {field.shape}")
        points = self.grid_points()
        total = np.zeros_like(field)
        for axis in np.eye(self.ambient_dim):
            v = self.frame_increments(points, axis)
            total += row_dot(v, self.frame_gradient(t, row_dot(v, self.frame_gradient(t, field))))
        return total - self.laplace_beltrami(t, field)

    def one_step_means(self, f, t, x, h_list):
        """E[f(X_{t+h})] from the chart point x for each step h in h_list.

        A tensor Gauss-Hermite rule, `_PROBE_QUAD_NODES` nodes per ambient
        axis, integrates over the increment dW ~ N(0, h I), each node pushed
        through `step_paths`.  The step keeps only the tangential part of
        dW, and a tensor rule composed with a linear projection still
        integrates the Gaussian law, so no tangent frame is needed.
        """
        nodes, weights = np.polynomial.hermite.hermgauss(_PROBE_QUAD_NODES)
        idx = np.indices((_PROBE_QUAD_NODES,) * self.ambient_dim).reshape(self.ambient_dim, -1)
        normals = np.sqrt(2.0) * nodes[idx].T
        w = np.prod(weights[idx] / np.sqrt(np.pi), axis=0)
        starts = np.broadcast_to(np.asarray(x, dtype=float), (len(w),) + self.point_shape)
        return [float(np.sum(w * f(self.step_paths(starts, t, h, np.sqrt(h) * normals)[0])))
                for h in h_list]


class Circle(SourceManifold):
    """Circle of radius rho(t), chart angle theta in [0, 2 pi).

    Chart fields use spectral (Fourier) differentiation, so smooth fields
    are differentiated to near machine precision and the one-step
    conditional expectation of the backward dynamics is the exact periodic
    heat kernel.
    """

    dim = 1
    ambient_dim = 2
    point_shape = ()
    chart_columns = ("theta",)
    moment_label = "mean cos(theta)"

    def __init__(self, profile: RadiusProfile | None = None, n_theta: int = 256,
                 horizon: float = 1.0):
        self.n_theta = int(n_theta)
        super().__init__(profile or constant_radius(1.0), horizon)
        self.thetas = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta
        # integer wavenumbers of rfft; Nyquist first-derivative zeroed
        self._k = np.fft.rfftfreq(self.n_theta, d=1.0 / self.n_theta)
        self._k_d1 = self._k.copy()
        if self.n_theta % 2 == 0:
            self._k_d1[-1] = 0.0
        self._cells = np.full(self.n_theta, 2.0 * np.pi / self.n_theta)

    def __repr__(self):
        return f"Circle(rho={self.profile.label!r}, n_theta={self.n_theta})"

    # -- grid -------------------------------------------------------------

    @property
    def grid_shape(self):
        return (self.n_theta,)

    def grid_points(self):
        return self.thetas

    def chart_point(self, coords):
        """Chart point (an angle) from its one coordinate."""
        if len(coords) != 1 or not np.isfinite(coords[0]):
            raise ValueError(f"a circle point is one finite angle, got {list(coords)}")
        return float(coords[0])

    def profile_map(self, psi, ambient_dim: int):
        """Map theta -> (cos psi, sin psi) from angles psi on the grid.

        Zero coordinates pad the values up to ambient_dim; with 3 the image
        is a great circle of the 2-sphere.
        """
        zeros = [np.zeros_like(psi)] * (ambient_dim - 2)
        return np.stack([np.cos(psi), np.sin(psi)] + zeros, axis=-1)

    def first_harmonic(self, points, x0):
        """cos(theta): a Laplacian eigenfunction, mean decays by exp(-tau/2).

        Symmetric about the angle 0, so the start x0 is not used.
        """
        return np.cos(points)

    # -- spectral calculus ---------------------------------------------------

    def _fourier(self, field, mult, axis: int = 0):
        """Apply the Fourier multiplier mult along the angle, grid axis `axis` of field.

        mult holds one value per rfft wavenumber, or one row of them per
        leading slice.
        """
        mult = mult.reshape(mult.shape + (1,) * (field.ndim - 1 - axis))
        return np.fft.irfft(np.fft.rfft(field, axis=axis) * mult, n=self.n_theta, axis=axis)

    def frame_gradient(self, t, field):
        """Intrinsic gradient in the orthonormal tangent frame.

        Output shape inserts a frame axis after the grid axis:
        (n, 1) for scalar fields, (n, 1, value_dim) for vector fields; the
        Euclidean norm over trailing axes is the g_t-norm of the gradient.
        With a 1-D array of slice times t and a matching leading axis on
        field, every slice is differentiated at once, bit-equal to its
        one-slice call.
        """
        block, rho = self._slices(t, field)
        z = (self._fourier(block, 1j * self._k_d1, axis=1) / rho)[:, :, None, ...]
        return z if np.ndim(t) else z[0]

    def laplace_beltrami(self, t, field):
        """(1/rho^2) d^2/dtheta^2 via the multiplier -k^2/rho^2; t as in `frame_gradient`."""
        block, rho = self._slices(t, field)
        lap = self._fourier(block, -(self._k ** 2) / rho.reshape(-1, 1) ** 2, axis=1)
        return lap if np.ndim(t) else lap[0]

    # -- interpolation ---------------------------------------------------------

    def _phase_tables(self, x):
        """Blocked phase tables of 1-D angles x: e^{ikx} = hi[k // B] * lo[k % B].

        lo[b] = e^{ibx} for b < B = `_PHASE_BLOCK` and hi[a] = e^{iaBx}, with
        enough rows of hi to cover every rfft wavenumber.  The power axis
        comes first, so each row is one in-place multiply of contiguous rows.
        """
        n_hi = -(-len(self._k) // _PHASE_BLOCK)
        lo = np.empty((_PHASE_BLOCK, len(x)), dtype=complex)
        hi = np.empty((n_hi, len(x)), dtype=complex)
        lo[0] = 1.0
        np.cos(x, out=lo[1].real)
        np.sin(x, out=lo[1].imag)
        for b in range(2, _PHASE_BLOCK):
            np.multiply(lo[b - 1], lo[1], out=lo[b])
        hi[0] = 1.0
        if n_hi > 1:
            np.multiply(lo[-1], lo[1], out=hi[1])
        for a in range(2, n_hi):
            np.multiply(hi[a - 1], hi[1], out=hi[a])
        return lo, hi

    def interpolate_slice(self, field, x):
        """Trigonometric interpolation of a grid field at angles x.

        The angles are taken in chunks of `_PHASE_CHUNK`.  Each chunk's
        Fourier basis is one broadcast product of its blocked phase tables,
        about n_modes complex multiplies per angle, contracted with the
        field's weighted modes, so temporaries stay near 1.5 MB whatever
        the number of angles.
        """
        field = self._grid_field(field)
        theta = np.asarray(x, dtype=float).ravel()
        n_modes = len(self._k)
        weights = np.full(n_modes, 2.0 / self.n_theta)
        weights[0] = 1.0 / self.n_theta
        if self.n_theta % 2 == 0:
            weights[-1] = 1.0 / self.n_theta
        coef = weights[:, None] * np.fft.rfft(field, axis=0).reshape(n_modes, -1)
        vals = np.empty((len(theta), coef.shape[1]))
        for start in range(0, len(theta), _PHASE_CHUNK):
            lo, hi = self._phase_tables(theta[start:start + _PHASE_CHUNK])
            basis = (hi[:, None, :] * lo).reshape(-1, lo.shape[1])[:n_modes]
            vals[start:start + _PHASE_CHUNK] = np.real(basis.T @ coef)
            del lo, hi, basis   # free this chunk's tables before the next are built
        return vals.reshape(np.shape(x) + field.shape[1:])

    # -- one-step conditional expectations ---------------------------------------

    def heat_semigroup_operator(self, t, dt):
        """Exact periodic heat kernel from t to t + dt of the moving metric, as a map.

        The generator rho(s)^-2 d^2/dtheta^2 / 2 is a scalar multiple of one
        fixed operator, so the step is exact in time for the moving radius:
        the multiplier exp(-k^2 kappa), with kappa = tau / 2 and tau the
        time change `forward.time_change(profile, t, t + dt)`, the integral of
        rho^-2 over the step.  The step check and the multiplier, len(_k)
        reals, are done once here; each application is one rfft/irfft pair.
        """
        self._check_step(t, dt)
        kappa = 0.5 * time_change(self.profile, t, t + dt)
        mult = np.exp(-kappa * self._k ** 2)
        return lambda field: self._fourier(self._grid_field(field), mult)

    def heat_semigroup_step(self, t, dt, field):
        """`heat_semigroup_operator(t, dt)` applied once."""
        return self.heat_semigroup_operator(t, dt)(field)

    def mc_step_operator(self, t, dt, n_paths: int, new_rng):
        """The one-step Monte Carlo conditional expectation at time t, as a map of a field.

        The node batch shares one increment sample per slice, so the
        estimator is a circular convolution with the empirical increment
        distribution: a Fourier multiplier chi.  Each draw delta_j is paired
        with its mirror -delta_j, whose phase e^{-ik delta_j} is the
        conjugate of the draw's, so the 2 n_paths points cost no more than
        the n_paths draws and chi_k = mean_j cos(k delta_j) is real: the real
        part of the draws' empirical characteristic function.  The imaginary
        part, which drops out, is pure noise, since the exact kernel is
        symmetric; on the low modes its variance is about k^2 tau / n_paths,
        against (k^2 tau)^2 / (2 n_paths) for the real part.  chi, len(_k)
        reals, is drawn from one new_rng() and computed once here.
        The draws are standard normals scaled by sqrt(tau), tau the time
        change of the step (see `heat_semigroup_operator`), so the estimator
        is unbiased for the exact kernel of the moving metric and commutes
        with the reflection theta -> -theta.  Each application is then one
        rfft/irfft pair: unbiased per node, no interpolation error.  The
        draws are taken in chunks of `_PHASE_CHUNK`; each chunk adds the
        phase sums of all n_modes wavenumbers as one small complex GEMM of
        its blocked phase tables, hi @ lo.T, so building chi costs about
        n_modes * n_paths multiply-adds in BLAS and under 0.5 MB of
        temporaries.
        """
        self._check_step(t, dt)
        self._check_path_count(n_paths)
        scale = math.sqrt(time_change(self.profile, t, t + dt))
        rng = new_rng()
        sums = 0.0
        for start in range(0, n_paths, _PHASE_CHUNK):
            delta = rng.standard_normal(min(_PHASE_CHUNK, n_paths - start))
            lo, hi = self._phase_tables(delta * scale)
            sums = sums + (hi @ lo.T).ravel()
        chi = sums[:len(self._k)].real / n_paths

        return lambda field: self._fourier(self._grid_field(field), chi)

    def mc_step_mean(self, t, dt, field, n_paths: int, rng: np.random.Generator):
        """`mc_step_operator` with the increments of rng, applied once."""
        return self.mc_step_operator(t, dt, n_paths, lambda: rng)(field)

    # -- forward path step ------------------------------------------------------

    def step_paths(self, states, t, dt, dW):
        """Advance path angles by one step driven by ambient increments dW (n, 2).

        The scalar increment -sin(theta) dW1 + cos(theta) dW2 is conditionally
        N(0, dt), making the chart update exact in law for the generator
        rho^-2 d^2/dtheta^2 / 2.  Returns (new_states, constraint_violation).
        """
        rho = float(self.profile(t))
        return states + self.frame_increments(states, dW)[..., 0] / rho, 0.0

    def frame_increments(self, states, dW):
        """Ambient increments dW in the unit tangent frame at angles states, (..., 1)."""
        return (-np.sin(states) * dW[..., 0] + np.cos(states) * dW[..., 1])[..., None]


class Sphere2(SourceManifold):
    """Round 2-sphere of radius rho(t); chart points are unit 3-vectors.

    Fields live on a latitude-longitude grid with cell-centered colatitudes
    (no node sits on a pole).  Longitude derivatives are spectral; colatitude
    derivatives use 6th-order differences with the exact cross-pole
    continuation f(-theta, phi) = f(theta, phi + pi).
    """

    dim = 2
    ambient_dim = 3
    point_shape = (3,)
    chart_columns = ("x", "y", "z")
    moment_label = "mean <X, x0>"

    def __init__(self, profile: RadiusProfile | None = None, n_theta: int = 64,
                 n_phi: int = 128, horizon: float = 1.0):
        if n_phi % 2 != 0:
            raise ValueError("n_phi must be even for the cross-pole continuation")
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        super().__init__(profile or constant_radius(1.0), horizon)
        self.dtheta = np.pi / self.n_theta
        self.dphi = 2.0 * np.pi / self.n_phi
        self.thetas = (np.arange(self.n_theta) + 0.5) * self.dtheta
        self.phis = np.arange(self.n_phi) * self.dphi
        self._m = np.fft.rfftfreq(self.n_phi, d=1.0 / self.n_phi)
        self._sin = np.sin(self.thetas)
        self._cot = np.cos(self.thetas) / self._sin
        # Fejer's first rule in cos(theta) at the cell-centred colatitudes, times dphi:
        # exact for polynomials in cos(theta) below degree n_theta; the total is 4 pi
        j = np.arange(1, self.n_theta // 2 + 1)
        fejer = (2.0 / self.n_theta) * (
            1.0 - 2.0 * (np.cos(2.0 * np.outer(self.thetas, j)) / (4.0 * j ** 2 - 1.0)).sum(axis=1))
        self._cells = np.broadcast_to((self.dphi * fejer)[:, None], self.grid_shape)

    def __repr__(self):
        return (f"Sphere2(rho={self.profile.label!r}, "
                f"n_theta={self.n_theta}, n_phi={self.n_phi})")

    # -- grid ---------------------------------------------------------------

    @property
    def grid_shape(self):
        return (self.n_theta, self.n_phi)

    def grid_points(self):
        """Unit vectors of the chart grid, shape (n_theta, n_phi, 3)."""
        return self.profile_map(self.thetas, 3)

    def chart_point(self, coords):
        """Chart point (a unit vector) along three coordinates."""
        x = np.asarray(coords, dtype=float)
        if x.shape != (3,) or not np.all(np.isfinite(x)) or not np.any(x):
            raise ValueError("a sphere point needs three finite numbers, not all zero")
        x = x / np.max(np.abs(x))   # so that the norm neither overflows nor underflows
        return x / np.linalg.norm(x)

    def profile_map(self, psi, ambient_dim: int):
        """Rotation-equivariant map from colatitude values psi on the grid.

        (theta, phi) -> (sin psi cos phi, sin psi sin phi, cos psi), always
        into R^3 whatever ambient_dim is.
        """
        ps = np.asarray(psi)[:, None]
        ph = self.phis[None, :]
        return np.stack([np.sin(ps) * np.cos(ph), np.sin(ps) * np.sin(ph),
                         np.broadcast_to(np.cos(ps), self.grid_shape)], axis=-1)

    def first_harmonic(self, points, x0):
        """<X, x0> at unit vectors X: a Laplacian eigenfunction, mean decays by exp(-tau)."""
        return np.sum(points * np.asarray(x0, dtype=float), axis=-1)

    # -- padded colatitude differences ---------------------------------------

    def _pad_poles(self, block, sign=None):
        """`_POLE_GHOSTS` ghost rows beyond each pole via f(-theta, phi) = f(theta, phi + pi).

        The one statement of the cross-pole rule.  block carries a leading
        slice axis, then colatitude.  Grid fields (sign None) are rolled by
        n_phi / 2 along longitude; the colatitude column of azimuthal mode m,
        or a matrix of such columns, has its mirrored rows multiplied by
        sign = (-1)^m.  So `_mode_operator` is `laplace_beltrami`'s own
        stencil applied to one mode.
        """
        def ghost(rows):
            return np.roll(rows, self.n_phi // 2, axis=2) if sign is None else sign * rows
        g = _POLE_GHOSTS
        # rows at -5h/2, -3h/2, -h/2 above, pi + h/2, pi + 3h/2, pi + 5h/2 below
        return np.concatenate([ghost(block[:, g - 1::-1]), block,
                               ghost(block[:, :-g - 1:-1])], axis=1)

    @cached_property
    def _stencil_matrices(self):
        """(D1, D2): the 7-row colatitude stencils as (b, b + 6) row blocks.

        Row i of a block holds the stencil's weights at columns i to i + 6,
        so the block times b + 6 consecutive rows of the pole-padded block
        gives b rows of h f_theta or h^2 f_thetatheta, h = dtheta; callers
        divide by h with their other factors.  The stencil does not move
        along colatitude, so one block serves every window.  b is n_theta
        split evenly into blocks of at most `_STENCIL_BLOCK_ROWS` rows: one
        dense block up to that many colatitudes (24 at 24x48), a band of
        blocks beyond, where a dense (n, n + 6) matrix would cost n
        multiply-adds per value, not b.
        """
        n_blocks = -(-self.n_theta // _STENCIL_BLOCK_ROWS)
        b = -(-self.n_theta // n_blocks)
        return tuple(sum(w * np.eye(b, b + 2 * _POLE_GHOSTS, k) for k, w in enumerate(weights))
                     for weights in (_D1_STENCIL, _D2_STENCIL))

    def _colatitude_stencil(self, padded, matrix):
        """matrix, a block of `_stencil_matrices`, applied along colatitude to a padded block.

        padded is a `_pad_poles` block (slices, n_theta + 6, ...), its
        trailing axes flattened into columns.  Windows of b + 6 rows start
        every b rows, and all of them, in every slice, are one batched
        matmul, each window's BLAS product on its own, so a slice does not
        depend on the others in its block.  When b does not divide
        n_theta, the last window starts at n_theta - b and writes its rows
        again.
        """
        n, b = self.n_theta, matrix.shape[0]
        rows = padded.reshape(padded.shape[:2] + (-1,))
        out = np.empty((len(rows), n, rows.shape[2]))
        full = n // b
        windows = np.lib.stride_tricks.sliding_window_view(rows, matrix.shape[1], axis=1)[:, ::b]
        np.matmul(matrix, windows.swapaxes(-1, -2),
                  out=out[:, :full * b].reshape(len(rows), full, b, -1))
        if full * b < n:
            np.matmul(matrix, rows[:, n - b:], out=out[:, n - b:])
        return out.reshape((len(rows), n) + padded.shape[2:])

    def _dphi_multiplier(self, order: int):
        """Fourier multiplier of d^order/dphi^order; an odd order has no Nyquist mode."""
        mult = (1j * self._m) ** order
        if order % 2 and self.n_phi % 2 == 0:
            mult[-1] = 0.0
        return mult

    @cached_property
    def _dphi_matrices(self):
        """The spectral d/dphi and d^2/dphi^2 as dense (n_phi, n_phi) matrices.

        Column q is the multiplier's FFT pair applied to the q-th unit vector.
        """
        eye = np.eye(self.n_phi)
        return tuple(np.fft.irfft(np.fft.rfft(eye, axis=0) * self._dphi_multiplier(order)[:, None],
                                  n=self.n_phi, axis=0) for order in (1, 2))

    def _dphi_spectral(self, block, order: int = 1):
        """Longitude derivative of a block of grid fields, spectral, into a C-contiguous result.

        Up to `_DENSE_PHI_MAX` longitudes it is one batched matmul by the
        dense matrix of `_dphi_matrices`, whose n_phi multiply-adds a value
        cost less there than the FFT pair and its two transposing copies.
        d/dphi of a block of 3-vectors, one BLAS thread, dense against
        FFTs: 0.12 against 0.47 ms at 24x48 (9 slices), 0.26 against 0.46
        at 32x64 (9), 0.33 against 0.47 at 48x96 (4), 0.38 against 0.40 at
        64x128 (2) and 1.20 against 0.83 at 256x128 (1); so rings of 128
        longitudes and more keep the FFTs.  There, longitude is moved last
        for the FFTs and back after.
        """
        if self.n_phi <= _DENSE_PHI_MAX:
            rows = block.reshape(block.shape[:3] + (-1,))
            return np.matmul(self._dphi_matrices[order - 1], rows).reshape(block.shape)
        rows = np.ascontiguousarray(np.moveaxis(block, 2, -1))
        out = np.fft.irfft(np.fft.rfft(rows, axis=-1) * self._dphi_multiplier(order),
                           n=self.n_phi, axis=-1)
        return np.ascontiguousarray(np.moveaxis(out, -1, 2))

    # -- calculus ----------------------------------------------------------------

    def _colatitude(self, values, block):
        """values per colatitude, shaped to broadcast over block's leading slice and value axes."""
        return values.reshape((1, self.n_theta, 1) + (1,) * (block.ndim - 3))

    def frame_gradient(self, t, field):
        """Gradient components in the orthonormal frame (e_theta, e_phi) / rho.

        Output shape (n_theta, n_phi, 2, *value_shape).  With a 1-D array of
        slice times t and a matching leading axis on field, every slice is
        differentiated at once, bit-equal to its one-slice call; a block of
        one slice is differentiated once for all the times (see `_slices`).
        The colatitude part is one batched matmul of the pole-padded block
        by the D1 stencil matrix (`_colatitude_stencil`), the longitude part
        `_dphi_spectral`.  Each is divided by its metric factor and the two are
        stacked: a division straight into a strided half of the output
        took longer than the stack's copy.
        """
        block, rho = self._slices(t, field)
        d1 = self._colatitude_stencil(self._pad_poles(block), self._stencil_matrices[0])
        z = np.stack([d1 / (rho * self.dtheta),
                      self._dphi_spectral(block) / (rho * self._colatitude(self._sin, block))],
                     axis=3)
        return z if np.ndim(t) else z[0]

    def laplace_beltrami(self, t, field):
        """(1/rho^2)[f_tt + cot(t) f_t + f_pp / sin^2(t)]; t as in `frame_gradient`.

        Both colatitude stencils read one pole-padded block.
        """
        block, rho = self._slices(t, field)
        padded = self._pad_poles(block)
        d1, d2 = self._stencil_matrices
        lap = self._colatitude_stencil(padded, d2) / self.dtheta ** 2
        lap += (self._colatitude(self._cot, block) / self.dtheta
                * self._colatitude_stencil(padded, d1))
        lap += self._dphi_spectral(block, order=2) / self._colatitude(self._sin ** 2, block)
        lap = lap / rho ** 2
        return lap if np.ndim(t) else lap[0]

    def frame_increments(self, states, dW):
        """Ambient increments dW in the frame (e_theta, e_phi) at unit vectors, (..., 2)."""
        states = np.asarray(states, dtype=float)
        theta = np.arccos(np.clip(states[..., 2], -1.0, 1.0))
        phi = np.arctan2(states[..., 1], states[..., 0])
        ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
        e_th = np.stack([ct * cp, ct * sp, -st], axis=-1)
        e_ph = np.stack([-sp, cp, np.zeros_like(cp)], axis=-1)
        return np.stack([np.sum(e_th * dW, axis=-1), np.sum(e_ph * dW, axis=-1)], axis=-1)

    # -- interpolation -------------------------------------------------------------

    def interpolate_slice(self, field, x):
        """Bilinear interpolation at unit vectors x, with cross-pole padding."""
        field = self._grid_field(field)
        x = np.asarray(x, dtype=float)
        lead = x.shape[:-1]
        xr = x.reshape(-1, 3)
        theta = np.arccos(np.clip(xr[:, 2], -1.0, 1.0))
        phi = np.mod(np.arctan2(xr[:, 1], xr[:, 0]), 2.0 * np.pi)

        g = _POLE_GHOSTS - 1   # keep one ghost row beyond each pole
        padded = self._pad_poles(field[None])[0, g:-g]
        padded = np.concatenate([padded, padded[:, :1]], axis=1)

        ti = (theta - 0.5 * self.dtheta) / self.dtheta  # index into padded rows - 1
        ti = np.clip(ti, -1.0, self.n_theta - 1.0 + 1e-12)
        i0 = np.floor(ti).astype(int)
        ft = ti - i0
        i0 += 1  # shift into padded coordinates

        pj = phi / self.dphi
        j0 = np.floor(pj).astype(int)
        fp = pj - j0
        j0 %= self.n_phi  # phi rounds to 2*pi just below longitude 0

        wshape = (-1,) + (1,) * (field.ndim - 2)
        w00 = ((1 - ft) * (1 - fp)).reshape(wshape)
        w01 = ((1 - ft) * fp).reshape(wshape)
        w10 = (ft * (1 - fp)).reshape(wshape)
        w11 = (ft * fp).reshape(wshape)
        vals = (w00 * padded[i0, j0] + w01 * padded[i0, j0 + 1]
                + w10 * padded[i0 + 1, j0] + w11 * padded[i0 + 1, j0 + 1])
        return vals.reshape(lead + field.shape[2:])

    # -- one-step conditional expectations -------------------------------------------

    def _mode_operator(self, m: int):
        """A_m: rho^2 times `laplace_beltrami` on the colatitude column of azimuthal mode m.

        The identity's columns go through the grid's own stencil matrices,
        their pole rows mirrored with sign (-1)^m.
        """
        padded = self._pad_poles(np.eye(self.n_theta)[None], (-1.0) ** m)
        d1, d2 = self._stencil_matrices
        return (self._colatitude_stencil(padded, d2)[0] / self.dtheta ** 2
                + self._cot[:, None] * (self._colatitude_stencil(padded, d1)[0] / self.dtheta)
                - np.diag(m ** 2 / self._sin ** 2))

    @cached_property
    def _eigenbasis(self):
        """(V, lam, V^-1) with A_m = V_m diag(lam_m) V_m^-1 for every azimuthal mode m.

        Raises HmflowError, naming the grid and the mode, when an eigenvalue
        is not real and <= 0 up to rounding (exp(kappa lam) would amplify
        that mode) or V is ill-conditioned (steps would be silently
        inaccurate).
        """
        n = self.n_theta
        vecs, inv = np.empty((len(self._m), n, n)), np.empty((len(self._m), n, n))
        lam = np.empty((len(self._m), n))
        # one mode at a time, so the build holds little more than its result
        for k, m in enumerate(self._m.astype(int)):
            w, v = np.linalg.eig(self._mode_operator(m))
            v_inv = np.linalg.inv(v)
            cond = np.abs(v).sum(axis=0).max() * np.abs(v_inv).sum(axis=0).max()
            re, im = w.real.max(), np.abs(w.imag).max()
            if im > 0 or re > _EIG_ROUNDING * np.abs(w).max() or cond > _EIG_MAX_COND:
                raise HmflowError(
                    f"{self!r}, azimuthal mode m = {m}: the heat step needs real eigenvalues "
                    f"<= 0 (largest real part {re:.3g}, imaginary {im:.3g}) and eigenvectors "
                    f"of condition number <= {_EIG_MAX_COND:g} (found {cond:.3g})")
            vecs[k], lam[k], inv[k] = v.real, w.real, v_inv.real
        return vecs, lam, inv

    def heat_semigroup_operator(self, t, dt):
        """One step of the heat semigroup from t to t + dt of the moving metric, as a map.

        Longitude is diagonalized by FFT; each azimuthal mode m applies
        exp(kappa A_m) = V_m diag(exp(kappa lam_m)) V_m^-1 with kappa = tau / 2,
        tau the time change `forward.time_change(profile, t, t + dt)`, where
        A_m is `laplace_beltrami`'s own stencil on mode m, its pole rows from
        `_pad_poles` with sign (-1)^m (see `_mode_operator`).  A round metric
        moves by a scalar factor only, so the step is exact in time for the
        moving metric, as the circle's is.  The eigenbasis does not depend on
        t or dt: it is built once per source, on the first operator, at a
        cost of O(n_modes n_theta^3), and holds 2 n_modes n_theta^2 doubles.
        The step check and the factors exp(kappa lam), n_modes n_theta reals,
        are done once here.  Unconditionally stable (every lam <= 0).

        Both FFTs run along the contiguous axis, as `_dphi_spectral`'s do on fine rings.
        Longitude is moved last for `rfft`; the modes are copied mode-major
        for the per-mode product and back to the last axis for `irfft`; then
        longitude returns to its place in a C-contiguous slice, since the
        curvature driver and the sups that read the slice next take about
        twice as long on a strided one.  The copies only move values, so
        the step is bit-equal to FFTs along the strided longitude axis.
        """
        self._check_step(t, dt)
        vecs, lam, inv = self._eigenbasis
        kappa = 0.5 * time_change(self.profile, t, t + dt)
        factor = np.exp(kappa * lam)[..., None]

        def apply(field):
            field = self._grid_field(field)
            rows = np.ascontiguousarray(
                field.reshape(self.n_theta, self.n_phi, -1).transpose(0, 2, 1))
            modes = np.fft.rfft(rows, axis=-1)
            # (n_modes, n_theta, k) complex columns as (n_modes, n_theta, 2k) real ones
            rhs = np.ascontiguousarray(modes.transpose(2, 0, 1)).view(float)
            out = vecs @ (factor * (inv @ rhs))
            out = np.ascontiguousarray(out.view(complex).transpose(1, 2, 0))
            rows = np.fft.irfft(out, n=self.n_phi, axis=-1)
            return np.ascontiguousarray(rows.transpose(0, 2, 1)).reshape(field.shape)
        return apply

    def heat_semigroup_step(self, t, dt, field):
        """`heat_semigroup_operator(t, dt)` applied once."""
        return self.heat_semigroup_operator(t, dt)(field)

    def mc_step_operator(self, t, dt, n_paths: int, new_rng):
        """The one-step Monte Carlo conditional expectation at time t, as a map of a field.

        The sphere cannot keep its n_nodes x n_paths x 3 draws, so each
        application draws them again from new_rng(), the slice's generator
        keyed afresh, and the operator holds nothing but its arguments.
        Nodes are walked in chunks of at most `_MC_CHUNK_POINTS` node x path
        points (one node when n_paths alone exceeds it), so memory stays
        bounded whatever n_nodes x n_paths is.  The chunks read the one
        generator in node order, and Philox fills draws in C order, so the
        result does not depend on the chunk size.
        """
        self._check_step(t, dt)
        self._check_path_count(n_paths)
        step = max(1, _MC_CHUNK_POINTS // n_paths)

        def apply(field):
            field = self._grid_field(field)
            rng = new_rng()
            nodes = self.grid_points().reshape(-1, 3)
            out = np.empty((nodes.shape[0],) + field.shape[2:])
            for start in range(0, nodes.shape[0], step):
                chunk = nodes[start:start + step]
                incr = rng.standard_normal((chunk.shape[0], n_paths, 3))
                moved, _ = self.step_paths(chunk[:, None, :], t, dt, np.sqrt(dt) * incr)
                vals = self.interpolate_slice(field, moved.reshape(-1, 3))
                vals = vals.reshape((chunk.shape[0], n_paths) + field.shape[2:])
                out[start:start + step] = vals.mean(axis=1)
            return out.reshape(field.shape)
        return apply

    def mc_step_mean(self, t, dt, field, n_paths: int, rng: np.random.Generator):
        """`mc_step_operator` with the increments of rng, applied once."""
        return self.mc_step_operator(t, dt, n_paths, lambda: rng)(field)

    # -- forward path step --------------------------------------------------------

    def step_paths(self, states, t, dt, dW):
        """Projected Euler-Maruyama step with tangential noise and renormalization.

        states: unit vectors (..., 3); dW: ambient increments (..., 3) with
        variance dt per component.  The Ito drift -(dim/2) rho^-2 u dt keeps
        the one-step law consistent with the generator rho^-2 Laplacian / 2.
        Returns (new_states, max pre-renormalization constraint violation).
        <states, dW> and |moved|^2 add their three columns in order (`row_dot`),
        bit for bit numpy's reductions over the axis, without their set-up.
        """
        rho = float(self.profile(t))
        radial = row_dot(states, dW)[..., None] * states
        moved = states + (dW - radial) / rho - states * (dt / rho ** 2)
        norms = np.sqrt(row_dot(moved, moved))[..., None]
        violation = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        return moved / norms, violation
