"""Forward diffusion on the source manifold.

Simulates the time-inhomogeneous Brownian motion generated by half the
metric Laplacian, with deterministic counter-based increments so ensembles
are reproducible bit-for-bit, plus the one-step weak-consistency probe
used to validate the integrators against the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_FORWARD_PATH, path_normals
from .errors import StepTooLarge, TimeOutOfRange
from .fields import write_rows

# Gauss-Legendre rules of 32 and 64 nodes on [-1, 1]; one profile call reads both
_GL_COARSE, _GL_FINE = (np.polynomial.legendre.leggauss(n) for n in (32, 64))
_GL_NODES = np.concatenate([_GL_COARSE[0], _GL_FINE[0]])
_GL_RTOL = 1e-14       # a panel is accepted when its two rules agree this closely
_GL_MAX_LEVELS = 40    # bisections before the integral counts as not converging
# step x path x ambient points of increments per block of paths in `moment_check`
_PATH_BLOCK_POINTS = 1 << 20
# step x path x ambient points of normals per tile that `_draw_increments` writes at once
_INCREMENT_TILE_POINTS = 1 << 15


def time_change(profile, t0: float, t1: float) -> float:
    """Integral of rho(s)^-2 over [t0, t1] by adaptive Gauss-Legendre quadrature.

    Each panel is integrated with the 32- and 64-node rules; a panel whose
    two values agree to _GL_RTOL relative contributes its 64-node value,
    and every other panel is bisected.  All open panels of a level share
    one profile call.  A smooth profile is accepted on the first panel;
    a radius that nears zero at an endpoint (the shrinking profile near
    t = 1/2) bisects towards it.  Raises ValueError when the radius is not
    positive or the panels do not settle within _GL_MAX_LEVELS levels.
    """
    lo, hi = np.array([float(t0)]), np.array([float(t1)])
    total = 0.0
    for _ in range(_GL_MAX_LEVELS):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        rho = profile(mid[:, None] + half[:, None] * _GL_NODES)
        if not (rho > 0.0).all():
            raise ValueError(f"radius profile is not positive on [{t0}, {t1}]")
        inv_sq = rho ** -2
        coarse = half * (inv_sq[:, :32] @ _GL_COARSE[1])
        fine = half * (inv_sq[:, 32:] @ _GL_FINE[1])
        done = np.abs(fine - coarse) <= _GL_RTOL * np.abs(fine)
        total += float(fine[done].sum())
        if done.all():
            return total
        lo, mid, hi = lo[~done], mid[~done], hi[~done]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    raise ValueError(f"time change on [{t0}, {t1}] did not converge "
                     f"in {_GL_MAX_LEVELS} bisections")


@dataclass
class PathEnsemble:
    """Forward paths plus the ambient Brownian increments that drove them.

    states: chart points per time node, (n_steps+1, n_paths) + point_shape
    of the source: angles on the circle, unit vectors on the sphere.
    increments: (n_steps, n_paths, ambient_dim), retained so the pathwise
    backward-equation identity can be checked against the same noise.
    """

    source: object
    dt: float
    n_paths: int
    times: np.ndarray
    states: np.ndarray
    increments: np.ndarray
    max_violation: float

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def to_csv(self, path):
        """Dump paths as rows (path_id, step, time, chart coordinates...).

        Header and rows end in CRLF, as `csv.writer` writes them, and floats
        carry 17 significant digits, "%.17g"; `fields.write_rows` writes
        the rows a block at a time.
        """
        columns = ("path_id", "step", "time", *self.source.chart_columns)
        n_rows, n_coords = self.n_paths * len(self.times), len(columns) - 3
        path_id, step = np.divmod(np.arange(n_rows), len(self.times))
        coords = self.states.reshape(len(self.times), self.n_paths, n_coords)
        rows = np.column_stack([path_id, step, self.times[step],
                                coords.transpose(1, 0, 2).reshape(n_rows, n_coords)])
        row = ",".join(["%d", "%d"] + ["%.17g"] * (1 + n_coords)) + "\r\n"
        with open(str(path), "wb") as fh:
            fh.write((",".join(columns) + "\r\n").encode())
            write_rows(fh, rows, row)


def _draw_increments(master_seed, domain, paths: range, n_steps, dim, dt):
    """Brownian increments (n_steps, len(paths), dim) of a range of paths.

    Path p reads stream (master_seed, domain, p).  The streams are drawn
    path-major, each straight into its row (`path_normals` with out), into
    a tile of max(1, _INCREMENT_TILE_POINTS // (n_steps * dim)) paths,
    scaled there, and each tile is transposed into its step-major place
    in one copy, not one strided row per step and path.
    The copy moves each step's dim numbers as one record, so its inner loop
    runs over the tile's paths.  The product is the same sqrt(dt) * normals,
    so the result does not depend on the tile size.
    """
    out = np.empty((n_steps, len(paths), dim))
    scale = np.sqrt(dt)
    width = max(1, _INCREMENT_TILE_POINTS // (n_steps * dim))
    tile = np.empty((min(width, len(paths)), n_steps, dim))
    record = np.dtype((np.void, dim * out.itemsize))
    out_records = out.view(record)[..., 0]
    for lo in range(0, len(paths), width):
        hi = min(lo + width, len(paths))
        for j, p in enumerate(paths[lo:hi]):
            path_normals(master_seed, domain, p, n_steps, dim, out=tile[j])
        tile[:hi - lo] *= scale
        out_records[:, lo:hi] = tile[:hi - lo].view(record)[..., 0].T
    return out


def whole_steps(horizon: float, dt: float) -> int:
    """Number of steps of size dt > 0 in a positive horizon.

    Raises ValueError when dt does not divide the horizon (to 1e-9
    relative) or gives more steps than an array can index.
    """
    if not horizon / dt < np.iinfo(np.intp).max:
        raise ValueError(f"dt={dt} gives more steps over {horizon} than an array can index")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * max(horizon, 1.0):
        raise ValueError(f"dt={dt} does not divide the horizon {horizon}")
    return n_steps


def step_count(source, horizon: float, dt: float) -> int:
    """Number of steps of size dt from time 0 to the horizon, checked against the source.

    Raises TimeOutOfRange past the metric's interval, ValueError when dt
    is not positive or `whole_steps` rejects it, and StepTooLarge beyond
    the stability bound.
    """
    if not dt > 0:
        raise ValueError(f"dt={dt} must be positive")
    if not 0.0 < horizon <= source.horizon + 1e-12:
        raise TimeOutOfRange(f"need 0 < horizon <= {source.horizon}, got {horizon}")
    n_steps = whole_steps(horizon, dt)
    rho_min = source.min_radius(0.0, horizon)
    if dt > rho_min ** 2 / 4.0:
        raise StepTooLarge(
            f"dt={dt} exceeds the stability bound (min rho)^2/4 = {rho_min ** 2 / 4.0:.3g}")
    return n_steps


def _prepare(source, x, horizon, dt, n_paths):
    """Start points (n_paths,) + point_shape and time nodes of a run from time 0.

    x is one chart point, shared by every path, or "grid" (see `simulate`).
    Every argument is checked here, before any increment is drawn: a chart
    point must be one that the source's `chart_point` accepts and keeps
    (to 1e-10), so a sphere start is a unit vector and a circle start a
    finite angle.
    """
    shape = (n_paths,) + source.point_shape
    if isinstance(x, str):
        if x != "grid":
            raise ValueError(f"unknown start spec {x!r}")
        starts = np.resize(source.grid_points().reshape((-1,) + source.point_shape), shape)
    else:
        x = np.asarray(x, dtype=float)
        if x.shape != source.point_shape:
            raise ValueError(f"a start is one chart point of shape {source.point_shape}, "
                             f"not an array of shape {x.shape}")
        if np.max(np.abs(source.chart_point(x.reshape(-1).tolist()) - x)) > 1e-10:
            raise ValueError(f"start {x.tolist()} is not a point of {source!r}")
        starts = np.empty(shape)
        starts[...] = x
    n_steps = step_count(source, horizon, dt)
    return starts, dt * np.arange(n_steps + 1)


def _step_block(source, times, dt, x, increments, states=None):
    """Step one block of paths from starts x through the time nodes.

    increments (n_steps, n, dim) drive the steps.  When states
    (n_steps+1, n) + point_shape is given, every node's states are written
    into it.  Returns the end states and the worst constraint violation.
    """
    if states is not None:
        states[0] = x
    worst = 0.0
    for k, dw in enumerate(increments):
        x, viol = source.step_paths(x, times[k], dt, dw)
        worst = max(worst, viol)
        if states is not None:
            states[k + 1] = x
    return x, worst


def simulate(source, x, horizon: float, dt: float, n_paths: int,
             master_seed: int, _domain: int = DOMAIN_FORWARD_PATH) -> PathEnsemble:
    """Simulate the forward diffusion from time 0 to the horizon, keeping every state.

    x is one intrinsic start (angle / unit vector) shared by all paths, or
    the string "grid" for round-robin chart-grid starts; anything else is
    rejected before any increment is drawn.  Path p is driven by stream
    (master_seed, _domain, p) (see `_draw_increments`), so reruns give
    bit-identical ensembles and the first k paths of any larger ensemble
    equal a k-path ensemble.  The whole ensemble is held: states and
    increments of n_steps x n_paths points each.  The public functions
    draw from the forward domain; `bsde.sample_solution` draws from the
    domain its caller names.
    """
    starts, times = _prepare(source, x, horizon, dt, n_paths)
    n_steps = len(times) - 1
    increments = _draw_increments(master_seed, _domain, range(n_paths), n_steps,
                                  source.ambient_dim, dt)
    states = np.empty((n_steps + 1,) + starts.shape)
    _, worst = _step_block(source, times, dt, starts, increments, states)
    return PathEnsemble(source, dt, n_paths, times, states, increments, worst)


def moment_check(source, x, horizon: float, dt: float, n_paths: int,
                 master_seed: int) -> dict:
    """Decay of the first nontrivial symmetric moment against the exact law.

    The mean of the source's `first_harmonic` decays by exp(-dim tau / 2)
    (E[cos theta] on the circle, E[<X, x0>] on the sphere), with tau the
    integral of rho^-2 over the run.  Returns the sample mean, exact value,
    standard error and the 3-sigma verdict, which fails when the
    statistics are not finite or the standard error is zero, since then
    nothing was tested.  Raises ValueError for fewer than two paths, which
    have no standard error.

    The paths are the forward-domain paths of `simulate`, stepped in
    blocks of max(1, _PATH_BLOCK_POINTS // (n_steps * ambient_dim)) paths,
    and only the start and end states and the worst constraint violation
    are kept.  Memory is bounded by one block in n_steps and grows only by
    the end states in n_paths; the report is bit-equal whatever the block
    size.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths = {n_paths}: a standard error needs at least 2 paths")
    starts, times = _prepare(source, x, horizon, dt, n_paths)
    try:
        at_start = source.first_harmonic(starts, x)
    except ValueError as exc:
        # before any draw: the sphere's observable <X, x0> needs one start vector
        raise ValueError(f"start spec {x!r} does not fit the observable "
                         f"{source.moment_label}: {exc}") from None
    n_steps, dim = len(times) - 1, source.ambient_dim
    block = max(1, _PATH_BLOCK_POINTS // (n_steps * dim))
    ends = np.empty_like(starts)
    worst = 0.0
    for lo in range(0, n_paths, block):
        hi = min(lo + block, n_paths)
        # a block's increments die with the call, before the next block is drawn
        ends[lo:hi], viol = _step_block(source, times, dt, starts[lo:hi], _draw_increments(
            master_seed, DOMAIN_FORWARD_PATH, range(lo, hi), n_steps, dim, dt))
        worst = max(worst, viol)
    tau = time_change(source.profile, 0.0, horizon)
    vals = source.first_harmonic(ends, x)
    expected = float(np.mean(at_start) * np.exp(-0.5 * source.dim * tau))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    z = (mean - expected) / se if se > 0 else 0.0
    return {
        "observable": source.moment_label,
        "sample_mean": mean,
        "expected": expected,
        "stderr": se,
        "zscore": float(z),
        "pass": bool(np.isfinite([mean, se]).all() and se > 0 and abs(z) <= 3.0),
        "n_paths": n_paths,
        "max_constraint_violation": worst,
    }


def weak_error_probe(source, t: float, x, f, h_list) -> np.ndarray:
    """One-step weak-consistency table for the path integrator.

    For each step size h, measures |E[f(X_{t+h})] - f(x) - (h/2) Lap f(x)|
    with the expectation from the source's `one_step_means`: a deterministic
    tensor Gauss-Hermite rule over the ambient increment, pushed through
    `step_paths`.  Lap f(x) is the source's Laplace-Beltrami operator on f
    over the grid, interpolated at x.  Returns rows (h, residual).
    """
    f_x = float(np.asarray(f(np.asarray(x))))
    lap_grid = source.laplace_beltrami(t, f(source.grid_points()))
    lap_x = float(np.asarray(source.interpolate_slice(lap_grid, np.asarray(x))))

    means = source.one_step_means(f, t, x, h_list)
    return np.array([(h, abs(mean - f_x - 0.5 * h * lap_x))
                     for h, mean in zip(h_list, means)])
