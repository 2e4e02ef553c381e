"""Backward dynamics: the one-pass linearized flow operator and path checks.

`picard_map` is the map whose fixed point solves the quasi-linear backward
system: given a frozen-gradient field u and terminal data h, it steps the
linear backward equation from the terminal slice to time zero.  Each step
takes the one-step conditional expectation of the next slice under the
forward diffusion and subtracts the curvature driver evaluated at that
conditional expectation with the frozen gradient of u.

`sample_solution` and `bsde_residual` reconstruct the stochastic solution
pair along a forward ensemble and check the discrete backward identity
pathwise against the very increments that drove the paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_MC_SLICE, keyed_generator
from .errors import BlowUp, HorizonMismatch, ShapeMismatch
from .fields import MapField
from .forward import PathEnsemble
from .targets import sff_trace


def picard_map(u: MapField, h, backend: str = "semigroup", n_paths: int = 0,
               master_seed: int = 0, antithetic: bool = False) -> MapField:
    """One application of the backward-flow operator to the frozen field u.

    Stepping backward from w(horizon) = h: each slice first takes the
    one-step conditional expectation of the next slice (exact Fourier heat
    kernel on the circle, implicit heat step on the sphere, or per-node
    one-step Monte Carlo over n_paths >= 1 increments for the monte_carlo
    backend, an even count when antithetic), then subtracts (dt/2) times
    the curvature driver with the gradient of u frozen at the current
    slice.  The driver's base point is the conditional expectation (a
    one-step lag).  The frozen gradient is u's kept `MapField.gradient`,
    computed on its first read; the returned field has none until
    something reads it.

    Monte Carlo increments are keyed by (master_seed, slice) only, so the
    realized operator is one fixed deterministic map: iterating it measures
    genuine contraction, not sampling churn.
    """
    source, target = u.source, u.target
    h = np.asarray(h, dtype=float)
    if h.shape != u.values.shape[1:]:
        raise HorizonMismatch(
            f"terminal data shape {h.shape} does not match field slices "
            f"{u.values.shape[1:]}")
    if backend not in ("semigroup", "monte_carlo"):
        raise ValueError(f"unknown backend {backend!r}")

    dt = u.dt
    n_t = u.n_t
    bound = 10.0 * (float(np.max(np.linalg.norm(h, axis=-1))) + 1.0)
    w = np.empty_like(u.values)
    w[n_t] = h
    for k in range(n_t - 1, -1, -1):
        t_k = u.times[k]
        if backend == "semigroup":
            cond = source.heat_semigroup_step(t_k, dt, w[k + 1])
        else:
            rng = keyed_generator(master_seed, DOMAIN_MC_SLICE, k)
            cond = source.mc_step_mean(t_k, dt, w[k + 1], n_paths, rng, antithetic)
        w[k] = cond - 0.5 * dt * sff_trace(target, cond, u.gradient[k])
        worst = float(np.max(np.linalg.norm(w[k], axis=-1)))
        if worst > bound:
            raise BlowUp(
                f"|w| reached {worst:.3g} > {bound:.3g} at slice {k}; "
                "horizon too long for the contraction regime")
    return MapField(u.times.copy(), w, source, target)


@dataclass
class BsdeSolutionSample:
    """Solution pair reconstructed along a forward ensemble.

    y: (n_steps+1, n_paths, L2) field values along paths;
    z: (n_steps+1, n_paths, m, L2) frame-gradient values along paths, whose
    block Euclidean norm is the metric gradient norm.
    """

    ensemble: PathEnsemble
    y: np.ndarray
    z: np.ndarray
    source: object
    target: object

    def __post_init__(self):
        n = self.ensemble.n_steps + 1
        if self.y.shape[0] != n or self.z.shape[0] != n \
                or self.y.shape[1] != self.ensemble.n_paths:
            raise ShapeMismatch("sample arrays do not match the ensemble shape")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.z))):
            raise ShapeMismatch("non-finite values in solution sample")


def sample_solution(field: MapField, ensemble: PathEnsemble) -> BsdeSolutionSample:
    """Evaluate the field and its gradient along every path of the ensemble.

    At each ensemble time the slice and its frame gradient are stacked and
    interpolated at the paths in one call.  An ensemble on the field's own
    slice times (as the solve's sample and `verify` run) reads
    `field.values[k]` and the kept `field.gradient[k]`; any other ensemble
    takes the slice at its time and computes that slice's gradient.
    """
    source = field.source
    if ensemble.horizon > field.horizon + 1e-9:
        raise HorizonMismatch("ensemble runs past the field horizon")
    own_slices = (ensemble.n_steps == field.n_t
                  and np.allclose(ensemble.times, field.times, rtol=0.0, atol=1e-12))
    n = ensemble.n_steps + 1
    l2 = field.value_dim
    m = source.dim
    y = np.empty((n, ensemble.n_paths, l2))
    z = np.empty((n, ensemble.n_paths, m, l2))
    for k, t in enumerate(ensemble.times):
        if own_slices:
            sl, zs = field.values[k], field.gradient[k]
        else:
            sl = field.slice_at(t)
            zs = source.frame_gradient(t, sl)
        yz = source.interpolate_slice(np.concatenate([sl[..., None, :], zs], axis=-2),
                                      ensemble.states[k])
        y[k] = yz[:, 0]
        z[k] = yz[:, 1:]
    return BsdeSolutionSample(ensemble, y, z, source, field.target)


def bsde_residual(sample: BsdeSolutionSample) -> float:
    """Pathwise defect of the discrete backward identity.

    Per path, takes the increment of Y over the ensemble's horizon minus the
    driver terms and the martingale pairings of Z with the stored Brownian
    increments, each evaluated on all steps at once and summed, then
    returns the root-mean-square over paths of the defect norm.
    Refining the step halves the variance: the total decays like sqrt(dt).
    """
    ens = sample.ensemble
    y, z = sample.y, sample.z
    drv = sff_trace(sample.target, y[:-1], z[:-1])
    db = sample.source.frame_increments(ens.states[:-1], ens.increments)
    mart = np.einsum("...ml,...m->...l", z[:-1], db)
    defect = y[-1] - y[0] - np.sum(0.5 * ens.dt * drv + mart, axis=0)
    return float(np.sqrt(np.mean(np.sum(defect ** 2, axis=-1))))

