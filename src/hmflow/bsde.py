"""Backward dynamics: the one-pass linearized flow operator and path checks.

`picard_map` is the map whose fixed point solves the quasi-linear backward
system: given a frozen-gradient field u and terminal data h, it steps the
linear backward equation from the terminal slice to time zero.  Each step
takes the one-step conditional expectation of the next slice under the
forward diffusion, one of the operators `step_operators` builds, and
subtracts the curvature driver evaluated at that conditional expectation
with the frozen gradient of u.

`sample_solution` reconstructs the stochastic solution pair along a forward
ensemble it draws from the field's grid, and `bsde_residual` checks the
discrete backward identity pathwise against the very increments that drove
the paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._rng import DOMAIN_MC_SLICE, keyed_generator
from .errors import BlowUp, HorizonMismatch, ShapeMismatch
from .fields import MapField, _value_sup
from .forward import PathEnsemble, simulate
from .targets import sff_trace


def step_operators(u: MapField, backend: str = "semigroup", n_paths: int = 0,
                   master_seed: int = 0) -> list:
    """The n_t one-step conditional-expectation operators of u's time grid.

    Operator k maps slice k + 1 of a field to its conditional expectation
    at slice k: the source's `heat_semigroup_operator` (the exact Fourier
    heat kernel on the circle, the implicit heat step on the sphere) for
    the semigroup backend, or its `mc_step_operator` over n_paths >= 1
    increments from stream (master_seed, slice k) for the monte_carlo
    backend.  They depend only on the source and the time grid, so a solve
    builds them once per horizon, each with its time check and multiplier,
    and every `picard_map` pass applies them.
    """
    source, dt = u.source, u.dt
    times = u.times[:-1]
    if backend == "semigroup":
        return [source.heat_semigroup_operator(t, dt) for t in times]
    if backend == "monte_carlo":
        return [source.mc_step_operator(
                    t, dt, n_paths, partial(keyed_generator, master_seed, DOMAIN_MC_SLICE, k))
                for k, t in enumerate(times)]
    raise ValueError(f"unknown backend {backend!r}")


def picard_map(u: MapField, h, steps) -> MapField:
    """One application of the backward-flow operator to the frozen field u.

    Stepping backward from w(horizon) = h: each slice k first applies
    steps[k] (see `step_operators`) to slice k + 1, then subtracts (dt/2)
    times the curvature driver with the gradient of u frozen at the current
    slice.  The driver's base point is the conditional expectation (a
    one-step lag).  The frozen gradient is u's kept `MapField.gradient`,
    computed on its first read, in time blocks; the returned field has none
    until something reads it.  So the loop over slices holds only the
    sequential recursion and the per-slice `BlowUp` check, which stops a
    diverging sweep at the slice where it leaves the bound.

    Monte Carlo increments are keyed by (master_seed, slice) only, so the
    realized operator is one fixed deterministic map: iterating it measures
    genuine contraction, not sampling churn.  A solve therefore builds the
    steps once per horizon and hands the same ones to every pass; on the
    circle they are Fourier multipliers, n_t times len(_k) complex numbers.
    """
    source, target = u.source, u.target
    h = np.asarray(h, dtype=float)
    if h.shape != u.values.shape[1:]:
        raise HorizonMismatch(
            f"terminal data shape {h.shape} does not match field slices "
            f"{u.values.shape[1:]}")
    dt = u.dt
    n_t = u.n_t
    if len(steps) != n_t:
        raise HorizonMismatch(f"{len(steps)} step operators for a field of {n_t} slices")
    bound = 10.0 * (_value_sup(h) + 1.0)
    grad = u.gradient
    w = np.empty_like(u.values)
    w[n_t] = h
    for k in range(n_t - 1, -1, -1):
        cond = steps[k](w[k + 1])
        w[k] = cond - 0.5 * dt * sff_trace(target, cond, grad[k])
        worst = _value_sup(w[k])
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
    block Euclidean norm is the metric gradient norm.  Each fact is held
    once: the source is `ensemble.source`, and target is the sampled
    field's target, from which `stay_on_target` measures y and whose
    curvature `bsde_residual` reads.
    """

    ensemble: PathEnsemble
    y: np.ndarray
    z: np.ndarray
    target: object

    def __post_init__(self):
        n = self.ensemble.n_steps + 1
        if self.y.shape[0] != n or self.z.shape[0] != n \
                or self.y.shape[1] != self.ensemble.n_paths:
            raise ShapeMismatch("sample arrays do not match the ensemble shape")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.z))):
            raise ShapeMismatch("non-finite values in solution sample")


def sample_solution(field: MapField, n_paths: int, master_seed: int,
                    domain: int) -> BsdeSolutionSample:
    """Evaluate the field and its gradient along a forward ensemble of its own.

    The ensemble is `simulate`'s: n_paths paths from round-robin grid
    starts, stepped on the field's own slices (its horizon and slice
    spacing, which divides the horizon even after a solve halved it), path
    p driven by stream (master_seed, domain, p).  At each slice k,
    `field.values[k]` and the kept `field.gradient[k]` are stacked and
    interpolated at the paths in one call.

    `solve` draws no sample; the code that checks one draws it, in a stream
    domain of its own (the CLI's solve `DOMAIN_SAMPLE_PATH`, its verify
    `DOMAIN_VERIFY_PATH`), so it shares no increments with a forward run at
    the same seed.  The field's slice spacing must pass `step_count`'s
    stability bound, which a solve does not need.
    """
    source = field.source
    ensemble = simulate(source, "grid", field.horizon, field.dt, n_paths, master_seed,
                        _domain=domain)
    y = np.empty((field.n_t + 1, ensemble.n_paths, field.value_dim))
    z = np.empty(y.shape[:2] + (source.dim, field.value_dim))
    for k, (sl, zs) in enumerate(zip(field.values, field.gradient)):
        yz = source.interpolate_slice(np.concatenate([sl[..., None, :], zs], axis=-2),
                                      ensemble.states[k])
        y[k] = yz[:, 0]
        z[k] = yz[:, 1:]
    return BsdeSolutionSample(ensemble, y, z, field.target)


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
    db = ens.source.frame_increments(ens.states[:-1], ens.increments)
    mart = np.einsum("...ml,...m->...l", z[:-1], db)
    defect = y[-1] - y[0] - np.sum(0.5 * ens.dt * drv + mart, axis=0)
    return float(np.sqrt(np.mean(np.sum(defect ** 2, axis=-1))))

