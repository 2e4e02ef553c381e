"""Fixed-point loop for the backward flow operator.

Starting from the terminal map extended constantly in time, the loop
iterates the backward operator, monitors successive deltas in the
contraction norm, and halves the horizon's step count whenever the
measured ratios show no contraction (or the iterate bound blows up), so
every horizon it tries is a sub-interval [0, t] at the same step.  The fixed
point is the discretized solution of the backward quasi-linear flow, and
its value at (t, x) is the field the solution pair evaluates through.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .bsde import picard_map, step_operators
from .errors import BlowUp, NoContraction, TerminalNotOnTarget, TimeOutOfRange
from .fields import MapField, c01_norm, handover_c01
from .forward import whole_steps

_RATIO_TRIGGER = 0.9


@dataclass
class PicardState:
    """Iteration history of one solve.

    `records` holds one entry per pass over every horizon tried, each with
    its horizon; the entry that closes an abandoned horizon says why under
    "halved": "ratio" for the ratio trigger, or the `BlowUp` message, which
    names the slice, on an entry with null delta and ratio.  Every horizon
    tried is a whole number of steps of the solve's dt.  The other counters
    describe the final horizon only.
    """

    horizon: float
    ball_radius: float
    iterations: int = 0
    deltas: list = dataclass_field(default_factory=list)
    ratios: list = dataclass_field(default_factory=list)
    converged: bool = False
    ball_exceeded: bool = False
    horizons_tried: list = dataclass_field(default_factory=list)
    records: list = dataclass_field(default_factory=list)

    @property
    def fixed_point_error_estimate(self) -> float | None:
        """Banach's a-posteriori estimate of the last iterate's distance from the fixed point.

        delta_n r / (1 - r), with delta_n the last delta and r the last
        recorded ratio taken as the contraction constant; None when no
        ratio was recorded or r >= 1.
        """
        if not self.ratios or self.ratios[-1] >= 1.0:
            return None
        r = self.ratios[-1]
        return self.deltas[-1] * r / (1.0 - r)


def solve(source, target, h, t0_init: float, tol: float = 1e-10,
          max_iter: int = 40, backend: str = "semigroup", dt: float = 1e-3,
          n_paths: int = 10_000, master_seed: int = 0):
    """Iterate the backward operator to its fixed point.

    h must map every grid node onto the target (checked to 1e-10).  If two
    consecutive delta ratios exceed 0.9, or the iterate bound blows up, the
    horizon's step count is halved (rounding down) and the loop restarts at
    the same dt; once no whole step is left the solve gives up with
    NoContraction.  Returns (field, state): the fixed point and the
    iteration history, whose `fixed_point_error_estimate` says how far the
    field is from the exact fixed point.  A solve draws no paths; the
    solution pair along forward paths is `sample_solution` of the field,
    drawn by a caller that checks it.  Raises ValueError unless
    t0_init, tol and dt are positive, dt divides t0_init
    (`forward.whole_steps`) and max_iter is at least 1.

    Identical inputs (including the master seed for the Monte Carlo
    backend) reproduce identical iterate histories.

    The n_t one-step operators (`step_operators`) are built once per
    horizon, and rebuilt after a halving, since the slice times change.
    On the circle each is a Fourier multiplier: n_t times len(_k) reals for
    either backend.  The sphere's
    semigroup operators hold n_modes times n_theta factors exp(kappa lam)
    each; on both families the semigroup step is exact in time for the
    moving metric (kappa is half the time change over the step), and with
    `picard_map`'s half-shifted driver sweep the fixed point is second
    order in dt.  The sphere's Monte Carlo operators draw their increments
    again in every pass, so they hold none.

    Memory: while it iterates, a solve holds two fields, the current
    iterate and the next, one gradient array and the step operators.
    Each pass freezes the current iterate's kept gradient, then
    `handover_c01` overwrites it block by block of slices with the next
    iterate's gradient and hands it over, so the gradient's temporaries
    are one block's: at most `fields._GRADIENT_BLOCK_ENTRIES` entries, or
    one slice, whatever the number of slices.  Where the deltas stall
    instead of contracting, see the README's note on the contraction floor.
    """
    h = np.asarray(h, dtype=float)
    if not (t0_init > 0 and tol > 0 and dt > 0 and max_iter >= 1):
        raise ValueError("need t0_init > 0 and tol > 0 and dt > 0 and max_iter >= 1")
    if t0_init > source.horizon + 1e-12:
        raise TimeOutOfRange(
            f"requested horizon {t0_init} exceeds the metric definition "
            f"interval [0, {source.horizon}]")
    n_0 = n_t = whole_steps(t0_init, dt)
    dist = target.distance(h)
    if np.any(dist > 1e-10):
        raise TerminalNotOnTarget(
            f"terminal map leaves the target by {float(np.max(dist)):.3g}")

    tried, records = [], []
    while True:
        tried.append(t0_init * (n_t / n_0))
        state = PicardState(horizon=tried[-1], ball_radius=0.0, horizons_tried=list(tried),
                            records=records)
        u = _iterate(source, target, h, state, n_t, backend=backend,
                     n_paths=n_paths, master_seed=master_seed, max_iter=max_iter, tol=tol)
        if u is not None:
            return u, state
        n_t //= 2
        if n_t == 0:
            raise NoContraction(
                f"no contraction regime found down to one step of dt = {dt:g}; "
                f"horizons tried: {tried}, last deltas: {state.deltas[-3:]}")


def _iterate(source, target, h, state, n_t, *, backend, n_paths, master_seed, max_iter, tol):
    # the last iterate, or None when the horizon must be halved.  The start
    # iterate lives in this frame only, so the first pass frees it; it also
    # sets the state's ball radius.  The step operators depend on the
    # horizon's time grid only, so every pass applies the same ones.
    u = MapField.constant_in_time(source, target, h, state.horizon, n_t)
    steps = step_operators(u, backend, n_paths, master_seed)
    state.ball_radius = 2.0 * c01_norm(u) + 1.0
    over_trigger = 0
    for n in range(1, max_iter + 1):
        try:
            w = picard_map(u, h, steps)
        except BlowUp as exc:
            state.records.append({"n": n, "delta": None, "ratio": None,
                                  "horizon": state.horizon, "halved": str(exc)})
            return None
        delta, w_norm = handover_c01(u, w)
        state.iterations = n
        ratio = None
        if state.deltas and state.deltas[-1] > 10.0 * tol:
            ratio = delta / state.deltas[-1]
            state.ratios.append(ratio)
            over_trigger = over_trigger + 1 if ratio > _RATIO_TRIGGER else 0
        state.deltas.append(delta)
        state.records.append({"n": n, "delta": delta, "ratio": ratio,
                              "horizon": state.horizon})
        if w_norm > state.ball_radius:
            state.ball_exceeded = True
        u = w
        if delta <= tol:
            state.converged = True
            return u
        if over_trigger >= 2:
            state.records[-1]["halved"] = "ratio"
            return None
    return u

