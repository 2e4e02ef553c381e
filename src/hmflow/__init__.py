"""Harmonic-map heat flow with time-dependent source metric.

The library realizes the flow's stochastic representation: a forward
diffusion on the source manifold paired with a backward equation into the
target's ambient space, solved by iterating the backward-flow operator to
its fixed point and verified against closed-form reductions and geometric
invariants.
"""

from .bsde import (BsdeSolutionSample, bsde_residual, picard_map, sample_solution,
                   step_operators)
from .errors import (BlowUp, ConfigError, FieldLeftTube, GridTooCoarse,
                     HmflowError, HorizonMismatch, NoContraction,
                     PointNotOnManifold, PointOutsideTube, ShapeMismatch,
                     StepTooLarge, TerminalNotOnTarget, TimeOutOfRange,
                     UnsupportedReduction)
from .fields import MapField, c01_norm, difference_c01, sup_norm
from .forward import (PathEnsemble, moment_check, simulate, time_change,
                      weak_error_probe)
from .picard import PicardState, solve
from .sources import (Circle, RadiusProfile, SourceManifold, Sphere2,
                      constant_radius, shrinking_radius, sine_radius)
from .targets import (FlatSpace, TargetManifold, UnitSphere,
                      fit_g_inequality_constant, sff_finite_difference)
from .verify import (BenchmarkCase, StayOnTargetReport, circle_lift,
                     make_benchmark, pde_reference, semigroup_gradient_rate,
                     stay_on_target, tension_residual, terminal_case,
                     weak_form_residual)

__version__ = "0.1.0"
