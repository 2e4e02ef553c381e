"""The benchmark workloads: configs, command sequences and gates.

Each workload is a sequence of real `hmflow` CLI commands that a user would
type, written as config sections plus argv.  `size="full"` is what the
benchmark measures; `size="smoke"` is a tiny variant that drives the same
commands and gates in seconds, for the benchmark's self-check.

Sizes are scaled so that one repetition of a sequence takes a few seconds
on a 2-core machine with one BLAS thread, which lets one run of the
benchmark repeat it several times and report medians.  The dominant layer
of each workload is unchanged by the scaling (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The Monte Carlo solve of `monte_carlo_forward` runs at this fixed seed.
# Its sup error is sampling noise: 3.9e-3 to 2.5e-2 over seeds 1-8, with
# an interquartile range wider than the median, which no end-to-end bound
# (at most 25 %) can hold.  The run seed goes to `simulate-forward`.
MC_SOLVE_SEED = 20210115


@dataclass
class Workload:
    name: str
    configs: dict          # config file name -> {section: {key: value}}
    commands: list         # argv lists; "{seed}" is replaced by the run seed
    # gates
    sup_error_tol: float
    sup_error_from: str    # "summary" (CLI reference) or "equivariant" (oracle)
    t0: float
    shapes: dict = field(default_factory=dict)

    @property
    def solve_config(self) -> str:
        """Config file of the first command, the solve."""
        argv = self.commands[0]
        return argv[argv.index("--config") + 1]


def _sphere(size):
    # 34 slices with a sine radius give 34 distinct heat-step parameters,
    # more than the 32 factorizations Sphere2 caches, so every pass refactors
    n_theta, n_phi, dt = 24, 48, 1e-3
    t0 = 0.034 if size == "full" else 0.01
    cfg = {
        "source": {"family": "sphere2", "profile": "sine", "amp": 0.2, "freq": 1.0,
                   "n_theta": n_theta, "n_phi": n_phi, "horizon": t0},
        "target": {"family": "sphere2"},
        "terminal": {"name": "equivariant", "amplitude": 0.3},
        "run": {"t0": t0, "dt": dt, "tol": 1e-10, "max_iter": 20,
                "sample_paths": 1000},
        "verify": {"field_file": "solve/field.csv", "sample_paths": 1000},
    }
    return Workload(
        name="sphere_sine_equivariant",
        configs={"sph.ini": cfg},
        commands=[["solve", "--config", "sph.ini", "--out", "solve", "--seed", "{seed}"],
                  ["verify", "--config", "sph.ini", "--out", "verify", "--seed", "{seed}"]],
        sup_error_tol=2e-3,
        sup_error_from="equivariant", t0=t0,
        shapes={"n_t": round(t0 / dt), "n_nodes": n_theta * n_phi,
                "sample_paths": 1000, "backend": "semigroup"})


def _mc(size):
    t0, dt, n_paths = (0.25, 5e-3, 5000) if size == "full" else (0.1, 1e-2, 1000)
    fwd_paths, fwd_dt = (5000, 1.0 / 256) if size == "full" else (1000, 1.0 / 32)
    solve_cfg = {
        "source": {"family": "circle", "profile": "sine", "amp": 0.2, "freq": 1.0,
                   "n_theta": 256, "horizon": 1.0},
        "target": {"family": "circle"},
        "terminal": {"name": "perturbed_geodesic", "amplitude": 0.3},
        "run": {"t0": t0, "dt": dt, "tol": 1e-10, "max_iter": 30,
                "n_paths": n_paths, "sample_paths": 1000},
    }
    fwd_cfg = {
        "source": {"family": "sphere2", "n_theta": 48, "n_phi": 96, "horizon": 1.0},
        "forward": {"x0": "0,0,1", "horizon": 1.0, "dt": fwd_dt,
                    "n_paths": fwd_paths},
    }
    return Workload(
        name="monte_carlo_forward",
        configs={"mc.ini": solve_cfg, "fwd.ini": fwd_cfg},
        commands=[["solve", "--config", "mc.ini", "--out", "solve",
                   "--seed", str(MC_SOLVE_SEED), "--backend", "monte-carlo"],
                  ["simulate-forward", "--config", "fwd.ini", "--out", "forward",
                   "--seed", "{seed}"]],
        sup_error_tol=3e-2, sup_error_from="summary", t0=t0,
        shapes={"n_t": round(t0 / dt), "n_nodes": 256, "n_paths": n_paths,
                "sample_paths": 1000, "backend": "monte_carlo",
                "forward_paths": fwd_paths, "forward_steps": round(1.0 / fwd_dt)})


_BUILDERS = {"sphere_sine_equivariant": _sphere, "monte_carlo_forward": _mc}

NAMES = tuple(_BUILDERS)


def get(name: str, size: str = "full") -> Workload:
    return _BUILDERS[name](size)


def ini_text(cfg: dict) -> str:
    lines = []
    for section, keys in cfg.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
        lines.append("")
    return "\n".join(lines)
