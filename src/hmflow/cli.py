"""Command-line front end.

Three subcommands drive batch experiments from a sectioned key=value
config file: `solve` runs the fixed-point loop and writes the field plus
iteration and summary records, `simulate-forward` runs the forward
diffusion with moment checks, and `verify` re-checks a serialized field
against the independent residual oracles.

Every command echoes its config into the output directory and is
reproducible from config + seed: all emitted CSV/JSON is byte-identical
across reruns.  Wall-clock timing goes to run.log only, which is outside
that contract.  Exit codes: 0 success, 2 config/IO error (config values
are checked before any computing starts) or any other library error
(HmflowError, reported with its class name), 3 no contraction, 4
verification failure, 5 a solve that stopped at max_iter without
converging (its outputs are still written).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from ._rng import DOMAIN_VERIFY_PATH
from .bsde import sample_solution
from .errors import (ConfigError, FieldLeftTube, GridTooCoarse, HmflowError,
                     NoContraction, TerminalNotOnTarget, UnsupportedReduction)
from .fields import MapField
from .forward import moment_check, simulate, step_count
from .picard import solve
from .sources import Circle, Sphere2, constant_radius, shrinking_radius, sine_radius
from .targets import FlatSpace, UnitSphere
from .verify import (BenchmarkCase, pde_reference, stay_on_target,
                     tension_residual, terminal_case, weak_form_residual)

_SCHEMA = {
    "source": {
        "family": (str, "circle"),
        "profile": (str, "constant"),
        "radius": (float, 1.0),
        "amp": (float, 0.2),
        "freq": (float, 1.0),
        "n_theta": (int, 256),
        "n_phi": (int, 128),
        "horizon": (float, 1.0),
    },
    "target": {
        "family": (str, "circle"),
        "tube_radius": (float, 0.2),
        "ambient_dim": (int, 2),
    },
    "terminal": {
        "name": (str, "identity"),
        "amplitude": (float, 0.3),
        "winding": (int, 1),
    },
    "run": {
        "t0": (float, 0.25),
        "dt": (float, 1e-3),
        "tol": (float, 1e-10),
        "max_iter": (int, 40),
        "backend": (str, "semigroup"),
        "n_paths": (int, 10_000),
        "sample_paths": (int, 1000),
        "master_seed": (int, 12345),
        "antithetic": (bool, False),
        "plots": (bool, False),
    },
    "forward": {
        "x0": (str, "0"),
        "horizon": (float, 1.0),
        "dt": (float, 1.0 / 256),
        "n_paths": (int, 20_000),
        "antithetic": (bool, False),
        "dump_paths": (bool, True),
    },
    "verify": {
        "field_file": (str, ""),
        "test_fn": (str, "cos_theta"),
        "sample_paths": (int, 1000),
        "tension_tol": (float, 1e-2),
        "max_dist_tol": (float, 1e-2),
        "weak_form_tol": (float, 1e-3),
    },
}

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def load_config(path: str) -> dict:
    """Parse and validate a sectioned key=value config; unknown keys are fatal."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}")

    cfg = {sec: {key: default for key, (_, default) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in parser.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown config key '{key}' in section [{sec}]")
            typ, _ = _SCHEMA[sec][key]
            try:
                if typ is bool:
                    cfg[sec][key] = _BOOL[raw.strip().lower()]
                else:
                    cfg[sec][key] = typ(raw)
            except (KeyError, ValueError):
                raise ConfigError(
                    f"config key '{key}' in [{sec}]: cannot parse {raw!r} as "
                    f"{typ.__name__}")
            if typ is float and not math.isfinite(cfg[sec][key]):
                raise ConfigError(f"config key '{key}' in [{sec}] must be finite, got {raw!r}")
    for sec, keys in cfg.items():
        for key, val in keys.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                if key in ("t0", "dt", "tol", "radius", "horizon", "n_theta",
                           "n_phi", "sample_paths", "max_iter") and val <= 0:
                    raise ConfigError(f"config key '{key}' in [{sec}] must be positive")
    return cfg


def build_source(cfg: dict):
    sc = cfg["source"]
    if sc["profile"] == "constant":
        profile = constant_radius(sc["radius"])
    elif sc["profile"] == "sine":
        profile = sine_radius(sc["amp"], sc["freq"])
    elif sc["profile"] == "shrinking":
        profile = shrinking_radius()
    else:
        raise ConfigError(f"unknown radius profile {sc['profile']!r}")
    try:
        if sc["family"] == "circle":
            source = Circle(profile, n_theta=sc["n_theta"], horizon=sc["horizon"])
        elif sc["family"] == "sphere2":
            source = Sphere2(profile, n_theta=sc["n_theta"], n_phi=sc["n_phi"],
                             horizon=sc["horizon"])
        else:
            raise ConfigError(f"unknown source family {sc['family']!r}")
        source.check_grid()
    except (ValueError, GridTooCoarse) as exc:
        raise ConfigError(f"[source] {exc}")
    return source


def build_target(cfg: dict):
    tc = cfg["target"]
    try:
        if tc["family"] == "circle":
            return UnitSphere(1, tube_radius=tc["tube_radius"])
        if tc["family"] == "sphere2":
            return UnitSphere(2, tube_radius=tc["tube_radius"])
    except ValueError as exc:
        raise ConfigError(f"[target] tube_radius = {tc['tube_radius']}: {exc}")
    if tc["family"] == "flat":
        return FlatSpace(tc["ambient_dim"])
    raise ConfigError(f"unknown target family {tc['family']!r}")


def build_case(cfg: dict, source, target) -> BenchmarkCase:
    """The configured terminal map as a case of the problem registry."""
    tc = cfg["terminal"]
    case = terminal_case(tc["name"], source, target, cfg["run"]["t0"],
                         tc["amplitude"], tc["winding"])
    if case.terminal.shape[-1] != target.ambient_dim:
        raise ConfigError(f"[target] family = {cfg['target']['family']}: terminal {tc['name']!r} "
                          f"on {source!r} takes values in R^{case.terminal.shape[-1]}, not "
                          f"R^{target.ambient_dim}")
    return case


def build_terminal(cfg: dict, source, target):
    """Terminal map values on the grid, plus lift data for reference solutions."""
    case = build_case(cfg, source, target)
    return case.terminal, case.lift, case.winding


def _check_run(rc: dict, source):
    """Reject [run] values that the solve would only fail on later."""
    if rc["t0"] > source.horizon:
        raise ConfigError(f"[run] t0 = {rc['t0']} exceeds the source horizon "
                          f"{source.horizon}")
    try:
        step_count(source, 0.0, rc["t0"], rc["dt"])
    except (HmflowError, ValueError) as exc:
        raise ConfigError(f"[run] dt = {rc['dt']} with t0 = {rc['t0']}: {exc}")
    if rc["n_paths"] < 0:
        raise ConfigError(f"[run] n_paths = {rc['n_paths']} must not be negative")
    if rc["backend"] == "monte_carlo" and rc["antithetic"] and rc["n_paths"] % 2:
        raise ConfigError(f"[run] n_paths = {rc['n_paths']} must be even with "
                          "antithetic sampling")
    if rc["backend"] == "monte_carlo" and rc["n_paths"] == 0:
        raise ConfigError("[run] n_paths = 0: the monte_carlo backend needs at least "
                          "one path per node")


def _check_forward(fc: dict, source):
    """Reject bad [forward] values; returns the start point x0 on the source."""
    try:
        x0 = source.chart_point([float(v) for v in fc["x0"].split(",")])
    except ValueError as exc:
        raise ConfigError(f"[forward] x0 = {fc['x0']!r}: {exc}")
    if fc["n_paths"] < 2 or (fc["antithetic"] and fc["n_paths"] % 2):
        raise ConfigError(f"[forward] n_paths = {fc['n_paths']} must be at least 2 for a "
                          "standard error, and even with antithetic sampling")
    try:
        step_count(source, 0.0, fc["horizon"], fc["dt"])
    except (HmflowError, ValueError) as exc:
        raise ConfigError(f"[forward] horizon = {fc['horizon']}, dt = {fc['dt']}: {exc}")
    return x0


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _echo_config(config_path: str, out: Path):
    out.joinpath("config.ini").write_text(Path(config_path).read_text())


def cmd_solve(config_path: str, out_dir: str, seed: int | None,
              backend: str | None) -> int:
    cfg = load_config(config_path)
    rc = cfg["run"]
    if seed is not None:
        rc["master_seed"] = seed
    if backend is not None:
        rc["backend"] = backend.replace("-", "_")
    if rc["backend"] not in ("semigroup", "monte_carlo"):
        raise ConfigError(f"unknown backend {rc['backend']!r}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(config_path, out)
    source = build_source(cfg)
    target = build_target(cfg)
    case = build_case(cfg, source, target)
    _check_run(rc, source)

    start = time.perf_counter()
    try:
        field, state, sample = solve(
            source, target, case.terminal, rc["t0"], tol=rc["tol"],
            max_iter=rc["max_iter"], backend=rc["backend"], dt=rc["dt"],
            n_paths=rc["n_paths"], master_seed=rc["master_seed"],
            antithetic=rc["antithetic"], sample_paths=rc["sample_paths"])
    except NoContraction as exc:
        print(f"no contraction: {exc}", file=sys.stderr)
        out.joinpath("run.log").write_text(f"failed: {exc}\n")
        return 3
    wall = time.perf_counter() - start

    field.save(out / "field.csv", fmt="csv")
    _json_dump([{k: rec[k] for k in ("n", "delta", "ratio", "horizon")}
                for rec in state.records], out / "iterations.json")

    summary = {
        "converged": state.converged,
        "iterations": state.iterations,
        "final_delta": state.deltas[-1] if state.deltas else None,
        "horizon": state.horizon,
        "horizons_tried": state.horizons_tried,
        "ball_radius": state.ball_radius,
        "ball_exceeded": state.ball_exceeded,
        "backend": rc["backend"],
        "master_seed": rc["master_seed"],
        "n_t": field.n_t,
        "n_nodes": field.n_nodes,
        "sample_max_dist": float(np.max(target.distance(sample.y))),
    }
    case.horizon = state.horizon
    try:
        ref = pde_reference(case, n_t=field.n_t)
    except UnsupportedReduction:
        ref = None
    if ref is not None:
        err = np.linalg.norm(field.values - ref.values, axis=-1).max(
            axis=tuple(range(1, field.values.ndim - 1)))
        rows = ["slice,time,sup_error"]
        rows += [f"{j},{t:.17g},{e:.17g}" for j, (t, e) in enumerate(zip(field.times, err))]
        out.joinpath("error_vs_reference.csv").write_text("\n".join(rows) + "\n")
        summary["reference_sup_error"] = float(err.max())
        _write_benchmark_csv(out, field, ref)
    _json_dump(summary, out / "summary.json")
    if rc["plots"]:
        _emit_plots(out, state, field, ref)
    if state.converged:
        out.joinpath("run.log").write_text(
            f"solve finished in {wall:.3f} s, {state.iterations} iterations\n")
        return 0
    message = (f"solve did not converge: delta {state.deltas[-1]:.3g} > tol "
               f"{rc['tol']:g} after max_iter = {state.iterations} iterations")
    print(message, file=sys.stderr)
    out.joinpath("run.log").write_text(f"{message} ({wall:.3f} s)\n")
    return 5


def _write_benchmark_csv(out: Path, field, ref):
    """Named quantities of the solved field against the reference solution."""
    from .fields import c01_norm, sup_norm
    pairs = [
        ("c01_norm", c01_norm(field), c01_norm(ref)),
        ("sup_norm", sup_norm(field), sup_norm(ref)),
        ("slice0_sup_norm", float(np.linalg.norm(field.values[0], axis=-1).max()),
         float(np.linalg.norm(ref.values[0], axis=-1).max())),
        ("field_sup_deviation",
         float(np.linalg.norm(field.values - ref.values, axis=-1).max()), 0.0),
    ]
    rows = ["quantity,computed,reference,error"]
    rows += [f"{name},{a:.17g},{b:.17g},{abs(a - b):.17g}" for name, a, b in pairs]
    out.joinpath("benchmark.csv").write_text("\n".join(rows) + "\n")


def _emit_plots(out: Path, state, field, ref):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib unavailable; skipping plots", file=sys.stderr)
        return
    fig, axes = plt.subplots(1, 2 if ref is not None else 1, figsize=(9, 3.5))
    axes = np.atleast_1d(axes)
    axes[0].semilogy(range(1, len(state.deltas) + 1), state.deltas, "o-")
    axes[0].set_xlabel("iteration")
    axes[0].set_ylabel("delta")
    axes[0].set_title("fixed-point deltas")
    if ref is not None:
        err = np.linalg.norm(field.values - ref.values, axis=-1).max(
            axis=tuple(range(1, field.values.ndim - 1)))
        axes[1].semilogy(field.times, np.maximum(err, 1e-18))
        axes[1].set_xlabel("t")
        axes[1].set_ylabel("sup error")
        axes[1].set_title("error vs reference")
    fig.tight_layout()
    fig.savefig(out / "plots.svg")
    plt.close(fig)


def cmd_simulate_forward(config_path: str, out_dir: str, seed: int | None) -> int:
    cfg = load_config(config_path)
    fc = cfg["forward"]
    master_seed = seed if seed is not None else cfg["run"]["master_seed"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(config_path, out)
    source = build_source(cfg)
    x0 = _check_forward(fc, source)

    start = time.perf_counter()
    report = moment_check(source, 0.0, x0, fc["horizon"], fc["dt"],
                          fc["n_paths"], master_seed, antithetic=fc["antithetic"])
    report["master_seed"] = master_seed
    report["dt"] = fc["dt"]
    report["horizon"] = fc["horizon"]
    _json_dump(report, out / "moments.json")
    if fc["dump_paths"]:
        # re-simulate a small slice of paths for the dump; same seed, same paths
        ens = simulate(source, 0.0, x0, fc["horizon"], fc["dt"],
                       min(fc["n_paths"], 50), master_seed,
                       antithetic=fc["antithetic"])
        ens.to_csv(out / "paths.csv")
    out.joinpath("run.log").write_text(
        f"simulate-forward finished in {time.perf_counter() - start:.3f} s\n")
    return 0


def _resolve_test_fn(name: str, source):
    if name == "one":
        return np.ones(source.grid_shape)
    if name == "cos_theta":
        # cosine of the first chart angle, constant along the other grid axes
        cos = np.cos(source.thetas).reshape((-1,) + (1,) * (len(source.grid_shape) - 1))
        return np.broadcast_to(cos, source.grid_shape)
    raise ConfigError(f"unknown test function {name!r}")


def cmd_verify(config_path: str, out_dir: str, seed: int | None) -> int:
    cfg = load_config(config_path)
    vc = cfg["verify"]
    master_seed = seed if seed is not None else cfg["run"]["master_seed"]
    if not vc["field_file"]:
        raise ConfigError("verify needs 'field_file' in section [verify]")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _echo_config(config_path, out)
    source = build_source(cfg)
    target = build_target(cfg)
    field_path = Path(vc["field_file"])
    if not field_path.exists():
        field_path = Path(config_path).parent / vc["field_file"]
    try:
        field = MapField.load(field_path, source, target)
    except (OSError, ValueError, HmflowError) as exc:
        raise ConfigError(f"cannot load field file {vc['field_file']!r}: {exc}")

    checks = {}
    code = 0
    try:
        _, tension = tension_residual(source, target, field)
        checks["tension_residual"] = {
            "value": float(tension.max()),
            "threshold": vc["tension_tol"],
            "pass": bool(tension.max() <= vc["tension_tol"]),
        }
        ensemble = simulate(source, 0.0, "grid", field.horizon, field.dt,
                            vc["sample_paths"], master_seed, _domain=DOMAIN_VERIFY_PATH)
        report = stay_on_target(target, sample_solution(field, ensemble))
        checks["stay_on_target"] = {
            "value": report.max_dist,
            "threshold": vc["max_dist_tol"],
            "pass": bool(report.max_dist <= vc["max_dist_tol"]),
            "gronwall_c_fit": report.c_fit,
        }
        wf = weak_form_residual(source, field, _resolve_test_fn(vc["test_fn"], source))
        checks["weak_form_residual"] = {
            "value": wf,
            "threshold": vc["weak_form_tol"],
            "pass": bool(wf <= vc["weak_form_tol"]),
        }
    except FieldLeftTube as exc:
        checks["field_in_tube"] = {"pass": False, "error": str(exc)}
        code = 4
    verdict = {"checks": checks,
               "all_pass": bool(all(c.get("pass", False) for c in checks.values()))}
    _json_dump(verdict, out / "verdict.json")
    if code == 0 and not verdict["all_pass"]:
        code = 4
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hmflow",
        description="Harmonic-map heat flow via its forward-backward "
                    "stochastic representation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "simulate-forward", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="hmflow_out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--backend", choices=["semigroup", "monte-carlo"],
                       default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out, args.seed, args.backend)
        if args.command == "simulate-forward":
            return cmd_simulate_forward(args.config, args.out, args.seed)
        return cmd_verify(args.config, args.out, args.seed)
    except (ConfigError, TerminalNotOnTarget) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except HmflowError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
