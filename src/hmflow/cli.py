"""Command-line front end.

Three subcommands drive batch experiments from a sectioned key=value
config file: `solve` runs the fixed-point loop and writes the field plus
iteration and summary records, `simulate-forward` runs the forward
diffusion with moment checks, and `verify` re-checks a serialized field
against the independent residual oracles.

Every command echoes its config into the output directory and is
reproducible from config + seed: all emitted CSV/JSON is byte-identical
across reruns.  Wall-clock timing goes to run.log only, which is outside
that contract.  Exit codes: 0 success, 2 config/IO error (the whole config
is checked before anything is written), an array too large for memory,
or any other library error (HmflowError, reported with its class name),
3 no contraction, 4 verification failure, 5 a solve that stopped at
max_iter without converging (its outputs are still written).
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

from ._linalg import row_dot
from ._rng import DOMAIN_SAMPLE_PATH, DOMAIN_VERIFY_PATH, SEED_LIMIT
from .bsde import sample_solution
from .errors import (ConfigError, FieldLeftTube, HmflowError, NoContraction,
                     UnsupportedReduction)
from .fields import MapField, _value_sup, c01_norm, sup_norm
from .forward import moment_check, simulate, step_count
from .picard import solve
from .sources import Circle, Sphere2, constant_radius, shrinking_radius, sine_radius
from .targets import FlatSpace, UnitSphere
from .verify import (BenchmarkCase, pde_reference, stay_on_target,
                     tension_residual, terminal_case, weak_form_residual)

# the names a config key allows, each with what it builds from its section, or a
# tuple of plain names
_PROFILES = {
    "constant": lambda sc: constant_radius(sc["radius"]),
    "sine": lambda sc: sine_radius(sc["amp"], sc["freq"]),
    "shrinking": lambda sc: shrinking_radius(),
}
_SOURCES = {
    "circle": lambda sc, profile: Circle(profile, sc["n_theta"], sc["horizon"]),
    "sphere2": lambda sc, profile: Sphere2(profile, sc["n_theta"], sc["n_phi"], sc["horizon"]),
}
_TARGETS = {
    "circle": lambda tc: UnitSphere(1, tube_radius=tc["tube_radius"]),
    "sphere2": lambda tc: UnitSphere(2, tube_radius=tc["tube_radius"]),
    "flat": lambda tc: FlatSpace(tc["ambient_dim"]),
}
_BACKENDS = ("semigroup", "monte_carlo")
_POSITIVE = "positive"   # a key's rule that its value be > 0

# section -> key -> (type or table of allowed names, default[, _POSITIVE])
_SCHEMA = {
    "source": {
        "family": (_SOURCES, "circle"),
        "profile": (_PROFILES, "constant"),
        "radius": (float, 1.0, _POSITIVE),
        "amp": (float, 0.2),
        "freq": (float, 1.0),
        "n_theta": (int, 256, _POSITIVE),
        "n_phi": (int, 128, _POSITIVE),
        "horizon": (float, 1.0, _POSITIVE),
    },
    "target": {
        "family": (_TARGETS, "circle"),
        "tube_radius": (float, 0.2),
        "ambient_dim": (int, 2),
    },
    "terminal": {
        "name": (str, "identity"),
        "amplitude": (float, 0.3),
        "winding": (int, 1),
    },
    "run": {
        "t0": (float, 0.25, _POSITIVE),
        "dt": (float, 1e-3, _POSITIVE),
        "tol": (float, 1e-10, _POSITIVE),
        "max_iter": (int, 40, _POSITIVE),
        "backend": (_BACKENDS, "semigroup"),
        "n_paths": (int, 10_000),
        "sample_paths": (int, 1000, _POSITIVE),
        "master_seed": (int, 12345),
    },
    "forward": {
        "x0": (str, "0"),
        "horizon": (float, 1.0, _POSITIVE),
        "dt": (float, 1.0 / 256, _POSITIVE),
        "n_paths": (int, 20_000),
    },
    "verify": {
        "field_file": (str, ""),
        "sample_paths": (int, 1000, _POSITIVE),
        "tension_tol": (float, 1e-2),
        "max_dist_tol": (float, 1e-2),
        "weak_form_tol": (float, 1e-3),
    },
}


def load_config(path: str) -> dict:
    """Parse and validate a sectioned key=value config; unknown keys are fatal.

    Each key's rules (its type, its allowed names, positivity) are checked
    where its value is read, before anything is built.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}")

    cfg = {sec: {key: default for key, (_, default, *_) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in parser.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown config key '{key}' in section [{sec}]")
            typ, _, *rules = _SCHEMA[sec][key]
            if not isinstance(typ, type):
                if raw not in typ:
                    raise ConfigError(f"config key '{key}' in [{sec}] is {raw!r}, not one of "
                                      f"{', '.join(typ)}")
                typ = str
            try:
                value = typ(raw)
            except ValueError:
                raise ConfigError(f"config key '{key}' in [{sec}]: cannot parse {raw!r} as "
                                  f"{typ.__name__}")
            if typ is float and not math.isfinite(value):
                raise ConfigError(f"config key '{key}' in [{sec}] must be finite, got {raw!r}")
            if _POSITIVE in rules and value <= 0:
                raise ConfigError(f"config key '{key}' in [{sec}] must be positive")
            cfg[sec][key] = value
    return cfg


def _checked(where: str, call, *args):
    """call(*args) on config values, any library error re-raised as a ConfigError.

    The message starts with `where`, the place the values are set.
    """
    try:
        return call(*args)
    except (ValueError, HmflowError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}")


def build_source(cfg: dict):
    sc = cfg["source"]
    return _checked("[source]", lambda: _SOURCES[sc["family"]](sc, _PROFILES[sc["profile"]](sc)))


def build_target(cfg: dict):
    tc = cfg["target"]
    return _checked(f"[target] tube_radius = {tc['tube_radius']}", _TARGETS[tc["family"]], tc)


def build_case(cfg: dict, source, target) -> BenchmarkCase:
    """The configured terminal map as a case of the problem registry."""
    tc = cfg["terminal"]
    case = _checked(f"[terminal] name = {tc['name']}", terminal_case, tc["name"], source, target,
                    cfg["run"]["t0"], tc["amplitude"], tc["winding"])
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
    _checked(f"[run] dt = {rc['dt']} with t0 = {rc['t0']}", step_count, source, rc["t0"], rc["dt"])
    if rc["n_paths"] < 0:
        raise ConfigError(f"[run] n_paths = {rc['n_paths']} must not be negative")
    if rc["backend"] == "monte_carlo":
        _checked(f"[run] n_paths = {rc['n_paths']}", source._check_path_count, rc["n_paths"])


def _check_forward(fc: dict, source):
    """Reject bad [forward] values; returns the start point x0 on the source."""
    x0 = _checked(f"[forward] x0 = {fc['x0']!r}",
                  lambda: source.chart_point([float(v) for v in fc["x0"].split(",")]))
    if fc["n_paths"] < 2:
        raise ConfigError(f"[forward] n_paths = {fc['n_paths']} must be at least 2 for a "
                          "standard error")
    _checked(f"[forward] horizon = {fc['horizon']}, dt = {fc['dt']}", step_count, source,
             fc["horizon"], fc["dt"])
    return x0


def _master_seed(cfg: dict, seed: int | None) -> int:
    """The run's master seed: --seed over [run] master_seed, each checked to fit a key word."""
    for name, value in (("[run] master_seed", cfg["run"]["master_seed"]), ("--seed", seed)):
        if value is not None and not 0 <= value < SEED_LIMIT:
            raise ConfigError(f"{name} = {value} must lie in [0, 2^64)")
    return cfg["run"]["master_seed"] if seed is None else seed


def _json_dump(obj, path: Path):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _start(config_path: str, seed: int | None):
    """Each command's start: (config, master seed, source), each checked."""
    cfg = load_config(config_path)
    return cfg, _master_seed(cfg, seed), build_source(cfg)


def _make_out(out_dir: str, config_path: str) -> Path:
    """The output directory with the config echoed in; made once the whole config is checked."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    out.joinpath("config.ini").write_text(Path(config_path).read_text())
    return out


def cmd_solve(config_path: str, out_dir: str, seed: int | None,
              backend: str | None) -> int:
    cfg, master_seed, source = _start(config_path, seed)
    rc = cfg["run"]
    rc["backend"] = backend.replace("-", "_") if backend else rc["backend"]
    target = build_target(cfg)
    case = build_case(cfg, source, target)
    _check_run(rc, source)
    out = _make_out(out_dir, config_path)

    start = time.perf_counter()
    try:
        field, state = solve(source, target, case.terminal, rc["t0"], tol=rc["tol"],
                             max_iter=rc["max_iter"], backend=rc["backend"], dt=rc["dt"],
                             n_paths=rc["n_paths"], master_seed=master_seed)
    except NoContraction as exc:
        print(f"no contraction: {exc}", file=sys.stderr)
        out.joinpath("run.log").write_text(f"failed: {exc}\n")
        return 3
    sample_max_dist = float(np.max(target.distance(
        sample_solution(field, rc["sample_paths"], master_seed, DOMAIN_SAMPLE_PATH).y)))
    wall = time.perf_counter() - start

    field.save(out / "field.csv")
    _json_dump(state.records, out / "iterations.json")

    summary = {
        "converged": state.converged,
        "iterations": state.iterations,
        "final_delta": state.deltas[-1] if state.deltas else None,
        "horizon": state.horizon,
        "horizons_tried": state.horizons_tried,
        "ball_radius": state.ball_radius,
        "ball_exceeded": state.ball_exceeded,
        "backend": rc["backend"],
        "master_seed": master_seed,
        "n_t": field.n_t,
        "n_nodes": field.n_nodes,
        "sample_max_dist": sample_max_dist,
    }
    case.horizon = state.horizon
    try:
        ref = pde_reference(case, n_t=field.n_t)
    except UnsupportedReduction:
        ref = None
    if ref is not None:
        diff = field.values - ref.values
        err = np.sqrt(row_dot(diff, diff)).max(axis=tuple(range(1, field.values.ndim - 1)))
        rows = ["slice,time,sup_error"]
        rows += [f"{j},{t:.17g},{e:.17g}" for j, (t, e) in enumerate(zip(field.times, err))]
        out.joinpath("error_vs_reference.csv").write_text("\n".join(rows) + "\n")
        summary["reference_sup_error"] = float(err.max())
        _write_benchmark_csv(out, field, ref, summary["reference_sup_error"])
    _json_dump(summary, out / "summary.json")
    log = ""
    if len(state.horizons_tried) > 1:
        log = (f"solve halved its horizon to {state.horizon:g}: horizons tried "
               f"{state.horizons_tried}\n")
        print(log, end="", file=sys.stderr)
    if state.converged:
        out.joinpath("run.log").write_text(
            f"{log}solve finished in {wall:.3f} s, {state.iterations} iterations\n")
        return 0
    message = (f"solve did not converge: delta {state.deltas[-1]:.3g} > tol "
               f"{rc['tol']:g} after max_iter = {state.iterations} iterations")
    print(message, file=sys.stderr)
    out.joinpath("run.log").write_text(f"{log}{message} ({wall:.3f} s)\n")
    return 5


def _write_benchmark_csv(out: Path, field, ref, sup_deviation: float):
    """Named quantities of the solved field against the reference solution.

    sup_deviation is the sup over slices and nodes of |field - ref|, which
    the solve has already taken for error_vs_reference.csv.
    """
    pairs = [
        ("c01_norm", c01_norm(field), c01_norm(ref)),
        ("sup_norm", sup_norm(field), sup_norm(ref)),
        ("slice0_sup_norm", _value_sup(field.values[0]), _value_sup(ref.values[0])),
        ("field_sup_deviation", sup_deviation, 0.0),
    ]
    rows = ["quantity,computed,reference,error"]
    rows += [f"{name},{a:.17g},{b:.17g},{abs(a - b):.17g}" for name, a, b in pairs]
    out.joinpath("benchmark.csv").write_text("\n".join(rows) + "\n")


def cmd_simulate_forward(config_path: str, out_dir: str, seed: int | None) -> int:
    cfg, master_seed, source = _start(config_path, seed)
    fc = cfg["forward"]
    x0 = _check_forward(fc, source)
    out = _make_out(out_dir, config_path)

    start = time.perf_counter()
    report = moment_check(source, x0, fc["horizon"], fc["dt"], fc["n_paths"], master_seed)
    report["master_seed"] = master_seed
    report["dt"] = fc["dt"]
    report["horizon"] = fc["horizon"]
    _json_dump(report, out / "moments.json")
    # re-simulate a small slice of paths for the dump; same seed, same paths
    ens = simulate(source, x0, fc["horizon"], fc["dt"], min(fc["n_paths"], 50), master_seed)
    ens.to_csv(out / "paths.csv")
    out.joinpath("run.log").write_text(
        f"simulate-forward finished in {time.perf_counter() - start:.3f} s\n")
    return 0


def cmd_verify(config_path: str, out_dir: str, seed: int | None) -> int:
    cfg, master_seed, source = _start(config_path, seed)
    vc = cfg["verify"]
    if not vc["field_file"]:
        raise ConfigError("verify needs 'field_file' in section [verify]")
    target = build_target(cfg)
    field_path = Path(vc["field_file"])
    if not field_path.exists():
        field_path = Path(config_path).parent / vc["field_file"]
    field = _checked(f"[verify] field_file = {vc['field_file']!r}: cannot load field file",
                     MapField.load, field_path, source, target)
    if field.n_t < 2:
        raise ConfigError(
            f"field file {vc['field_file']!r} holds {field.n_t + 1} slices; verify needs at "
            "least 3, so that the tension residual has an interior slice")
    out = _make_out(out_dir, config_path)

    def check(value, tol_key, **extra):
        return {"value": value, "threshold": vc[tol_key], "pass": bool(value <= vc[tol_key]),
                **extra}

    checks = {}
    code = 0
    try:
        _, tension = tension_residual(source, target, field)
        checks["tension_residual"] = check(float(tension.max()), "tension_tol")
        report = stay_on_target(sample_solution(field, vc["sample_paths"], master_seed,
                                                DOMAIN_VERIFY_PATH))
        checks["stay_on_target"] = check(report.max_dist, "max_dist_tol",
                                         gronwall_c_fit=report.c_fit)
        # the test function: cosine of the first chart angle, constant along the other axes
        cos_theta = np.cos(source.thetas).reshape((-1,) + (1,) * (source.dim - 1))
        checks["weak_form_residual"] = check(
            weak_form_residual(source, field, np.broadcast_to(cos_theta, source.grid_shape)),
            "weak_form_tol")
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
        if name == "solve":
            p.add_argument("--backend", choices=["semigroup", "monte-carlo"], default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "solve":
            return cmd_solve(args.config, args.out, args.seed, args.backend)
        if args.command == "simulate-forward":
            return cmd_simulate_forward(args.config, args.out, args.seed)
        return cmd_verify(args.config, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except (HmflowError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
