"""hmflow benchmark: time to an accurate solution through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout (the directory holding `src/hmflow`).
Each repetition runs the workload's command sequence in a fresh child
interpreter with BLAS and OpenMP pinned to one thread; repetitions continue
until S seconds have been spent, and every metric is the median over them.
Times are scaled to a reference host speed from calibration readings taken
between children (calibrate.py), so that the shared host's own swings in
speed cancel; the raw wall times are printed and kept as well.
A set-up probe (a fresh interpreter that imports hmflow, parses the config
and builds source, target and terminal) runs before every other repetition.

Every repetition must pass the correctness gates: all commands exit 0, the
solve converged without halving its horizon, the sup error against the
oracle is within the workload's tolerance, the verify verdict and the
forward moment check pass, and the contract output files hash identically
to the first repetition's.  With --trace 1, every other repetition is
traced and the per-layer metrics are reported; traced repetitions must
agree exactly on every call and byte count.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--smoke` drives every
workload at tiny size through every gate, traced and untraced, in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# the children and the calibration run on one thread
os.environ.update({var: "1" for var in THREAD_VARS})
import calibrate  # noqa: E402  (imports numpy after the thread variables are set)

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CONTRACT_FILES = ("field.csv", "iterations.json", "summary.json",
                  "error_vs_reference.csv", "verdict.json", "moments.json",
                  "paths.csv")
DEADLINE_S = 170.0        # a run must end within 180 s
LAYER_FUNCS = ("sources.interpolate_slice", "sources.heat_semigroup_step",
               "sources.frame_gradient", "sources.mc_step_mean",
               "sources.step_paths", "rng.path_normals", "forward.simulate",
               "bsde.picard_map", "bsde.sample_solution", "targets.sff_trace",
               "fields.c01_norm", "fields.difference_c01")


class Runner:
    """One benchmark run: repetitions of one workload at one seed."""

    def __init__(self, root: Path, workload, seed: int, trace: bool):
        root = root.resolve()
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
        self.out = root / ".perfbench_out"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.perf_counter() + DEADLINE_S
        self.reps = []
        self.setups = []        # (wall s, scale) of each set-up probe
        self.cal = None         # the last calibration reading
        self.ref_hashes = None
        self.ref_counts = None

    # -- children ------------------------------------------------------------

    def _child(self, args, cwd):
        """Run child.py; return the process, its wall time and its speed scale.

        The scale turns the wall time into seconds at the reference host
        speed: calibrate.REFERENCE_S over the mean of the calibration
        readings just before and just after the child.
        """
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        if self.cal is None:
            self.cal = calibrate.reading_s()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=cwd,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        wall = time.perf_counter() - start
        cal = calibrate.reading_s()
        scale = calibrate.REFERENCE_S / (0.5 * (self.cal + cal))
        self.cal = cal
        return proc, wall, scale

    def setup_probe(self) -> tuple:
        probe_dir = self.work / "setup"
        config = self.w.solve_config
        if not probe_dir.exists():
            probe_dir.mkdir(parents=True)
            (probe_dir / config).write_text(workloads.ini_text(self.w.configs[config]))
        proc, wall, scale = self._child(["setup", config], probe_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return wall, scale

    def repetition(self, index: int, traced: bool) -> dict:
        rep_dir = self.work / f"rep{index}"
        rep_dir.mkdir(parents=True)
        for name, cfg in self.w.configs.items():
            (rep_dir / name).write_text(workloads.ini_text(cfg))
        commands = [[a.replace("{seed}", str(self.seed)) for a in argv]
                    for argv in self.w.commands]
        spec = {"commands": commands, "trace": traced,
                "run_id": f"{self.w.name}/{self.seed}/{index}",
                "result_path": "result.json", "spans_path": "spans.csv"}
        (rep_dir / "spec.json").write_text(json.dumps(spec))
        rec = {"index": index, "traced": traced, "reasons": []}
        try:
            proc, rec["run_s"], rec["scale"] = self._child(["rep", "spec.json"], rep_dir)
        except subprocess.TimeoutExpired:
            rec["reasons"].append("timed out")
            return rec
        if proc.returncode != 0 or not (rep_dir / "result.json").exists():
            rec["reasons"].append(f"child exited {proc.returncode}: "
                                  f"{proc.stderr.strip()[-2000:]}")
            return rec
        result = json.loads((rep_dir / "result.json").read_text())
        rec.update(result)
        self._gate(rec, rep_dir, commands)
        if traced:
            rec["bytes_out"] = _bytes_out(rep_dir, commands)
            shutil.copy(rep_dir / "spans.csv", self.out / f"spans_{self.w.name}.csv")
        return rec

    # -- gates ---------------------------------------------------------------

    def _gate(self, rec, rep_dir, commands):
        reasons = rec["reasons"]
        codes = rec["returncodes"]
        if len(codes) != len(commands) or any(codes):
            reasons.append(f"command exit codes {codes}")
        if not (rep_dir / "solve" / "summary.json").exists():
            return
        summary = json.loads((rep_dir / "solve" / "summary.json").read_text())
        rec["summary"] = summary
        if not summary["converged"]:
            reasons.append("solve did not converge")
        if [round(h, 12) for h in summary["horizons_tried"]] != [self.w.t0]:
            reasons.append(f"horizon halved: {summary['horizons_tried']}")
        if self.w.sup_error_from == "summary":
            rec["sup_error"] = summary.get("reference_sup_error")
        if (rep_dir / "verify" / "verdict.json").exists():
            verdict = json.loads((rep_dir / "verify" / "verdict.json").read_text())
            if not verdict["all_pass"]:
                reasons.append(f"verify failed: {verdict['checks']}")
        if (rep_dir / "forward" / "moments.json").exists():
            moments = json.loads((rep_dir / "forward" / "moments.json").read_text())
            if not moments["pass"]:
                reasons.append(f"moment check failed: {moments}")
        hashes = _contract_hashes(rep_dir, commands)
        if self.ref_hashes is None:
            self.ref_hashes = hashes
        elif hashes != self.ref_hashes:
            changed = sorted(k for k in hashes if hashes[k] != self.ref_hashes.get(k))
            reasons.append(f"outputs differ from the first repetition: {changed}")
        if rec["traced"]:
            counts = _exact_counts(rec)
            if self.ref_counts is None:
                self.ref_counts = counts
            elif counts != self.ref_counts:
                reasons.append("traced call or byte counts differ between repetitions")

    def sup_error_gate(self):
        """Attach and check the sup error of every repetition that ran to the end."""
        done = [r for r in self.reps if "summary" in r]
        if self.w.sup_error_from == "equivariant" and done:
            first = self.work / f"rep{done[0]['index']}"
            proc, _, _ = self._child(["oracle", self.w.solve_config, "solve/field.csv"],
                                     first)
            if proc.returncode != 0:
                raise RuntimeError(f"oracle failed:\n{proc.stderr}")
            err = json.loads(proc.stdout.strip().splitlines()[-1])["sup_error"]
            # the other repetitions hash-match this one or have already failed
            for r in done:
                r["sup_error"] = err
        for r in done:
            err = r.get("sup_error")
            if err is None or not err <= self.w.sup_error_tol:
                r["reasons"].append(
                    f"sup_error {err} exceeds tolerance {self.w.sup_error_tol}")

    # -- the run ---------------------------------------------------------------

    def run(self, seconds: float, min_reps: int):
        self.work.mkdir(parents=True)
        self.out.mkdir(exist_ok=True)
        self.setup_probe()                    # warm-up: byte-compile, page cache
        begin = time.perf_counter()
        while True:
            index = len(self.reps)
            if index % 2 == 0 or len(self.setups) < 3:
                self.setups.append(self.setup_probe())
            self.reps.append(self.repetition(index, self.trace and index % 2 == 1))
            elapsed = time.perf_counter() - begin
            per_rep = elapsed / len(self.reps)
            if len(self.reps) >= min_reps and elapsed + per_rep > seconds:
                break
            if time.perf_counter() + 2 * per_rep > self.deadline - 20.0:
                break
        self.sup_error_gate()

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _out_dirs(rep_dir, commands):
    return [rep_dir / argv[argv.index("--out") + 1] for argv in commands]


def _contract_hashes(rep_dir, commands) -> dict:
    hashes = {}
    for out in _out_dirs(rep_dir, commands):
        for name in CONTRACT_FILES:
            path = out / name
            if path.exists():
                hashes[f"{out.name}/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def _bytes_out(rep_dir, commands) -> int:
    """Bytes the CLI wrote, leaving out run.log (it holds wall-clock times)."""
    return sum(p.stat().st_size for out in _out_dirs(rep_dir, commands)
               for p in out.iterdir() if p.name != "run.log")


def _exact_counts(rec) -> dict:
    counts = {name: agg["calls"] for name, agg in rec["layers"].items()}
    counts.update(rec["counters"])
    counts["n_spans"] = rec["n_spans"]
    return counts


def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def end_to_end(runner, scaled: bool = True) -> dict:
    """Medians over untraced repetitions; times at the reference host speed
    unless scaled is False (then raw wall times)."""
    untraced = [r for r in runner.reps if not r["traced"] and "command_s" in r]

    def t(wall, scale):
        return wall * scale if scaled else wall

    return {
        "setup_s": _median([t(wall, scale) for wall, scale in runner.setups]),
        "solve_s": _median([t(r["command_s"][0], r["scale"]) for r in untraced]),
        "run_s": _median([t(r["run_s"], r["scale"]) for r in untraced]),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024.0 for r in untraced]),
        "sup_error": _median([r["sup_error"] for r in untraced
                              if r.get("sup_error") is not None]),
    }


def _layer_metrics(rec) -> dict:
    layers, counters, summary = rec["layers"], rec["counters"], rec["summary"]

    def agg(name, key):
        return layers.get(name, {}).get(key, 0)

    m = {}
    for name in LAYER_FUNCS:
        for key in ("s", "self_s", "calls"):
            m[f"{name}_{key}"] = agg(name, key)
    n_t = summary["n_t"]
    passes = agg("bsde.picard_map", "calls")
    heat_calls = agg("sources.heat_semigroup_step", "calls")
    m["sources.heat_semigroup_step_us"] = (
        1e6 * agg("sources.heat_semigroup_step", "s") / heat_calls if heat_calls else 0.0)
    m["sources.frame_gradient_per_slice_pass"] = (
        agg("sources.frame_gradient", "calls") / (n_t * passes))
    m["rng.keyed_generator_s"] = agg("rng.keyed_generator", "s")
    m["rng.keyed_generator_calls"] = agg("rng.keyed_generator", "calls")
    sim_s = agg("forward.simulate", "s")
    m["forward.path_steps_per_s"] = counters.get("forward.path_steps", 0) / sim_s
    m["forward.increments_mb"] = counters.get("forward.increments_bytes", 0) / 1e6
    m["forward.moment_check_s"] = agg("forward.moment_check", "s")
    m["bsde.slice_step_us"] = 1e6 * agg("bsde.picard_map", "s") / (passes * n_t)
    m["fields.save_s"] = agg("fields.save", "s")
    m["fields.bytes_written"] = counters.get("fields.bytes_written", 0)
    m["fields.load_s"] = agg("fields.load", "s")
    m["fields.bytes_read"] = counters.get("fields.bytes_read", 0)
    m["picard.solve_s"] = agg("picard.solve", "s")
    m["picard.solve_self_s"] = agg("picard.solve", "self_s")
    m["picard.iterations"] = summary["iterations"]
    m["picard.halvings"] = len(summary["horizons_tried"]) - 1
    m["picard.wasted_pass_frac"] = (passes - summary["iterations"]) / passes
    for name in ("pde_reference", "tension_residual", "stay_on_target",
                 "weak_form_residual"):
        m[f"verify.{name}_s"] = agg(f"verify.{name}", "s")
    for name in ("solve", "verify", "simulate_forward"):
        m[f"cli.{name}_s"] = agg(f"cli.{name}", "s")
    m["cli.self_s"] = sum(agg(f"cli.{n}", "self_s")
                          for n in ("solve", "verify", "simulate_forward"))
    m["cli.bytes_out"] = rec["bytes_out"]
    m["trace.spans"] = rec["n_spans"]
    return m


def per_layer(runner) -> dict:
    traced = [r for r in runner.reps if r["traced"] and "summary" in r]
    untraced = [r for r in runner.reps if not r["traced"] and "run_s" in r]
    if not traced:
        return {}
    rows = [_layer_metrics(r) for r in traced]
    out = {name: _median([row[name] for row in rows]) for name in rows[0]}
    out["trace.overhead_frac"] = (
        _median([r["run_s"] * r["scale"] for r in traced])
        / _median([r["run_s"] * r["scale"] for r in untraced]) - 1.0)
    return out


def environment(root: Path, w, seed: int) -> dict:
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             text=True, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == root.resolve():
            sha = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hmflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "threads": 1,
        "seed": seed,
        "workload": w.name,
        "shapes": w.shapes,
    }


def measure(root, w, seed, seconds, trace, min_reps):
    runner = Runner(root, w, seed, trace)
    try:
        runner.run(seconds, min_reps)
    finally:
        runner.close()
    return runner


def _report(runner, metrics: dict, units: dict):
    failed = [r for r in runner.reps if r["reasons"]]
    for r in failed:
        print(f"repetition {r['index']} failed: {'; '.join(r['reasons'])}", file=sys.stderr)
    attempted = len(runner.reps)
    print(f"workload {runner.w.name} seed {runner.seed}: {attempted} repetitions, "
          f"{sum(r['traced'] for r in runner.reps)} traced")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units.get(name, '')}")
    print(f"  {'fail_frac':45s} {len(failed) / attempted:.6g} ratio")
    return attempted, len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hmflow" / "cli.py").is_file():
        print(f"no hmflow checkout at {root}: src/hmflow/cli.py is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(root, spec)
    if args.workload is None:
        parser.error("--workload is required")

    w = workloads.get(args.workload)
    runner = measure(root, w, args.seed, args.seconds, bool(args.trace),
                     min_reps=4 if args.trace else 3)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = per_layer(runner) if args.trace else end_to_end(runner)
    missing = set(units) ^ set(metrics)
    env = environment(root, w, args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    raw = {k: v for k, v in end_to_end(runner, scaled=False).items() if k.endswith("_s")}
    print("raw wall times (not scaled to the reference speed): "
          + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
          + f"; median scale {_median([r['scale'] for r in runner.reps if 'scale' in r]):.4f}")
    record = {"environment": env, "trace": args.trace, "metrics": metrics,
              "raw_wall": raw,
              "repetitions": [{k: v for k, v in r.items() if k != "layers"}
                              for r in runner.reps],
              "setup_s": runner.setups}
    (root / ".perfbench_out" / f"{w.name}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    attempted, failed = _report(runner, metrics, units)
    if missing or not all(math.isfinite(v) for v in metrics.values()):
        print(f"no result: metrics missing or not finite {sorted(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def smoke(root: Path, spec: dict) -> int:
    """All workloads at tiny sizes, traced and untraced, through every gate."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for name in workloads.NAMES:
        runner = measure(root, workloads.get(name, size="smoke"), 1, 0.0,
                         trace=True, min_reps=4)
        metrics = {**end_to_end(runner), **per_layer(runner)}
        missing = set(units) ^ set(metrics)
        attempted, failed = _report(runner, {k: metrics[k] for k in units if k in metrics},
                                    units)
        if missing:
            print(f"metric set differs from BENCHMARK.json: {sorted(missing)}",
                  file=sys.stderr)
        ok = ok and not failed and not missing
    print("smoke: PASS" if ok else "smoke: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
