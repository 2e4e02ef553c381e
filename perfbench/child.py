"""Child-process entry points of the benchmark; each runs in a fresh interpreter.

    child.py rep SPEC.json      run one repetition of a workload's command
                                sequence through `hmflow.cli.main`, in the
                                current directory, and write RESULT.json
    child.py setup CONFIG       import hmflow, parse CONFIG and build the
                                source, target and terminal (the set-up probe)
    child.py oracle CONFIG FIELD
                                print the sup ambient error of the equivariant
                                sphere FIELD against `pde_reference`

The parent process sets PYTHONPATH to the checkout's `src` and pins BLAS and
OpenMP to one thread before starting any of these.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it started, in KiB.

    VmHWM belongs to the address space exec created.  ru_maxrss does not
    reset at exec on Linux, so it also reports the parent's peak at fork.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_rep(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer(spec["run_id"])
        spans.install(tracer)
    import hmflow.cli

    result = {"returncodes": [], "command_s": []}
    for argv in spec["commands"]:
        start = time.perf_counter()
        code = hmflow.cli.main(argv)
        result["command_s"].append(time.perf_counter() - start)
        result["returncodes"].append(code)
        if code != 0:
            break
    result["maxrss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["counters"] = dict(tracer.counters)
        result["n_spans"] = len(tracer.spans)
        tracer.write(spec["spans_path"])
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


def run_setup(config_path: str) -> int:
    from hmflow import cli
    cfg = cli.load_config(config_path)
    source = cli.build_source(cfg)
    target = cli.build_target(cfg)
    cli.build_terminal(cfg, source, target)
    return 0


def run_oracle(config_path: str, field_path: str) -> int:
    import numpy as np
    from hmflow import cli
    from hmflow.fields import MapField
    from hmflow.verify import BenchmarkCase, pde_reference

    cfg = cli.load_config(config_path)
    source = cli.build_source(cfg)
    target = cli.build_target(cfg)
    terminal, _, _ = cli.build_terminal(cfg, source, target)
    field = MapField.load(field_path, source, target)
    amp = cfg["terminal"]["amplitude"]
    case = BenchmarkCase("equivariant_sine", source, target, field.horizon, terminal)
    case.psi_terminal = lambda th: th + amp * np.sin(th)
    ref = pde_reference(case, n_t=field.n_t)
    err = float(np.linalg.norm(field.values - ref.values, axis=-1).max())
    print(json.dumps({"sup_error": err}))
    return 0


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    sys.exit({"rep": run_rep, "setup": run_setup, "oracle": run_oracle}[mode](*args))
