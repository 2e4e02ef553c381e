"""Outside-in span tracing of hmflow's public functions.

`install` replaces the module attributes through which hmflow's own modules
call each other (for example `hmflow.picard.picard_map`, which `picard.solve`
looks up at call time), the source-manifold methods on `Circle` and
`Sphere2`, and `MapField.save` / `MapField.load`, with wrappers that record
one span per call.  Nothing under `src/` changes.

A span is (name, start, end, parent, run_id); spans stay in memory until
`Tracer.write` dumps them.  Self time is a span's duration minus the spans
directly nested in it.  The CLI runs single-threaded here (`threads = 0`),
so one call stack is enough.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of the original function
FUNCTIONS = {
    "targets.sff_trace": ("hmflow.targets", "sff_trace"),
    "rng.keyed_generator": ("hmflow._rng", "keyed_generator"),
    "rng.path_normals": ("hmflow._rng", "path_normals"),
    "forward.simulate": ("hmflow.forward", "simulate"),
    "forward.moment_check": ("hmflow.forward", "moment_check"),
    "bsde.picard_map": ("hmflow.bsde", "picard_map"),
    "bsde.sample_solution": ("hmflow.bsde", "sample_solution"),
    "fields.c01_norm": ("hmflow.fields", "c01_norm"),
    "fields.difference_c01": ("hmflow.fields", "difference_c01"),
    "picard.solve": ("hmflow.picard", "solve"),
    "verify.pde_reference": ("hmflow.verify", "pde_reference"),
    "verify.tension_residual": ("hmflow.verify", "tension_residual"),
    "verify.stay_on_target": ("hmflow.verify", "stay_on_target"),
    "verify.weak_form_residual": ("hmflow.verify", "weak_form_residual"),
    "cli.solve": ("hmflow.cli", "cmd_solve"),
    "cli.verify": ("hmflow.cli", "cmd_verify"),
    "cli.simulate_forward": ("hmflow.cli", "cmd_simulate_forward"),
}

SOURCE_METHODS = ("interpolate_slice", "heat_semigroup_step", "frame_gradient",
                  "mc_step_mean", "step_paths")


class Tracer:
    """Spans and exact counters of one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []        # [name, start, end, parent]
        self.counters = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, after=None):
        """Wrap fn so every call records a span; after(result, args) may count."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def aggregate(self) -> dict:
        """Per name: inclusive seconds, self seconds and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
            agg["calls"] += 1
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run_id\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{self.run_id}\n")


def install(tracer: Tracer):
    """Swap every hmflow reference to a traced function for its wrapper."""
    import hmflow.cli  # noqa: F401  (imports every hmflow module)
    from hmflow.fields import MapField
    from hmflow.sources import Circle, Sphere2

    counters = tracer.counters

    def after_simulate(ensemble, _):
        counters["forward.increments_bytes"] += ensemble.increments.nbytes
        counters["forward.path_steps"] += ensemble.n_steps * ensemble.n_paths

    def after_save(_, args):
        counters["fields.bytes_written"] += os.path.getsize(args[1])

    def after_load(_, args):
        counters["fields.bytes_read"] += os.path.getsize(args[1])

    modules = [m for name, m in sys.modules.items()
               if name == "hmflow" or name.startswith("hmflow.")]
    for span_name, (mod_name, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[mod_name], attr)
        after = after_simulate if span_name == "forward.simulate" else None
        wrapped = tracer.wrap(span_name, original, after)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    for cls in (Circle, Sphere2):
        for attr in SOURCE_METHODS:
            setattr(cls, attr, tracer.wrap(f"sources.{attr}", cls.__dict__[attr]))

    MapField.save = tracer.wrap("fields.save", MapField.save, after_save)
    MapField.load = classmethod(tracer.wrap(
        "fields.load", MapField.__dict__["load"].__func__, after_load))
