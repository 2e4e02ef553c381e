"""Design guards: source families stay behind the source interface and
each builds its own one-step operators, the demos import only names that
hmflow exports and the README's quick start runs, every random stream
domain is in use under its pinned number, every name the benchmark tracer
wraps still exists, no test skips itself, and the library runs on numpy
alone."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import hmflow
from hmflow import _rng
from hmflow.sources import Circle, SourceManifold, Sphere2

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = {"Circle", "Sphere2"}


def _names(node):
    """Plain and attribute names in an isinstance class argument."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_source_family_checks_outside_sources():
    offenders = []
    for path in sorted((ROOT / "src" / "hmflow").glob("*.py")):
        if path.name == "sources.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                hits = FAMILIES & set(_names(node.args[1]))
                if hits:
                    offenders.append(f"{path.name}:{node.lineno} {sorted(hits)}")
    assert not offenders, offenders


def test_demo_imports_resolve():
    missing = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "hmflow":
                missing += [f"{path.name}: {alias.name}" for alias in node.names
                            if not hasattr(hmflow, alias.name)]
    assert not missing, missing


def test_readme_quick_start_runs(capsys):
    # the documented library API: a change to what `solve` takes or returns breaks it
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out


def test_stream_domains_are_read_and_pinned():
    domains = {name: value for name, value in vars(_rng).items() if name.startswith("DOMAIN_")}
    # a domain's number is part of its keys: renumbering one moves all its streams
    assert domains == {"DOMAIN_FORWARD_PATH": 0, "DOMAIN_MC_SLICE": 1,
                       "DOMAIN_SAMPLE_PATH": 2, "DOMAIN_VERIFY_PATH": 4}
    read = set()
    for path in sorted((ROOT / "src" / "hmflow").glob("*.py")):
        if path.name == "_rng.py":
            continue
        read |= {node.id for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(set(domains) - read) == []


def test_traced_names_resolve():
    # perfbench/spans.py swaps these names for wrappers; a refactor that
    # moves one breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attr in spans.FUNCTIONS.values()
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [f"{cls.__name__}.{name}" for cls in (Circle, Sphere2)
                for name in spans.SOURCE_METHODS if name not in cls.__dict__]
    assert not missing, missing


def test_grid_rules_have_one_owner():
    # the grid check, the quadrature weights, the generator identity and the
    # curvature-compatibility bound are stated once, in SourceManifold
    shared = {"_require_grid", "volume_weights", "volume_weights_dt", "generator_residual",
              "ricci_bound"}
    assert {cls.__name__: sorted(shared & set(cls.__dict__)) for cls in (Circle, Sphere2)} \
        == {"Circle": [], "Sphere2": []}


def test_one_step_kernels_have_one_rule():
    # each family builds both one-step operators; heat_semigroup_step and
    # mc_step_mean apply them once, so the base class builds neither
    kernels = {"heat_semigroup_operator", "mc_step_operator"}
    assert kernels & set(SourceManifold.__dict__) == set()
    assert {cls.__name__: sorted(kernels & set(cls.__dict__)) for cls in (Circle, Sphere2)} \
        == {"Circle": sorted(kernels), "Sphere2": sorted(kernels)}


def test_no_test_skips():
    # a skipped test checks nothing: every test runs on the declared toolbox
    skipping = {"importorskip", "skip", "skipif", "xfail"}
    offenders = [f"{path.name}:{node.lineno} {node.attr}"
                 for path in sorted((ROOT / "tests").glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in skipping]
    assert not offenders, offenders


def test_library_imports_no_scipy():
    # numpy is the one runtime dependency: scipy serves the tests alone
    offenders = []
    for path in sorted((ROOT / "src" / "hmflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert not offenders, offenders


_SMALL_RUNS = """\
[run]
t0 = 0.05
dt = 2.5e-3
sample_paths = 32

[forward]
x0 = {x0}
horizon = 0.05
dt = 0.00625
n_paths = 64

[verify]
field_file = {name}_solve/field.csv
sample_paths = 32
"""
_SMALL_CONFIGS = {
    "circle": ("[source]\nfamily = circle\nn_theta = 32\nhorizon = 0.05\n"
               "[target]\nfamily = circle\n[terminal]\nname = perturbed_geodesic\n"
               + _SMALL_RUNS.format(name="circle", x0="0")),
    "sphere": ("[source]\nfamily = sphere2\nn_theta = 16\nn_phi = 32\nhorizon = 0.05\n"
               "[target]\nfamily = sphere2\n[terminal]\nname = equivariant\n"
               + _SMALL_RUNS.format(name="sphere", x0="0,0,1")),
}
_NO_SCIPY_RUN = """\
import sys
import hmflow.cli
from hmflow.verify import make_benchmark, pde_reference

for name in ("circle", "sphere"):
    for command in ("solve", "verify", "simulate-forward"):
        code = hmflow.cli.main([command, "--config", name + ".ini", "--out", name + "_" + command])
        assert code == 0, (name, command, code)
for name in ("flat_heat", "perturbed_geodesic", "equivariant_s2"):
    pde_reference(make_benchmark(name, horizon=0.05, n_x=32, n_theta=8, n_phi=16), n_t=5)
print(sorted(module for module in sys.modules if module.split(".")[0] == "scipy"))
"""


def test_cli_commands_and_references_load_no_scipy(tmp_path):
    # each CLI command and each pde_reference reduction, in a fresh interpreter
    for name, text in _SMALL_CONFIGS.items():
        (tmp_path / f"{name}.ini").write_text(text)
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN], cwd=tmp_path, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", run.stdout
