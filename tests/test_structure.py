"""Design guards: source families stay behind the source interface, the
demos import only names that hmflow exports, every random stream domain is
in use under its pinned number, and every name the benchmark tracer wraps
still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import hmflow
from hmflow import _rng
from hmflow.sources import Circle, Sphere2

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
    # the grid check and the quadrature weights are stated once, in SourceManifold
    shared = {"_require_grid", "volume_weights", "volume_weights_dt"}
    assert {cls.__name__: sorted(shared & set(cls.__dict__)) for cls in (Circle, Sphere2)} \
        == {"Circle": [], "Sphere2": []}
