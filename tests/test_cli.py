import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hmflow.bsde as bsde_mod
from hmflow import cli
from hmflow._rng import DOMAIN_SAMPLE_PATH, DOMAIN_VERIFY_PATH
from hmflow.bsde import sample_solution
from hmflow.cli import (build_case, build_source, build_target, build_terminal,
                        load_config, main)
from hmflow.fields import MapField
from hmflow.forward import simulate
from hmflow.sources import Circle, Sphere2, constant_radius
from hmflow.targets import UnitSphere
from hmflow.verify import make_benchmark, pde_reference

PG_CONFIG = """\
[source]
family = circle
profile = constant
radius = 1.0
n_theta = 128
horizon = 0.5

[target]
family = circle

[terminal]
name = perturbed_geodesic
amplitude = 0.3

[run]
t0 = 0.5
dt = 2e-3
tol = 1e-10
master_seed = 42

[verify]
field_file = {field_file}
"""

FWD_CONFIG = """\
[source]
family = circle
profile = constant
n_theta = 64

[forward]
x0 = 0
horizon = 1.0
dt = 0.0078125
n_paths = 4000
"""

SPH_CONFIG = """\
[source]
family = sphere2
n_theta = 16
n_phi = 32
horizon = 0.05

[target]
family = sphere2

[terminal]
name = equivariant
amplitude = 0.3

[run]
t0 = 0.05
dt = 2.5e-3
tol = 1e-9
sample_paths = 64
"""

SPH_FWD_CONFIG = """\
[source]
family = sphere2
n_theta = 8
n_phi = 16

[forward]
x0 = 0,0,1
horizon = 0.5
dt = 0.015625
n_paths = 200
"""


def write_config(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_json(path):
    return json.loads(Path(path).read_text())


def test_solve_writes_outputs_and_is_reproducible(tmp_path):
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="unused"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in ("field.csv", "iterations.json", "summary.json",
                 "error_vs_reference.csv", "config.ini"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    summary = read_json(tmp_path / "a" / "summary.json")
    assert summary["converged"]
    assert summary["reference_sup_error"] <= 5e-3
    records = read_json(tmp_path / "a" / "iterations.json")
    assert records[0]["n"] == 1 and "wall_time" not in records[0]


def test_solve_field_file_loads_back(tmp_path):
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="unused"))
    main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    src = Circle(constant_radius(1.0), n_theta=128, horizon=0.5)
    field = MapField.load(tmp_path / "a" / "field.csv", src, UnitSphere(1))
    assert field.n_t == 250 and field.horizon == 0.5
    assert np.max(np.abs(np.linalg.norm(field.values, axis=-1) - 1.0)) < 1e-2


def test_unknown_config_key_exits_2_and_names_it(tmp_path, capsys):
    text = PG_CONFIG.format(field_file="x").replace(
        "master_seed = 42", "master_seed = 42\nbogus_key = 1")
    cfg = write_config(tmp_path, text)
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus_key" in err


def test_unknown_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[nonsense]\na = 1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "nonsense" in capsys.readouterr().err


# str keys that take any text, checked where they are used: by the terminal
# registry, as a chart point of the source, and by the field loader
_FREE_TEXT = {("terminal", "name"), ("forward", "x0"), ("verify", "field_file")}
_NAMED_KEYS = [pytest.param(sec, key, id=f"{sec}.{key}")
               for sec, keys in cli._SCHEMA.items() for key, (_, default, *_) in keys.items()
               if isinstance(default, str) and (sec, key) not in _FREE_TEXT]


@pytest.mark.parametrize("sec,key", _NAMED_KEYS)
def test_named_key_takes_its_names_and_rejects_others_at_the_key(tmp_path, capsys, sec, key):
    names = cli._SCHEMA[sec][key][0]
    assert not isinstance(names, type), f"[{sec}] {key} lists no allowed names"
    for name in names:
        assert load_config(write_config(tmp_path, f"[{sec}]\n{key} = {name}\n"))[sec][key] == name
    cfg = write_config(tmp_path, f"[{sec}]\n{key} = bogus\n")
    assert main(["simulate-forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config key '{key}' in [{sec}] is 'bogus', not one of {', '.join(names)}" in err
    assert not (tmp_path / "o").exists()


def _backticked(text):
    return set(re.findall(r"`([^`]+)`", text))


def test_readme_states_the_config_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the key lists of [run] and [forward]
    for sec, pattern in (("run", r"The `\[run\]` section takes (.*?)\.\s"),
                         ("forward", r"`\[forward\]` \(for `simulate-forward`\) takes (.*?)[.;]")):
        assert _backticked(re.search(pattern, readme, re.S).group(1)) == set(cli._SCHEMA[sec])
    # the keys that must be positive
    (positive,) = re.findall(r"([^.]*) must be positive\.", readme)
    assert _backticked(positive) == {key for keys in cli._SCHEMA.values()
                                     for key, (_, _, *rules) in keys.items()
                                     if cli._POSITIVE in rules}
    # one table row per key that takes a fixed set of names, listing each of them
    rows = {(sec, key): names for sec, key, names in
            re.findall(r"^\| `\[(\w+)\] (\w+)` \| (.*) \|$", readme, re.M)}
    named = {(sec, key): typ for sec, keys in cli._SCHEMA.items()
             for key, (typ, *_) in keys.items() if not isinstance(typ, type)}
    assert set(rows) == set(named)
    for sec_key, names in named.items():
        assert set(names) <= _backticked(rows[sec_key]), sec_key


@pytest.mark.parametrize("command", ["simulate-forward", "verify"])
def test_backend_flag_is_for_solve_only(tmp_path, capsys, command):
    cfg = write_config(tmp_path, FWD_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--backend", "semigroup"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_out_of_memory_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "solve", allocate)
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="x"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "745. GiB" in err and "Traceback" not in err


def test_out_that_is_a_file_exits_2_with_io_error(tmp_path, capsys):
    # a valid config is fully checked; only then does making the directory fail
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="x"))
    (tmp_path / "o").write_text("a file\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error:") and "Traceback" not in err
    assert (tmp_path / "o").read_text() == "a file\n"


def test_missing_config_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 2


def test_simulate_forward_moments_and_determinism(tmp_path):
    cfg = write_config(tmp_path, FWD_CONFIG)
    assert main(["simulate-forward", "--config", cfg,
                 "--out", str(tmp_path / "f1")]) == 0
    assert main(["simulate-forward", "--config", cfg,
                 "--out", str(tmp_path / "f2")]) == 0
    m = read_json(tmp_path / "f1" / "moments.json")
    assert m["pass"] and abs(m["zscore"]) <= 3.0
    assert (tmp_path / "f1" / "paths.csv").read_bytes() == \
        (tmp_path / "f2" / "paths.csv").read_bytes()
    assert (tmp_path / "f1" / "moments.json").read_bytes() == \
        (tmp_path / "f2" / "moments.json").read_bytes()
    lines = (tmp_path / "f1" / "paths.csv").read_text().splitlines()
    assert lines[0] == "path_id,step,time,theta"


def test_simulate_forward_seed_override_changes_sample(tmp_path):
    cfg = write_config(tmp_path, FWD_CONFIG)
    main(["simulate-forward", "--config", cfg, "--out", str(tmp_path / "s1"),
          "--seed", "1"])
    main(["simulate-forward", "--config", cfg, "--out", str(tmp_path / "s2"),
          "--seed", "2"])
    a = read_json(tmp_path / "s1" / "moments.json")
    b = read_json(tmp_path / "s2" / "moments.json")
    assert a["sample_mean"] != b["sample_mean"]
    assert a["master_seed"] == 1 and b["master_seed"] == 2


def test_verify_pass_and_failure_paths(tmp_path):
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="a/field.csv"))
    main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    verdict = read_json(tmp_path / "v" / "verdict.json")
    assert verdict["all_pass"]
    assert set(verdict["checks"]) == {"tension_residual", "stay_on_target",
                                      "weak_form_residual"}

    # tighten thresholds beyond reach: exit 4
    tight = PG_CONFIG.format(field_file="a/field.csv").replace(
        "field_file = a/field.csv", "field_file = a/field.csv\ntension_tol = 1e-12")
    cfg2 = write_config(tmp_path, tight, name="tight.ini")
    assert main(["verify", "--config", cfg2, "--out", str(tmp_path / "v2")]) == 4
    assert not read_json(tmp_path / "v2" / "verdict.json")["all_pass"]


def test_verify_draws_its_own_stream(tmp_path, monkeypatch):
    # the stay-on-target ensemble shares no normals with simulate-forward's
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="a/field.csv"))
    main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    drawn = []

    def recording(*args, **kwargs):
        drawn.append((args, simulate(*args, **kwargs)))
        return drawn[-1][1]

    monkeypatch.setattr(bsde_mod, "simulate", recording)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    (args, ensemble), = drawn
    forward = simulate(*args)   # the same call in the forward domain
    assert not np.any(np.isin(ensemble.increments, forward.increments))


def test_verify_corrupted_field_exits_2(tmp_path):
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="bad.csv"))
    (tmp_path / "bad.csv").write_text("not,a,field\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert not (tmp_path / "v").exists()


def _field_text(header, rows):
    return header + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


_THETAS = np.arange(32) * (2 * np.pi / 32)
_ROWS_3D = np.tile(np.stack([np.cos(_THETAS), np.sin(_THETAS), 0 * _THETAS], axis=-1), (5, 1))
_ROWS_2D = _ROWS_3D[:, :2]
BAD_FIELDS = [
    pytest.param(_field_text("4,32,3,0.5", _ROWS_3D), id="value_dim_past_target"),
    pytest.param("-1,32,2,0.5\n", id="no_slices"),
    pytest.param(_field_text("4,32,2,nan", _ROWS_2D), id="nan_horizon"),
    pytest.param(_field_text("4,32,2,2.0", _ROWS_2D), id="horizon_past_source"),
    pytest.param(b"HMF1" + np.array([4, 32, 2], dtype="<i8").tobytes()
                 + np.array([0.5], dtype="<f8").tobytes()
                 + _ROWS_2D.astype("<f8").tobytes(), id="retired_binary_format"),
]


@pytest.mark.parametrize("content", BAD_FIELDS)
def test_verify_field_that_does_not_fit_exits_2(tmp_path, capsys, content):
    text = _edit(PG_CONFIG.format(field_file="bad_field"), ("n_theta = 128", "n_theta = 32"))
    cfg = write_config(tmp_path, text)
    path = tmp_path / "bad_field"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "[verify] field_file = 'bad_field': cannot load field file" in err
    assert "Traceback" not in err and not (tmp_path / "v").exists()


def test_verify_header_only_field_exits_2_without_warning(tmp_path):
    # numpy's loader warns on an empty body; verify reports the shape error alone
    text = _edit(PG_CONFIG.format(field_file="f.csv"), ("n_theta = 128", "n_theta = 32"))
    cfg = write_config(tmp_path, text)
    (tmp_path / "f.csv").write_text("4,32,2,0.5\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "hmflow.cli", "verify", "--config", cfg,
                          "--out", str(tmp_path / "v")], capture_output=True, text=True, env=env)
    assert run.returncode == 2, run.stderr
    assert "header implies 320" in run.stderr and "Warning" not in run.stderr


def test_verify_field_of_two_slices_exits_2(tmp_path):
    # what a circle solve at t0 = dt writes: one step, so no interior slice to check
    src = Circle(constant_radius(1.0), n_theta=32, horizon=0.5)
    MapField.constant_in_time(src, UnitSphere(1), _ROWS_2D[:32], 2e-3, 1).save(tmp_path / "f.csv")
    text = _edit(PG_CONFIG.format(field_file="f.csv"), ("n_theta = 128", "n_theta = 32"))
    cfg = write_config(tmp_path, text)
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "hmflow.cli", "verify", "--config", cfg,
                          "--out", str(tmp_path / "v")], capture_output=True, text=True, env=env)
    assert run.returncode == 2, run.stderr
    assert "holds 2 slices" in run.stderr and "Traceback" not in run.stderr
    assert not (tmp_path / "v").exists()


def test_verify_rejects_unknown_test_fn_before_computing(tmp_path, capsys, monkeypatch):
    # verify takes no test function key: setting one stops it before any computing
    src = Circle(constant_radius(1.0), n_theta=32, horizon=0.5)
    MapField.constant_in_time(src, UnitSphere(1), _ROWS_2D[:32], 0.5, 4).save(tmp_path / "f.csv")
    text = _edit(PG_CONFIG.format(field_file="f.csv"), ("n_theta = 128", "n_theta = 32"),
                 ("field_file = f.csv", "field_file = f.csv\ntest_fn = cos_theta"))
    calls = []
    monkeypatch.setattr(cli, "tension_residual", lambda *args: calls.append(args))
    assert main(["verify", "--config", write_config(tmp_path, text),
                 "--out", str(tmp_path / "v")]) == 2
    assert "unknown config key 'test_fn'" in capsys.readouterr().err
    assert calls == []


def test_verify_missing_field_file_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, FWD_CONFIG)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert not (tmp_path / "v").exists()


def test_solve_backend_override_monte_carlo(tmp_path):
    text = PG_CONFIG.format(field_file="x").replace("t0 = 0.5", "t0 = 0.3") \
        .replace("dt = 2e-3", "dt = 5e-3") \
        .replace("name = perturbed_geodesic", "name = identity")
    text = text.replace("[target]\nfamily = circle", "[target]\nfamily = flat")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "mc"),
                 "--backend", "monte-carlo", "--seed", "5"]) == 0
    summary = read_json(tmp_path / "mc" / "summary.json")
    assert summary["backend"] == "monte_carlo"
    assert summary["master_seed"] == 5
    assert summary["converged"] and summary["iterations"] == 2


def test_solve_no_contraction_exits_3(tmp_path, monkeypatch):
    import hmflow.picard as picard_mod
    monkeypatch.setattr(picard_mod, "_MIN_HORIZON", 0.45)
    text = PG_CONFIG.format(field_file="x").replace(
        "amplitude = 0.3", "amplitude = 0.8").replace(
        "name = perturbed_geodesic", "name = winding").replace(
        "master_seed = 42", "master_seed = 42\nmax_iter = 30")
    text = text.replace("[terminal]\nname = winding",
                        "[terminal]\nname = winding\nwinding = 3")
    text = text.replace("horizon = 0.5", "horizon = 5.0").replace(
        "t0 = 0.5", "t0 = 2.0").replace("dt = 2e-3", "dt = 5e-3")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "nc")]) == 3


HALVING_CONFIG = """\
[source]
family = circle
n_theta = 128
horizon = 5.0

[target]
family = circle

[terminal]
name = winding
winding = 3

[run]
t0 = 2.0
dt = 5e-3
tol = 1e-9
max_iter = 30
sample_paths = 16
"""


def test_solve_that_converges_after_halving_says_so(tmp_path, capsys):
    cfg = write_config(tmp_path, HALVING_CONFIG)
    out = tmp_path / "h"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["converged"] and summary["horizons_tried"] == [2.0, 1.0, 0.5, 0.25]
    note = "horizons tried [2.0, 1.0, 0.5, 0.25]"
    assert note in capsys.readouterr().err
    log = (out / "run.log").read_text().splitlines()
    assert note in log[0] and log[-1].startswith("solve finished")
    # a solve at its first horizon stays quiet
    assert main(["solve", "--config", write_config(tmp_path, PG_CONFIG.format(field_file="x"),
                                                   "pg.ini"), "--out", str(tmp_path / "pg")]) == 0
    assert capsys.readouterr().err == ""


def test_solve_emits_benchmark_quantities(tmp_path):
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="x"))
    main(["solve", "--config", cfg, "--out", str(tmp_path / "bq")])
    lines = (tmp_path / "bq" / "benchmark.csv").read_text().splitlines()
    assert lines[0] == "quantity,computed,reference,error"
    table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
    assert float(table["field_sup_deviation"][0]) <= 5e-3
    assert float(table["c01_norm"][2]) <= 1e-2


def test_verify_field_left_tube_exits_4(tmp_path):
    # scale a valid field off the target: the tube check must surface as 4
    cfg = write_config(tmp_path, PG_CONFIG.format(field_file="scaled.csv"))
    main(["solve", "--config", cfg, "--out", str(tmp_path / "a")])
    src = Circle(constant_radius(1.0), n_theta=128, horizon=0.5)
    field = MapField.load(tmp_path / "a" / "field.csv", src, UnitSphere(1))
    field = MapField(field.times, 1.5 * field.values, field.source, field.target)
    field.save(tmp_path / "scaled.csv")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 4
    verdict = json.loads((tmp_path / "v" / "verdict.json").read_text())
    assert not verdict["all_pass"]
    assert not verdict["checks"]["field_in_tube"]["pass"]


def test_verify_flat_target_stay_trivially_zero(tmp_path):
    text = PG_CONFIG.format(field_file="f/field.csv").replace(
        "family = circle\n\n[terminal]", "family = flat\n\n[terminal]").replace(
        "name = perturbed_geodesic", "name = identity")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "f")]) == 0
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "vf")]) == 0
    verdict = json.loads((tmp_path / "vf" / "verdict.json").read_text())
    assert verdict["checks"]["stay_on_target"]["value"] == 0.0


def test_solve_identity_single_iteration_flag(tmp_path):
    text = PG_CONFIG.format(field_file="x").replace(
        "name = perturbed_geodesic", "name = identity").replace(
        "t0 = 0.5", "t0 = 0.25").replace("dt = 2e-3", "dt = 1e-3").replace(
        "tol = 1e-10", "tol = 1e-4")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    summary = json.loads((tmp_path / "one" / "summary.json").read_text())
    assert summary["converged"] and summary["iterations"] == 1


def test_solve_not_converged_exits_5_and_keeps_outputs(tmp_path, capsys):
    text = PG_CONFIG.format(field_file="x").replace(
        "master_seed = 42", "master_seed = 42\nmax_iter = 1")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "nc"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 5
    assert not read_json(out / "summary.json")["converged"]
    assert (out / "field.csv").exists() and (out / "iterations.json").exists()
    assert "did not converge" in (out / "run.log").read_text()
    assert "did not converge" in capsys.readouterr().err


def _edit(text, *pairs):
    for old, new in pairs:
        assert old in text
        text = text.replace(old, new)
    return text


PG_SOLVE = PG_CONFIG.format(field_file="x")
BAD_CONFIGS = [
    pytest.param("solve", _edit(PG_SOLVE, ("t0 = 0.5", "t0 = 0.8")), [], "t0",
                 id="t0_past_source_horizon"),
    pytest.param("solve", SPH_CONFIG + "n_paths = 0\n", ["--backend", "monte-carlo"],
                 "[run] n_paths", id="sphere_quadrature_fallback"),
    pytest.param("solve", _edit(PG_SOLVE, ("tol = 1e-10", "tol = 1e-10\nn_paths = 0")),
                 ["--backend", "monte-carlo"], "[run] n_paths", id="circle_monte_carlo_no_paths"),
    pytest.param("solve", _edit(PG_SOLVE, ("tol = 1e-10", "tol = 1e-10\nn_paths = -5")),
                 ["--backend", "monte-carlo"], "n_paths", id="negative_n_paths"),
    pytest.param("simulate-forward", _edit(SPH_FWD_CONFIG, ("x0 = 0,0,1", "x0 = abc")), [],
                 "x0", id="sphere_x0_not_numbers"),
    pytest.param("simulate-forward", _edit(FWD_CONFIG, ("horizon = 1.0", "horizon = 2.0")),
                 [], "horizon", id="forward_horizon_past_source"),
    pytest.param("simulate-forward", _edit(FWD_CONFIG, ("n_paths = 4000", "n_paths = 0")),
                 [], "n_paths", id="forward_no_paths"),
    pytest.param("simulate-forward", _edit(FWD_CONFIG, ("n_paths = 4000", "n_paths = 1")),
                 [], "n_paths", id="forward_one_path_has_no_stderr"),
    pytest.param("simulate-forward", _edit(FWD_CONFIG, ("dt = 0.0078125", "dt = 0.3")), [],
                 "dt", id="dt_does_not_divide_horizon"),
    # about 1e300 steps: no array can index their time nodes
    pytest.param("solve", _edit(PG_SOLVE, ("dt = 2e-3", "dt = 1e-300")), [], "[run] dt = 1e-300",
                 id="run_dt_too_many_steps"),
    pytest.param("simulate-forward", _edit(FWD_CONFIG, ("dt = 0.0078125", "dt = 1e-300")), [],
                 "dt = 1e-300", id="forward_dt_too_many_steps"),
    pytest.param("solve", _edit(PG_SOLVE, ("family = circle\n\n[terminal]",
                                           "family = circle\ntube_radius = 0.5\n\n[terminal]")),
                 [], "tube_radius", id="tube_radius_past_reach"),
    pytest.param("solve", _edit(PG_SOLVE, ("n_theta = 128", "n_theta = 4")), [], "n_theta",
                 id="grid_too_coarse"),
    pytest.param("solve", _edit(SPH_CONFIG, ("n_phi = 32", "n_phi = 31")), [], "n_phi",
                 id="odd_n_phi"),
    pytest.param("solve", _edit(SPH_CONFIG, ("[target]\nfamily = sphere2",
                                             "[target]\nfamily = circle")),
                 [], "[target] family", id="sphere_terminal_into_circle_target"),
    # the terminal registry's rejections name the key they come from
    pytest.param("solve", _edit(PG_SOLVE, ("name = perturbed_geodesic", "name = nosuch")), [],
                 "[terminal] name = nosuch:", id="circle_terminal_name_unknown"),
    pytest.param("solve", _edit(SPH_CONFIG, ("name = equivariant", "name = nosuch")), [],
                 "[terminal] name = nosuch:", id="sphere_terminal_name_unknown"),
    pytest.param("solve", _edit(PG_SOLVE, ("name = perturbed_geodesic", "name = great_circle")),
                 [], "[terminal] name = great_circle:", id="great_circle_into_circle_target"),
    # 0.05 / 0.03 is not a whole number of steps
    pytest.param("solve", _edit(SPH_CONFIG, ("dt = 2.5e-3", "dt = 0.03")), [], "[run] dt",
                 id="run_dt_does_not_divide_t0"),
    # 0.5 exceeds the stability bound rho^2 / 4 = 0.25
    pytest.param("solve", _edit(PG_SOLVE, ("family = circle\n\n[terminal]",
                                           "family = flat\n\n[terminal]"),
                                ("name = perturbed_geodesic", "name = identity"),
                                ("dt = 2e-3", "dt = 0.5")),
                 [], "[run] dt", id="run_dt_past_stability_bound"),
    # a non-finite number is named at its key, before any computing
    pytest.param("solve", _edit(PG_SOLVE, ("radius = 1.0", "radius = nan")), [], "'radius'",
                 id="source_radius_nan"),
    pytest.param("solve", _edit(PG_SOLVE, ("tol = 1e-10", "tol = nan")), [], "'tol'",
                 id="run_tol_nan"),
    pytest.param("simulate-forward", _edit(FWD_CONFIG, ("x0 = 0", "x0 = nan")), [], "x0",
                 id="circle_x0_nan"),
    pytest.param("simulate-forward", _edit(SPH_FWD_CONFIG, ("x0 = 0,0,1", "x0 = 1,0,inf")), [],
                 "x0", id="sphere_x0_inf"),
    # the plots key and its matplotlib output are gone
    pytest.param("solve", _edit(PG_SOLVE, ("master_seed = 42", "master_seed = 42\nplots = true")),
                 [], "unknown config key 'plots'", id="run_plots_retired"),
    # antithetic sampling, the paths.csv switch and the verify test function are gone;
    # a config that asks for antithetic pairs over an odd path count names the key
    pytest.param("solve", SPH_CONFIG + "n_paths = 7\nantithetic = true\n",
                 ["--backend", "monte-carlo"], "unknown config key 'antithetic'",
                 id="sphere_odd_antithetic_paths"),
    pytest.param("solve", _edit(PG_SOLVE, ("tol = 1e-10",
                                           "tol = 1e-10\nn_paths = 7\nantithetic = true")),
                 ["--backend", "monte-carlo"], "unknown config key 'antithetic'",
                 id="circle_odd_antithetic_paths"),
    pytest.param("simulate-forward",
                 _edit(FWD_CONFIG, ("n_paths = 4000", "n_paths = 7\nantithetic = true")),
                 [], "unknown config key 'antithetic'", id="odd_antithetic_paths"),
    pytest.param("simulate-forward", FWD_CONFIG + "dump_paths = false\n", [],
                 "unknown config key 'dump_paths'", id="forward_dump_paths_retired"),
    pytest.param("verify", _edit(PG_SOLVE, ("field_file = x", "field_file = x\ntest_fn = one")),
                 [], "unknown config key 'test_fn'", id="verify_test_fn_retired"),
    # a value that does not parse, a non-positive value of a positive key, no section header
    pytest.param("solve", _edit(PG_SOLVE, ("n_theta = 128", "n_theta = abc")), [],
                 "config key 'n_theta' in [source]: cannot parse 'abc' as int",
                 id="n_theta_not_an_int"),
    pytest.param("solve", _edit(PG_SOLVE, ("t0 = 0.5", "t0 = 0")), [],
                 "config key 't0' in [run] must be positive", id="t0_zero"),
    pytest.param("solve", _edit(PG_SOLVE, ("tol = 1e-10", "tol = 1e-10\nmax_iter = -3")), [],
                 "config key 'max_iter' in [run] must be positive", id="max_iter_negative"),
    pytest.param("solve", "n_theta = 64\n" + PG_SOLVE, [], "malformed config",
                 id="line_outside_any_section"),
]
# a master seed fills one 64-bit Philox key word, from --seed or from the config
_RUN_SEED = ("[run]\n", "[run]\nmaster_seed = {}\n")
_SEEDED = {"solve": (SPH_CONFIG, _RUN_SEED),
           "simulate-forward": (FWD_CONFIG + "\n[run]\n", _RUN_SEED),
           "verify": (PG_SOLVE, ("master_seed = 42", "master_seed = {}"))}
BAD_CONFIGS += [
    pytest.param(command, text, [f"--seed={seed}"], "--seed", id=f"{command}_seed_flag_{seed}")
    for command, (text, _) in _SEEDED.items() for seed in (-1, 2 ** 64)
] + [
    pytest.param(command, _edit(text, (old, new.format(seed))), [], "[run] master_seed",
                 id=f"{command}_seed_key_{seed}")
    for command, (text, (old, new)) in _SEEDED.items() for seed in (-1, 2 ** 64)
]


@pytest.mark.parametrize("command,text,extra,key", BAD_CONFIGS)
def test_bad_config_exits_2_with_message(tmp_path, capsys, command, text, extra, key):
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")] + extra) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,source,target,terminal", [
    ("flat_heat", "family = circle\nn_theta = 64", "family = flat", "identity"),
    ("identity_circle", "family = circle\nn_theta = 64", "family = circle", "identity"),
    ("perturbed_geodesic", "family = circle\nn_theta = 64", "family = circle",
     "perturbed_geodesic"),
    ("perturbed_geodesic_sine_metric",
     "family = circle\nn_theta = 64\nprofile = sine\namp = 0.2\nfreq = 1.0",
     "family = circle", "perturbed_geodesic"),
    ("great_circle_s2", "family = circle\nn_theta = 64", "family = sphere2", "great_circle"),
    ("equivariant_s2", "family = sphere2\nn_theta = 16\nn_phi = 32", "family = sphere2",
     "equivariant"),
])
def test_cli_terminal_matches_benchmark_registry(tmp_path, name, source, target, terminal):
    case = make_benchmark(name, horizon=0.1, n_x=64, n_theta=16, n_phi=32)
    text = (f"[source]\n{source}\nhorizon = 0.1\n\n[target]\n{target}\n\n"
            f"[terminal]\nname = {terminal}\n\n[run]\nt0 = 0.1\n")
    cfg = load_config(write_config(tmp_path, text))
    src, tgt = build_source(cfg), build_target(cfg)
    values, _, _ = build_terminal(cfg, src, tgt)
    np.testing.assert_array_equal(values, case.terminal)
    # the CLI's case carries the same reduction as the oracle's
    np.testing.assert_array_equal(pde_reference(build_case(cfg, src, tgt), n_t=4).values,
                                  pde_reference(case, n_t=4).values)


def test_sphere_equivariant_solve_reports_reference_error(tmp_path):
    cfg = write_config(tmp_path, SPH_CONFIG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    summary = read_json(tmp_path / "s" / "summary.json")
    tol = make_benchmark("equivariant_s2", horizon=0.05).tolerances["sup_error"]
    assert summary["reference_sup_error"] <= tol
    assert (tmp_path / "s" / "error_vs_reference.csv").exists()


def test_cli_writes_the_library_samples(tmp_path):
    # summary.json's sample_max_dist and verify's stay_on_target value are the
    # target distances of `sample_solution` on the saved field, drawn in the
    # sample and the verify stream domains
    text = SPH_CONFIG + "\n[verify]\nfield_file = s/field.csv\nsample_paths = 48\n"
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    summary = read_json(tmp_path / "s" / "summary.json")
    verdict = read_json(tmp_path / "v" / "verdict.json")
    config = load_config(cfg)
    target = build_target(config)
    field = MapField.load(tmp_path / "s" / "field.csv", build_source(config), target)

    def max_dist(n_paths, domain):
        sample = sample_solution(field, n_paths, summary["master_seed"], domain)
        return float(np.max(target.distance(sample.y)))

    assert summary["sample_max_dist"] == max_dist(64, DOMAIN_SAMPLE_PATH)
    assert verdict["checks"]["stay_on_target"]["value"] == max_dist(48, DOMAIN_VERIFY_PATH)


def test_solve_releases_its_sample_before_the_save(tmp_path, monkeypatch):
    # 1000 sample paths on an 8x16 grid: the sample holds about 40x the field's
    # values. It is drawn, and peaks, before the save; from the field's save on, the
    # reference phase sets the peak at 13.5x the values, or 53x with the sample kept.
    text = SPH_CONFIG.replace("n_theta = 16\nn_phi = 32\nhorizon = 0.05",
                              "n_theta = 8\nn_phi = 16\nhorizon = 0.02")
    text = text.replace("t0 = 0.05\ndt = 2.5e-3", "t0 = 0.02\ndt = 1e-3")
    cfg = write_config(tmp_path, text.replace("sample_paths = 64", "sample_paths = 1000"))
    argv = ["solve", "--config", cfg, "--out", str(tmp_path / "s")]
    assert main(argv) == 0   # warm caches
    save = MapField.save

    def save_from_a_fresh_peak(field, path):
        tracemalloc.reset_peak()
        save(field, path)

    monkeypatch.setattr(MapField, "save", save_from_a_fresh_peak)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    source = build_source(load_config(cfg))
    values = MapField.load(tmp_path / "s" / "field.csv", source, UnitSphere(2)).values
    assert values.shape == (21, 8, 16, 3)
    assert peak <= 20 * values.nbytes


def test_sphere_flat_target_writes_no_reference(tmp_path):
    # the equivariant reduction needs an S^2 target
    text = SPH_CONFIG.replace("[target]\nfamily = sphere2",
                              "[target]\nfamily = flat\nambient_dim = 3")
    cfg = write_config(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "f")]) == 0
    assert "reference_sup_error" not in read_json(tmp_path / "f" / "summary.json")
    assert not (tmp_path / "f" / "error_vs_reference.csv").exists()


def test_library_error_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    # an azimuthal mode operator with eigenvalues -1 +- i trips the eigenbasis guard
    mode_operator = Sphere2._mode_operator

    def patched(self, m):
        block = np.array([[-1.0, 1.0], [-1.0, -1.0]])
        return np.kron(np.eye(self.n_theta // 2), block) if m == 3 else mode_operator(self, m)

    monkeypatch.setattr(Sphere2, "_mode_operator", patched)
    cfg = write_config(tmp_path, SPH_CONFIG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err
    assert "HmflowError" in err and "azimuthal mode" in err
    assert "Traceback" not in err
