import csv
import io
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfcx

import hmflow.fields as fields_mod
import hmflow.forward as forward_mod
from hmflow._rng import (DOMAIN_FORWARD_PATH, DOMAIN_MC_SLICE, DOMAIN_SAMPLE_PATH,
                         DOMAIN_VERIFY_PATH, keyed_generator, path_normals)
from hmflow.bsde import sample_solution
from hmflow.errors import StepTooLarge, TimeOutOfRange
from hmflow.forward import moment_check, simulate, step_count, time_change, weak_error_probe
from hmflow.picard import solve
from hmflow.sources import Circle, Sphere2, constant_radius, shrinking_radius, sine_radius
from hmflow.verify import make_benchmark


def test_zero_noise_paths_are_constant():
    c = Circle(constant_radius(1.0), n_theta=16)
    x = np.full(8, 0.7)
    for k in range(50):
        x, _ = c.step_paths(x, 0.01 * k, 0.01, np.zeros((8, 2)))
    np.testing.assert_array_equal(x, np.full(8, 0.7))
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    x0 = np.array([0.0, 0.6, 0.8])
    x = np.broadcast_to(x0, (4, 3))
    for k in range(20):
        x, _ = s.step_paths(x, 0.01 * k, 0.01, np.zeros((4, 3)))
    np.testing.assert_allclose(x, np.broadcast_to(x0, (4, 3)), atol=1e-14)


def test_seed_determinism():
    c = Circle(constant_radius(1.0), n_theta=16)
    a = simulate(c, 0.0, 0.5, 1 / 64, 500, 99)
    b = simulate(c, 0.0, 0.5, 1 / 64, 500, 99)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.increments, b.increments)
    d = simulate(c, 0.0, 0.5, 1 / 64, 500, 100)
    assert not np.array_equal(a.states, d.states)


@pytest.mark.parametrize("domain", [DOMAIN_FORWARD_PATH, DOMAIN_SAMPLE_PATH],
                         ids=["forward", "sample"])
def test_path_reads_its_own_stream(domain):
    dt = 1 / 64
    for source, x0 in ((Circle(constant_radius(1.0), n_theta=16), 0.0),
                       (Sphere2(constant_radius(1.0), n_theta=8, n_phi=16),
                        np.array([0.0, 0.0, 1.0]))):
        ens = simulate(source, x0, 0.25, dt, 6, 5, _domain=domain)
        for p in range(6):
            expected = np.sqrt(dt) * path_normals(5, domain, p, 16, source.ambient_dim)
            np.testing.assert_array_equal(ens.increments[:, p], expected)


def test_leading_paths_do_not_depend_on_ensemble_size():
    # simulate-forward dumps the first paths of its moment ensemble this way
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    x0 = np.array([0.0, 0.6, 0.8])
    big = simulate(s, x0, 0.25, 1 / 64, 64, 5)
    small = simulate(s, x0, 0.25, 1 / 64, 16, 5)
    np.testing.assert_array_equal(big.increments[:, :16], small.increments)
    np.testing.assert_array_equal(big.states[:, :16], small.states)


def test_path_normals_equal_keyed_generator_streams():
    # the re-keyed shared Philox against a freshly built generator, with the
    # two kinds of call interleaved and two streams alternating
    triples = [(7, DOMAIN_FORWARD_PATH, 5), (0, DOMAIN_MC_SLICE, 0),
               (123456789, DOMAIN_SAMPLE_PATH, 4999),
               (2 ** 64 - 1, DOMAIN_VERIFY_PATH, 2 ** 56 - 1), (7, DOMAIN_FORWARD_PATH, 6)]
    for _ in range(2):
        for seed, domain, index in triples:
            fresh = keyed_generator(seed, domain, index).standard_normal((33, 3))
            np.testing.assert_array_equal(path_normals(seed, domain, index, 33, 3), fresh)
    a = path_normals(7, DOMAIN_FORWARD_PATH, 5, 40, 2)
    b = path_normals(7, DOMAIN_FORWARD_PATH, 6, 40, 2)
    np.testing.assert_array_equal(path_normals(7, DOMAIN_FORWARD_PATH, 5, 40, 2), a)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, index", [(-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 56)])
def test_streams_reject_keys_out_of_range(seed, index):
    for draw in (lambda: keyed_generator(seed, DOMAIN_FORWARD_PATH, index),
                 lambda: path_normals(seed, DOMAIN_FORWARD_PATH, index, 4, 2)):
        with pytest.raises(ValueError, match="out of range"):
            draw()


def test_per_path_starts_are_checked_before_any_draw(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return path_normals(*args)

    monkeypatch.setattr(forward_mod, "path_normals", counting)
    # a start is one chart point or "grid": per-path starts of the right
    # length are rejected too
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    c = Circle(constant_radius(1.0), n_theta=16)
    for source, starts in ((s, np.tile([0.0, 0.0, 1.0], (8, 1))), (c, np.zeros(8))):
        for check in (simulate, moment_check):
            with pytest.raises(ValueError, match="one chart point of shape"):
                check(source, starts, 0.25, 1 / 64, 8, 3)
    assert calls == []


def test_moment_check_rejects_a_start_spec_the_observable_cannot_take(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return path_normals(*args)

    monkeypatch.setattr(forward_mod, "path_normals", counting)
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    # the sphere's observable <X, x0> needs one start vector, not grid starts
    with pytest.raises(ValueError, match="start spec 'grid'"):
        moment_check(s, "grid", 0.25, 1 / 64, 20, 3)
    assert calls == []


def test_solve_sample_reads_the_sample_domain():
    # the sample the CLI's solve draws of its fixed point
    case = make_benchmark("flat_heat", horizon=0.1, n_x=16)
    field, _ = solve(case.source, case.target, case.terminal, 0.1, dt=0.01, master_seed=3)
    sample = sample_solution(field, 8, 3, DOMAIN_SAMPLE_PATH)
    own = simulate(case.source, "grid", 0.1, 0.01, 8, 3,
                   _domain=DOMAIN_SAMPLE_PATH)
    forward = simulate(case.source, "grid", 0.1, 0.01, 8, 3)
    np.testing.assert_array_equal(sample.ensemble.increments, own.increments)
    assert not np.any(sample.ensemble.increments == forward.increments)


def test_step_and_time_guards():
    c = Circle(constant_radius(1.0), n_theta=16, horizon=1.0)
    with pytest.raises(StepTooLarge):
        simulate(c, 0.0, 1.0, 0.5, 4, 1)
    with pytest.raises(TimeOutOfRange):
        simulate(c, 0.0, 1.5, 0.01, 4, 1)
    with pytest.raises(ValueError):
        simulate(c, 0.0, 1.0, 0.0301, 4, 1)   # does not divide


@pytest.mark.parametrize("dt", [1e-300, 5e-324])
def test_step_count_rejects_more_steps_than_an_array_can_index(dt):
    # 0.1 / 5e-324 overflows to inf; 0.1 / 1e-300 is finite but far past intp
    with pytest.raises(ValueError, match="than an array can index"):
        simulate(Circle(constant_radius(1.0), n_theta=16), 0.0, 0.1, dt, 4, 1)


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan")])
def test_step_count_rejects_a_step_that_is_not_positive(dt):
    # checked before the span is divided by dt
    with pytest.raises(ValueError, match="must be positive"):
        step_count(Circle(constant_radius(1.0), n_theta=16), 0.5, dt)


def test_circle_moment_decay():
    c = Circle(constant_radius(1.0), n_theta=16)
    rep = moment_check(c, 0.0, 1.0, 1 / 256, 20_000, 42)
    assert rep["pass"], rep
    assert rep["expected"] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_sphere_moment_decay():
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    rep = moment_check(s, np.array([0.0, 0.0, 1.0]), 0.5, 1 / 128, 20_000, 7)
    assert rep["pass"], rep
    assert rep["expected"] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_moment_check_fails_without_spread(monkeypatch):
    # with zero increments every path stays at x0, so the observable <X, x0>
    # is 1 on every path, the standard error is zero and the 3-sigma test
    # measures nothing
    def no_spread(seed, domain, p, n_steps, dim, out):
        out[...] = 0.0
        return out

    monkeypatch.setattr(forward_mod, "path_normals", no_spread)
    s = Sphere2(n_theta=8, n_phi=16)
    rep = moment_check(s, np.array([0.0, 0.0, 1.0]), 0.25, 1 / 64, 20, 3)
    assert rep["stderr"] == 0.0 and rep["sample_mean"] == 1.0
    assert rep["pass"] is False


@pytest.mark.parametrize("family,start,message", [
    ("sphere", [0.0, 0.0, 2.0], "is not a point of Sphere2"),
    ("sphere", [0.0, 0.0, 0.0], "not all zero"),
    ("circle", np.nan, "one finite angle"),
], ids=["sphere_norm_2", "sphere_zero", "circle_nan"])
def test_a_start_off_the_source_is_rejected_before_any_draw(monkeypatch, family, start, message):
    calls = []

    def counting(*args):
        calls.append(args)
        return path_normals(*args)

    monkeypatch.setattr(forward_mod, "path_normals", counting)
    source = Sphere2(n_theta=8, n_phi=16) if family == "sphere" else Circle(n_theta=16)
    for check in (simulate, moment_check):
        with pytest.raises(ValueError, match=message):
            check(source, np.array(start), 0.25, 1 / 64, 20, 3)
    assert calls == []


@pytest.mark.parametrize("n_paths", [0, 1])
def test_moment_check_needs_two_paths(n_paths):
    # one path has a NaN standard error, which used to pass the 3-sigma check
    with pytest.raises(ValueError, match="n_paths"):
        moment_check(Circle(n_theta=16), 0.0, 0.5, 1 / 64, n_paths, 3)


_SPHERE = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16)
_CIRCLE = Circle(sine_radius(0.2, 1.0), n_theta=16)


@pytest.mark.parametrize("source, x", [
    (_CIRCLE, 0.3), (_CIRCLE, "grid"), (_SPHERE, np.array([0.0, 0.6, 0.8])),
], ids=["circle", "circle_grid", "sphere"])
def test_moment_check_does_not_depend_on_block_size(monkeypatch, source, x):
    # 16 steps; caps worth less than one path (blocks of one), 2 paths, 7
    # paths (a ragged last block) and far more than the 22 paths
    path_points = 16 * source.ambient_dim
    reports = []
    for cap in (1, 2 * path_points, 7 * path_points + 5, 1 << 40):
        monkeypatch.setattr(forward_mod, "_PATH_BLOCK_POINTS", cap)
        reports.append(moment_check(source, x, 0.25, 1 / 64, 22, 17))
    assert all(report == reports[0] for report in reports)
    # the blocks step the paths that simulate keeps whole
    ens = simulate(source, x, 0.25, 1 / 64, 22, 17)
    assert reports[0]["sample_mean"] == float(np.mean(source.first_harmonic(ens.states[-1], x)))
    assert reports[0]["max_constraint_violation"] == ens.max_violation


def test_moment_check_memory_is_one_block(monkeypatch):
    # 2000 paths x 128 steps on the sphere in blocks of 64 paths: the whole
    # ensemble would hold 6.1 MB of increments and as much again in states
    monkeypatch.setattr(forward_mod, "_PATH_BLOCK_POINTS", 64 * 128 * 3)
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    full_increments = 128 * 2000 * 3 * 8
    moment_check(s, np.array([0.0, 0.0, 1.0]), 0.5, 1 / 256, 64, 5)   # warm caches
    tracemalloc.start()
    try:
        rep = moment_check(s, np.array([0.0, 0.0, 1.0]), 0.5, 1 / 256, 2000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["pass"], rep
    assert peak <= full_increments / 10


@pytest.mark.parametrize("paths", [range(0, 40), range(6, 36)], ids=["from_0", "from_6"])
def test_draw_increments_does_not_depend_on_tile_size(monkeypatch, paths):
    # 16 steps; caps worth one path, 7 paths (a ragged last tile) and far more than the range
    path_points = 16 * 3
    draws = []
    for cap in (1, 7 * path_points + 5, 1 << 40):
        monkeypatch.setattr(forward_mod, "_INCREMENT_TILE_POINTS", cap)
        draws.append(forward_mod._draw_increments(9, DOMAIN_FORWARD_PATH, paths, 16, 3,
                                                  1 / 64))
    # path by path: path p reads its own stream
    ref = np.stack([np.sqrt(1 / 64) * path_normals(9, DOMAIN_FORWARD_PATH, p, 16, 3)
                    for p in paths], axis=1)
    for drawn in draws:
        assert drawn.tobytes() == ref.tobytes()


def test_time_change_law():
    # with rho(t) = 1 + 0.2 sin t the decay integrates rho^-2
    cs = Circle(sine_radius(0.2, 1.0), n_theta=16, horizon=1.0)
    rep = moment_check(cs, 0.0, 1.0, 1 / 256, 20_000, 9)
    assert rep["pass"], rep
    tau = time_change(cs.profile, 0.0, 1.0)
    assert rep["expected"] == pytest.approx(np.exp(-tau / 2), rel=1e-9)
    ss = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16, horizon=1.0)
    rep = moment_check(ss, np.array([0.0, 0.0, 1.0]), 0.5, 1 / 128, 20_000, 11)
    assert rep["pass"], rep


def _shrinking_tau(t0, t1):
    return 0.5 * np.log((1.0 - 2.0 * t0) / (1.0 - 2.0 * t1))


@pytest.mark.parametrize("profile, t0, t1, exact", [
    (constant_radius(1.7), 0.1, 0.9, 0.8 / 1.7 ** 2),
    (constant_radius(1.0), 0.0, 1.0, 1.0),
    (shrinking_radius(), 0.0, 0.45, _shrinking_tau(0.0, 0.45)),
    (shrinking_radius(), 0.4, 0.499, _shrinking_tau(0.4, 0.499)),
    (shrinking_radius(), 0.0, 0.4999, _shrinking_tau(0.0, 0.4999)),
])
def test_time_change_closed_forms(profile, t0, t1, exact):
    # near t = 1/2 the shrinking radius makes the integrand blow up, so panels bisect
    assert time_change(profile, t0, t1) == pytest.approx(exact, rel=1e-13, abs=0.0)


# quad reports roundoff when it cannot prove 1e-14; its value still matches to about 1e-15
@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (0.1, 0.9), (0.5, 0.501), (0.0, 0.034)])
def test_time_change_matches_adaptive_quadrature(t0, t1):
    profile = sine_radius(0.5, 3.0)
    ref, _ = quad(lambda s: profile(s) ** -2, t0, t1, epsabs=1e-17, epsrel=1e-14, limit=200)
    assert time_change(profile, t0, t1) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_time_change_rejects_a_vanishing_radius():
    # the shrinking radius reaches 0 at t = 1/2, where rho^-2 stops being integrable
    with pytest.raises(ValueError, match="did not converge"):
        time_change(shrinking_radius(), 0.0, 0.5)
    with pytest.raises(ValueError, match="not positive"):
        time_change(shrinking_radius(), 0.0, 0.6)


def test_sphere_constraint_violation_linear_in_dt():
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    x0 = np.array([0.0, 0.0, 1.0])
    viol = {}
    for dt in (1 / 64, 1 / 128):
        ens = simulate(s, x0, 0.5, dt, 5_000, 13)
        viol[dt] = ens.max_violation
        assert ens.max_violation <= 25.0 * dt
    assert viol[1 / 128] < viol[1 / 64]


def test_weak_error_probe_circle_second_order():
    c = Circle(constant_radius(1.0), n_theta=128)
    tab = weak_error_probe(c, 0.0, 0.0, np.cos, [1e-1, 1e-2, 1e-3, 1e-4])
    slope = np.polyfit(np.log(tab[:, 0]), np.log(tab[:, 1]), 1)[0]
    assert 1.8 <= slope <= 2.2
    # leading coefficient of the residual is h^2/8 for this eigenfunction
    assert tab[-1, 1] == pytest.approx(tab[-1, 0] ** 2 / 8, rel=1e-3)


def test_weak_error_probe_constant_function():
    c = Circle(constant_radius(1.0), n_theta=128)
    tab = weak_error_probe(c, 0.0, 0.3, lambda th: np.ones_like(np.asarray(th, float)),
                           [1e-1, 1e-2])
    assert np.all(tab[:, 1] <= 1e-12)


def test_weak_error_probe_time_dependent_metric():
    c = Circle(sine_radius(0.2, 1.0), n_theta=128, horizon=1.0)
    tab = weak_error_probe(c, 0.5, 0.2, np.cos, [1e-1, 1e-2, 1e-3])
    slope = np.polyfit(np.log(tab[:, 0]), np.log(tab[:, 1]), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_weak_error_probe_sphere_light():
    s = Sphere2(constant_radius(1.0), n_theta=128, n_phi=256)

    def f(p):
        p = np.asarray(p)
        return 0.6 * p[..., 2] + 0.8 * p[..., 0]

    x0 = np.array([0.0, 0.6, 0.8])
    tab = weak_error_probe(s, 0.0, x0, f, [0.32, 0.16, 0.08])
    slope = np.polyfit(np.log(tab[:, 0]), np.log(tab[:, 1]), 1)[0]
    assert 0.8 <= slope <= 2.4   # residual is quadratic, bent by the h^3 term


def _linear_on_sphere(p):
    p = np.asarray(p)
    return 0.6 * p[..., 2] + 0.8 * p[..., 0]


def _sphere_one_step_mean(x, h):
    # rho = 1, f linear: E f = f(x) (1 - h) E[((1 - h)^2 + R^2)^(-1/2)], R^2 ~ h chi^2_2
    return _linear_on_sphere(x) * (1 - h) * np.sqrt(np.pi / (2 * h)) \
        * erfcx((1 - h) / np.sqrt(2 * h))


SINE_CIRCLE = Circle(sine_radius(0.2, 1.0), n_theta=16, horizon=1.0)


def _circle_one_step_mean(x, h):
    # E cos(x + sqrt(h) Z / rho) = cos(x) exp(-h / (2 rho^2)), at t = 0.5
    return np.cos(x) * np.exp(-h / (2 * float(SINE_CIRCLE.profile(0.5)) ** 2))


@pytest.mark.parametrize("source,f,t,x,exact,tol", [
    pytest.param(Sphere2(constant_radius(1.0), n_theta=8, n_phi=16), _linear_on_sphere, 0.0,
                 np.array(x), _sphere_one_step_mean, 1e-8, id=f"sphere_{name}")
    for name, x in [("off_axis", [0.0, 0.6, 0.8]), ("pole", [0.0, 0.0, 1.0]),
                    ("equator", [1.0, 0.0, 0.0])]
] + [
    pytest.param(SINE_CIRCLE, np.cos, 0.5, 0.2, _circle_one_step_mean, 1e-12,
                 id="circle_sine_radius"),
])
def test_one_step_means_closed_form(source, f, t, x, exact, tol):
    h_list = [0.32, 0.16, 0.04, 1e-3]
    means = source.one_step_means(f, t, x, h_list)
    np.testing.assert_allclose(means, [exact(x, h) for h in h_list], rtol=0, atol=tol)


def test_path_csv_dump(tmp_path):
    c = Circle(constant_radius(1.0), n_theta=16)
    ens = simulate(c, 0.0, 0.1, 0.05, 3, 21)
    out = tmp_path / "paths.csv"
    ens.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "path_id,step,time,theta"
    assert len(lines) == 1 + 3 * 3  # header + n_paths * (n_steps + 1)
    ens.to_csv(out)
    assert out.read_text().splitlines() == lines  # rewrite is identical



def _csv_writer_dump(ens, path):
    """Reference: the row-by-row `csv.writer` dump of an ensemble."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "step", "time", *ens.source.chart_columns])
        for p in range(ens.n_paths):
            for k, t in enumerate(ens.times):
                state = ens.states[k, p]
                coords = [state] if np.ndim(state) == 0 else list(state)
                writer.writerow([p, k, f"{t:.17g}"] + [f"{c:.17g}" for c in coords])


@pytest.mark.parametrize("source, x0", [
    (Circle(sine_radius(0.2, 1.0), n_theta=16), 0.3),
    (Sphere2(constant_radius(1.0), n_theta=8, n_phi=16), np.array([0.0, 0.6, 0.8])),
])
def test_path_csv_matches_csv_writer(tmp_path, monkeypatch, source, x0):
    monkeypatch.setattr(fields_mod, "_CSV_BLOCK_ROWS", 7)   # several blocks, a ragged last one
    ens = simulate(source, x0, 0.25, 1 / 32, 6, 13)
    ens.to_csv(tmp_path / "paths.csv")
    _csv_writer_dump(ens, tmp_path / "ref.csv")
    assert (tmp_path / "paths.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_rows_int_columns_match_percent_d():
    # "%d" columns around the 4-digit table's ends, a 7-digit step, a truncated
    # fraction, a negative and a "%d" longer than the three words a slot's text
    # usually has
    ints = [0.0, 9999.0, 1e4, 1234567.0, 9999.5, -0.0, -3.0, 1e25]
    rows = np.column_stack([ints, ints[::-1], np.linspace(0.0, 1.5, len(ints))])
    fh = io.BytesIO()
    fields_mod.write_rows(fh, rows, "%d,%d,%.17g\r\n")
    expected = "".join("%d,%d,%.17g\r\n" % tuple(row) for row in rows.tolist())
    assert fh.getvalue() == expected.encode()


def test_path_csv_memory_is_bounded_by_its_blocks(tmp_path):
    # the 50-path dump of `simulate-forward` on the sphere: 12 850 rows, 1.0 MB of text.
    # Its rows array and one formatting block of 2^10 rows stay under twice the
    # bytes written (1.75x); the %-format's blocks of 2^12 rows read 2.1x, and one
    # block holding every row formatted all of them at once (4.9x).
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    ens = simulate(s, np.array([0.0, 0.0, 1.0]), 1.0, 1 / 256, 50, 8)
    out = tmp_path / "paths.csv"
    ens.to_csv(out)   # warm caches
    tracemalloc.start()
    try:
        ens.to_csv(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * out.stat().st_size

def test_sphere_states_stay_unit_norm():
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    ens = simulate(s, np.array([0.0, 0.0, 1.0]), 0.25, 1 / 64, 200, 3)
    norms = np.linalg.norm(ens.states, axis=-1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_grid_start_spec():
    c = Circle(constant_radius(1.0), n_theta=16)
    ens = simulate(c, "grid", 0.25, 1 / 64, 20, 3)
    np.testing.assert_allclose(ens.states[0], np.resize(c.thetas, 20))
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    ens = simulate(s, "grid", 0.25, 1 / 64, 10, 3)
    np.testing.assert_allclose(ens.states[0],
                               np.resize(s.grid_points().reshape(-1, 3), (10, 3)))
    with pytest.raises(ValueError):
        simulate(c, "nodes", 0.25, 1 / 64, 4, 3)
