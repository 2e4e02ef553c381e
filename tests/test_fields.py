import io
import tracemalloc

import numpy as np
import pytest

from hmflow import fields
from hmflow.errors import HorizonMismatch, ShapeMismatch
from hmflow.fields import MapField, c01_norm, difference_c01, handover_c01, sup_norm
from hmflow.sources import Circle, Sphere2, constant_radius, sine_radius
from hmflow.targets import FlatSpace, UnitSphere


def identity_field(n_theta=64, horizon=0.25, n_t=10, radius=1.0):
    c = Circle(constant_radius(radius), n_theta=n_theta, horizon=max(horizon, 1.0))
    h = np.stack([np.cos(c.thetas), np.sin(c.thetas)], axis=-1)
    return MapField.constant_in_time(c, UnitSphere(1), h, horizon, n_t)


def test_c01_norm_constant_map():
    c = Circle(constant_radius(1.0), n_theta=64)
    p0 = np.array([0.3, -0.4])
    vals = np.broadcast_to(p0, (64, 2)).copy()
    f = MapField.constant_in_time(c, UnitSphere(1), vals, 0.5, 5)
    assert c01_norm(f) == pytest.approx(0.5, abs=1e-12)


def test_c01_norm_identity_map():
    assert c01_norm(identity_field()) == pytest.approx(2.0, abs=1e-10)
    assert c01_norm(identity_field(radius=2.0)) == pytest.approx(1.5, abs=1e-10)


def test_difference_c01_and_mismatch():
    a = identity_field()
    b = MapField(a.times, 0.5 * a.values, a.source, a.target)
    assert difference_c01(a, b) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(HorizonMismatch):
        difference_c01(a, identity_field(n_t=11))


def test_values_are_read_only_and_gradient_is_kept():
    f = identity_field()
    with pytest.raises(ValueError):
        f.values[0] = 0.0
    with pytest.raises(ValueError):
        f.values *= 2.0
    assert f.gradient is f.gradient
    assert f.gradient.shape == (f.n_t + 1, 64, 1, 2)
    np.testing.assert_array_equal(f.gradient[3],
                                  f.source.frame_gradient(f.times[3], f.values[3]))


def test_handover_matches_difference_and_norm():
    u = identity_field()
    w = MapField(u.times, u.values * np.linspace(0.5, 1.0, u.n_t + 1)[:, None, None],
                 u.source, u.target)
    expected = (difference_c01(w, u), c01_norm(w))
    w_grad = w.gradient.copy()
    u_grad = u.gradient
    delta, norm = handover_c01(u, w)
    assert delta == pytest.approx(expected[0], abs=1e-14)
    assert norm == expected[1]
    # w now owns u's former array, overwritten with w's own gradient
    assert w.gradient is u_grad
    np.testing.assert_array_equal(w.gradient, w_grad)
    assert u._gradient is None


def _iterate_pair(family):
    """Two 9-slice fields u, w with a sine radius, as consecutive Picard iterates."""
    if family == "circle":
        source = Circle(sine_radius(0.2, 1.0), n_theta=32, horizon=1.0)
    else:
        source = Sphere2(sine_radius(0.2, 1.0), n_theta=8, n_phi=16, horizon=1.0)
    rng = np.random.default_rng(8)
    shape = (9,) + source.grid_shape + (3,)
    times = np.linspace(0.0, 0.4, 9)
    return (MapField(times, rng.standard_normal(shape), source, FlatSpace(3)),
            MapField(times, rng.standard_normal(shape), source, FlatSpace(3)))


def _per_slice_c01(u, w):
    """(C^{0,1} distance u to w, C^{0,1} norm of w) from one frame_gradient call per slice."""
    zu = [u.source.frame_gradient(t, v) for t, v in zip(u.times, u.values)]
    zw = [w.source.frame_gradient(t, v) for t, v in zip(w.times, w.values)]

    def value_sup(v):
        return np.max(np.linalg.norm(v, axis=-1))

    def grad_sup(g):
        return np.max(np.sqrt(np.sum(g * g, axis=(-2, -1))))
    delta = (max(value_sup(a - b) for a, b in zip(w.values, u.values))
             + max(grad_sup(a - b) for a, b in zip(zw, zu)))
    norm = value_sup(w.values) + max(grad_sup(g) for g in zw)
    return np.stack(zw), float(delta), float(norm)


@pytest.mark.parametrize("family", ["circle", "sphere"])
@pytest.mark.parametrize("cap", ["one_slice", "odd", "huge"])
def test_gradients_and_c01_do_not_depend_on_block_size(monkeypatch, family, cap):
    u, w = _iterate_pair(family)
    per_slice = u.values[0].size * u.source.dim
    entries = {"one_slice": 1, "odd": 3 * per_slice + 5, "huge": 1 << 40}[cap]
    monkeypatch.setattr(fields, "_GRADIENT_BLOCK_ENTRIES", entries)
    w_grad, delta, norm = _per_slice_c01(u, w)
    np.testing.assert_array_equal(w.gradient, w_grad)
    assert c01_norm(w) == norm
    w = MapField(w.times, w.values, w.source, w.target)   # no kept gradient yet
    u_grad = u.gradient
    assert handover_c01(u, w) == (delta, norm)
    assert w.gradient is u_grad and u._gradient is None
    np.testing.assert_array_equal(w.gradient, w_grad)



def _numpy_sups(v, g):
    return (float(np.sqrt((v * v).sum(-1).max())),
            float(np.sqrt((g * g).sum(axis=(-2, -1)).max())))


@pytest.mark.parametrize("shape", [(4, 256, 1, 2), (9, 24, 48, 2, 3), (3, 24, 48, 2, 1)],
                         ids=["circle", "sphere", "sphere_value_dim_1"])
def test_sups_equal_numpy_reductions_bit_for_bit(shape):
    rng = np.random.default_rng(12)
    g = rng.standard_normal(shape) * rng.choice([1e-8, 1.0, 1e8], shape)
    g[0, :2] = -0.0
    g[1, :2, ..., :1] = -0.0
    grid_swap = (1, 2) if len(shape) == 5 else (0, 1)
    for block in (g, np.swapaxes(g, *grid_swap)):   # the second is not C-contiguous
        v = block[..., 0, :]
        # the sup over a block, then over single nodes, where each node's own sum decides it
        assert fields._value_sup(v).hex() == _numpy_sups(v, block)[0].hex()
        assert fields._gradient_sup(block).hex() == _numpy_sups(v, block)[1].hex()
        nodes = block.reshape((-1,) + shape[-2:])[:2000]
        for node in nodes:
            got = (fields._value_sup(node[0]), fields._gradient_sup(node))
            assert [x.hex() for x in got] == [x.hex() for x in _numpy_sups(node[0], node)]

def test_non_finite_rejected():
    f = identity_field()
    bad = f.values.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ShapeMismatch):
        MapField(f.times, bad, f.source, f.target)


def test_slice_count_must_match_times():
    f = identity_field()
    with pytest.raises(ShapeMismatch, match="values and times disagree on slice count"):
        MapField(f.times[:-1], f.values, f.source, f.target)


def test_sup_norm():
    f = identity_field()
    assert sup_norm(f) == pytest.approx(1.0, abs=1e-12)


def test_save_load_roundtrip(tmp_path):
    f = identity_field(n_theta=16, n_t=3)
    values = f.values.copy()
    values[1] *= 0.9993712345678912  # non-trivial digits
    f = MapField(f.times, values, f.source, f.target)
    path = tmp_path / "field.csv"
    f.save(path)
    g = MapField.load(path, f.source, f.target)
    np.testing.assert_array_equal(g.values, f.values)
    np.testing.assert_array_equal(g.times, f.times)
    assert g.horizon == f.horizon


def test_csv_bytes_match_per_value_formatting(tmp_path, monkeypatch):
    monkeypatch.setattr(fields, "_CSV_BLOCK_ROWS", 7)   # blocks that do not divide the rows
    c = Circle(constant_radius(1.0), n_theta=16)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1e300, 1 / 3, 0.1, 1e-5, 123456789012345678.0, -2.5]
    values = np.random.default_rng(3).standard_normal((3, 16, 3)) * 1e3
    values.flat[:len(special)] = special
    f = MapField(np.linspace(0.0, 0.5, 3), values, c, FlatSpace(3))
    f.save(tmp_path / "f.csv")
    rows = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values.reshape(-1, 3))
    assert (tmp_path / "f.csv").read_text() == "2,16,3,0.5\n" + rows
    np.testing.assert_array_equal(MapField.load(tmp_path / "f.csv", c, f.target).values, values)


def _ulps_around(x, n=4):
    """The 2n + 1 doubles from n below x to n above it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def _random_in_every_decade(n_per_decade=40):
    rng = np.random.default_rng(5)
    exponents = np.repeat(np.arange(-324, 309), n_per_decade)
    with np.errstate(over="ignore"):
        values = rng.uniform(1.0, 10.0, exponents.size) * 10.0 ** exponents.astype(float)
    values *= rng.choice([-1.0, 1.0], values.size)
    return values[np.isfinite(values)]


@pytest.mark.parametrize("values", [
    pytest.param([float(f"1e{k}") for k in range(-320, 301)], id="powers_of_ten"),
    pytest.param([y for x in (1e-4, 1e-3, 1e-2, 1e-1, 1.0) for y in _ulps_around(x)],
                 id="four_ulps_around_the_fixed_point_decades"),
    # m / 2^18, m odd: 18 digits ending in 5, each exactly halfway between two 17-digit texts
    pytest.param(np.arange(2 ** 17 + 1, 2 ** 18, 2) / 2.0 ** 18, id="exact_ties"),
    pytest.param([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.0, 1.0],
                 id="special"),
    pytest.param(_random_in_every_decade(), id="random_in_every_decade"),
    pytest.param(np.random.default_rng(6).uniform(-1.0, 1.0, 30_000), id="uniform_unit"),
])
def test_write_rows_matches_percent_g(values):
    values = np.resize(np.asarray(values, dtype=float), (-(-len(values) // 3), 3))
    fh = io.BytesIO()
    fields.write_rows(fh, values, "%.17g,%.17g,%.17g\n")
    expected = "".join(",".join("%.17g" % v for v in row) + "\n" for row in values.tolist())
    assert fh.getvalue() == expected.encode()


def test_save_memory_is_one_block(tmp_path):
    # the sphere benchmark's field: 35 slices of 24x48 3-vectors, 2.4 MB of text.
    # One block of 2^10 rows formatted at a time, its word slots and numpy
    # temporaries, peaks at 0.26x the bytes written (0.63 MB, as for unit
    # vectors); the %-format's blocks of 2^12 rows read 0.3x, and the whole
    # field formatted at once 3x.
    s = Sphere2(sine_radius(0.2, 1.0), n_theta=24, n_phi=48, horizon=0.034)
    values = np.random.default_rng(8).standard_normal((35, 24, 48, 3))
    f = MapField(np.linspace(0.0, 0.034, 35), values, s, UnitSphere(2))
    path = tmp_path / "field.csv"
    f.save(path)   # warm caches
    tracemalloc.start()
    try:
        f.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size / 2


def test_load_rejects_binary_format(tmp_path):
    # a field in the retired HMF1 layout: magic, (n_t, n_nodes, value_dim) as
    # <i8, the horizon as <f8, then the values
    f = identity_field(n_theta=16, n_t=2)
    p = tmp_path / "field.bin"
    p.write_bytes(b"HMF1" + np.array([2, 16, 2], dtype="<i8").tobytes()
                  + np.array([f.horizon], dtype="<f8").tobytes()
                  + f.values.astype("<f8").tobytes())
    with pytest.raises(ShapeMismatch):
        MapField.load(p, f.source, f.target)


def test_load_rejects_wrong_grid(tmp_path):
    f = identity_field(n_theta=16, n_t=2)
    f.save(tmp_path / "field.csv")
    other = Circle(constant_radius(1.0), n_theta=32)
    with pytest.raises(ShapeMismatch):
        MapField.load(tmp_path / "field.csv", other, f.target)


@pytest.mark.parametrize("mangle", [
    pytest.param(lambda rows: ["".join(f"{a},{b}," for a, b in zip(rows[::2], rows[1::2]))
                               .rstrip(",")], id="two_nodes_per_row"),
    pytest.param(lambda rows: [",".join(rows)], id="whole_body_on_one_line"),
    pytest.param(lambda rows: rows[:3] + [rows[3].split(",")[0]] + rows[4:], id="ragged_row"),
    pytest.param(lambda rows: rows[:3] + ["0.5,x"] + rows[4:], id="token_not_a_number"),
])
def test_load_rejects_a_body_whose_rows_are_not_nodes(tmp_path, mangle):
    # each body but the ragged one holds the value count the header implies
    f = identity_field(n_theta=8, n_t=1)
    p = tmp_path / "field.csv"
    f.save(p)
    header, *rows = p.read_text().splitlines()
    p.write_text("\n".join([header] + mangle(rows)) + "\n")
    with pytest.raises(ShapeMismatch):
        MapField.load(p, f.source, f.target)


def test_load_rejects_truncated(tmp_path):
    f = identity_field(n_theta=16, n_t=2)
    p = tmp_path / "field.csv"
    f.save(p)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(ShapeMismatch):
        MapField.load(p, f.source, f.target)


def test_sphere_field_roundtrip(tmp_path):
    s = Sphere2(constant_radius(1.0), n_theta=8, n_phi=16)
    vals = s.grid_points()
    f = MapField.constant_in_time(s, UnitSphere(2), vals, 0.1, 2)
    f.save(tmp_path / "f.csv")
    g = MapField.load(tmp_path / "f.csv", s, f.target)
    np.testing.assert_array_equal(g.values, f.values)
    assert g.grid_shape == (8, 16)
