"""Discretized maps from [0, horizon] x M into the ambient target space.

A MapField is the object the backward dynamics act on: values on the
tensor grid of uniform time slices and the source chart grid, together
with a fixed interpolation rule (linear in time, trigonometric on the
circle, bilinear on the sphere) that makes it evaluable anywhere.

A field owns the frame gradient of its slices, computed once on first
read; `handover_c01` moves that array from one Picard iterate to the next.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonMismatch, ShapeMismatch

_MAGIC = b"HMF1"
_CSV_BLOCK_ROWS = 1 << 16


def write_rows(fh, rows, row: str):
    """Write each row of the 2-D array rows through the %-format row.

    One formatting pass per block of `_CSV_BLOCK_ROWS` rows keeps the text
    in memory bounded.
    """
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[start:start + _CSV_BLOCK_ROWS]
        fh.write(row * len(block) % tuple(block.ravel().tolist()))


@dataclass
class MapField:
    times: np.ndarray     # (n_t + 1,), uniform from 0 to horizon
    values: np.ndarray    # (n_t + 1, *grid_shape, value_dim)
    source: object
    target: object

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[0] != self.times.shape[0]:
            raise ShapeMismatch("values and times disagree on slice count")
        if not np.all(np.isfinite(self.values)):
            raise ShapeMismatch("non-finite values in map field")
        # the field owns its values from here on, so a kept gradient cannot go stale
        self.values.flags.writeable = False
        self._gradient = None

    @property
    def gradient(self) -> np.ndarray:
        """Frame gradient of every slice, (n_t + 1, *grid_shape, dim, value_dim).

        Computed on first read, one `source.frame_gradient` call per slice,
        and kept for the life of the field.
        """
        if self._gradient is None:
            grad = np.empty(self.values.shape[:-1] + (self.source.dim, self.value_dim))
            for k, t in enumerate(self.times):
                grad[k] = self.source.frame_gradient(t, self.values[k])
            self._gradient = grad
        return self._gradient

    # -- basic shape -------------------------------------------------------

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_t(self) -> int:
        return len(self.times) - 1

    @property
    def value_dim(self) -> int:
        return self.values.shape[-1]

    @property
    def grid_shape(self):
        return self.values.shape[1:-1]

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.grid_shape))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if self.n_t else 0.0

    @classmethod
    def constant_in_time(cls, source, target, terminal_values, horizon: float,
                         n_t: int) -> "MapField":
        """Field equal to the terminal slice on every slice (the starting iterate)."""
        terminal_values = np.asarray(terminal_values, dtype=float)
        times = np.linspace(0.0, horizon, n_t + 1)
        values = np.broadcast_to(terminal_values, (n_t + 1,) + terminal_values.shape).copy()
        return cls(times, values, source, target)

    def check_compatible(self, other: "MapField"):
        if self.values.shape != other.values.shape or \
                abs(self.horizon - other.horizon) > 1e-12:
            raise HorizonMismatch(
                f"fields disagree: {self.values.shape}@T={self.horizon} vs "
                f"{other.values.shape}@T={other.horizon}")

    # -- evaluation ----------------------------------------------------------

    def slice_at(self, t: float) -> np.ndarray:
        """Grid values at time t, linear between bracketing slices."""
        if self.n_t == 0:
            return self.values[0]
        pos = np.clip((t - self.times[0]) / self.dt, 0.0, self.n_t)
        k = int(np.floor(pos))
        if k == self.n_t:
            return self.values[-1]
        frac = pos - k
        if frac == 0.0:
            return self.values[k]
        return (1.0 - frac) * self.values[k] + frac * self.values[k + 1]

    # -- serialization ---------------------------------------------------------

    def save(self, path, fmt: str | None = None):
        """Write to `path`; format from `fmt` or the extension (.csv else binary).

        Layout in both formats: header (n_t, n_nodes, value_dim, horizon),
        then values row-major over (slice, node), one row per node with
        value_dim columns.  CSV floats carry 17 significant digits so the
        round trip is exact.
        """
        path = str(path)
        if fmt is None:
            fmt = "csv" if path.endswith(".csv") else "bin"
        flat = self.values.reshape(len(self.times) * self.n_nodes, self.value_dim)
        if fmt == "csv":
            row = ",".join(["%.17g"] * self.value_dim) + "\n"
            with open(path, "w") as fh:
                fh.write(f"{self.n_t},{self.n_nodes},{self.value_dim},{self.horizon:.17g}\n")
                write_rows(fh, flat, row)
        elif fmt == "bin":
            with open(path, "wb") as fh:
                fh.write(_MAGIC)
                np.array([self.n_t, self.n_nodes, self.value_dim],
                         dtype="<i8").tofile(fh)
                np.array([self.horizon], dtype="<f8").tofile(fh)
                flat.astype("<f8").tofile(fh)
        else:
            raise ValueError(f"unknown format {fmt!r}")

    @classmethod
    def load(cls, path, source, target) -> "MapField":
        """Read a field saved by `save`; the source supplies the grid shape."""
        path = str(path)
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head == _MAGIC:
            with open(path, "rb") as fh:
                fh.seek(4)
                n_t, n_nodes, l2 = np.fromfile(fh, dtype="<i8", count=3)
                horizon = float(np.fromfile(fh, dtype="<f8", count=1)[0])
                flat = np.fromfile(fh, dtype="<f8")
        else:
            with open(path, "r") as fh:
                header = fh.readline().strip().split(",")
                if len(header) != 4:
                    raise ShapeMismatch("malformed map-field header")
                n_t, n_nodes, l2 = (int(header[0]), int(header[1]), int(header[2]))
                horizon = float(header[3])
                flat = np.loadtxt(fh, delimiter=",", ndmin=2).ravel()
        expected = (int(n_t) + 1) * int(n_nodes) * int(l2)
        if flat.size != expected:
            raise ShapeMismatch(
                f"field file holds {flat.size} values, header implies {expected}")
        if int(n_nodes) != source.n_nodes:
            raise ShapeMismatch(
                f"field has {n_nodes} nodes, source grid has {source.n_nodes}")
        values = flat.reshape((int(n_t) + 1,) + source.grid_shape + (int(l2),))
        times = np.linspace(0.0, horizon, int(n_t) + 1)
        return cls(times, values, source, target)


def _value_sup(values) -> float:
    """Sup over the nodes of the Euclidean value norm."""
    return float(np.max(np.linalg.norm(values, axis=-1)))


def _gradient_sup(gradient) -> float:
    """Sup over the nodes of the metric gradient norm (frame and value axes)."""
    return float(np.max(np.sqrt(np.sum(gradient * gradient, axis=(-2, -1)))))


def sup_norm(field: MapField) -> float:
    """Sup over the grid of the pointwise Euclidean value norm."""
    return _value_sup(field.values)


def c01_norm(field: MapField) -> float:
    """Sup of |u| over all slices and nodes plus sup of the metric gradient norm.

    This is the norm the contraction argument runs in, so measured Picard
    deltas and ratios are directly comparable to the theoretical bound.
    The two sups are taken each on its own, not slice by slice as a sum.
    """
    return _value_sup(field.values) + max(map(_gradient_sup, field.gradient))


def difference_c01(a: MapField, b: MapField) -> float:
    """C^{0,1} norm of the difference of two compatible fields, from their kept gradients."""
    a.check_compatible(b)
    d0 = d1 = 0.0
    for va, vb, ga, gb in zip(a.values, b.values, a.gradient, b.gradient):
        d0 = max(d0, _value_sup(va - vb))
        d1 = max(d1, _gradient_sup(ga - gb))
    return d0 + d1


def handover_c01(u: MapField, w: MapField) -> tuple[float, float]:
    """C^{0,1} distance from u to w and the C^{0,1} norm of w, in one pass.

    Each slice's gradient of w is computed once, compared with u's kept
    gradient, and written over it, so afterwards w owns the array and u
    has none: consecutive Picard iterates share one gradient array.
    """
    w.check_compatible(u)
    grad = u.gradient
    u._gradient = None
    d0 = d1 = n0 = n1 = 0.0
    for k, t in enumerate(w.times):
        zw = w.source.frame_gradient(t, w.values[k])
        d0 = max(d0, _value_sup(w.values[k] - u.values[k]))
        d1 = max(d1, _gradient_sup(zw - grad[k]))
        n0 = max(n0, _value_sup(w.values[k]))
        n1 = max(n1, _gradient_sup(zw))
        grad[k] = zw
    w._gradient = grad
    return d0 + d1, n0 + n1
