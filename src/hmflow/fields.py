"""Discretized maps from [0, horizon] x M into the ambient target space.

A MapField is the object the backward dynamics act on: values on the
tensor grid of uniform time slices and the source chart grid.  Within a
slice the source's interpolation rule (trigonometric on the circle,
bilinear on the sphere) evaluates it off the grid nodes.

A field owns the frame gradient of its slices, computed once on first
read; `handover_c01` moves that array from one Picard iterate to the next.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HorizonMismatch, ShapeMismatch

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

    # -- serialization ---------------------------------------------------------

    def save(self, path):
        """Write to `path` as CSV.

        Layout: header (n_t, n_nodes, value_dim, horizon), then values
        row-major over (slice, node), one row per node with value_dim
        columns.  Floats carry 17 significant digits so the round trip is
        exact.
        """
        flat = self.values.reshape(len(self.times) * self.n_nodes, self.value_dim)
        row = ",".join(["%.17g"] * self.value_dim) + "\n"
        with open(path, "w") as fh:
            fh.write(f"{self.n_t},{self.n_nodes},{self.value_dim},{self.horizon:.17g}\n")
            write_rows(fh, flat, row)

    @classmethod
    def load(cls, path, source, target) -> "MapField":
        """Read a field saved by `save`; the source supplies the grid shape.

        Raises ShapeMismatch when the header is malformed, or does not fit
        the source's grid and horizon or the target's ambient dimension, or
        when the rows do not hold the values the header implies.
        """
        with open(path) as fh:
            try:
                header = fh.readline().strip().split(",")
                n_t, n_nodes, l2, horizon = (*map(int, header[:3]), float(header[3]))
            except (ValueError, IndexError):
                raise ShapeMismatch("malformed map-field header")
            if len(header) != 4 or n_t < 1 or not 0 < horizon <= source.horizon + 1e-12:
                raise ShapeMismatch(f"map-field header {','.join(header)!r} needs four entries, "
                                    f"n_t >= 1 and a horizon in (0, {source.horizon}]")
            if n_nodes != source.n_nodes:
                raise ShapeMismatch(
                    f"field has {n_nodes} nodes, source grid has {source.n_nodes}")
            if l2 != target.ambient_dim:
                raise ShapeMismatch(
                    f"field takes values in R^{l2}, the target in R^{target.ambient_dim}")
            with warnings.catch_warnings():
                # an empty body reads as no values, which the size check rejects
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                flat = np.loadtxt(fh, delimiter=",", ndmin=2).ravel()
        expected = (n_t + 1) * n_nodes * l2
        if flat.size != expected:
            raise ShapeMismatch(
                f"field file holds {flat.size} values, header implies {expected}")
        values = flat.reshape((n_t + 1,) + source.grid_shape + (l2,))
        times = np.linspace(0.0, horizon, n_t + 1)
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
