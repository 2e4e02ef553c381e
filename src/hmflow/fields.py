"""Discretized maps from [0, horizon] x M into the ambient target space.

A MapField is the object the backward dynamics act on: values on the
tensor grid of uniform time slices and the source chart grid.  Within a
slice the source's interpolation rule (trigonometric on the circle,
bilinear on the sphere) evaluates it off the grid nodes.

A field saves to and loads from CSV; `write_rows` formats its values, and
the paths of `forward.PathEnsemble`, a block of rows at a time in numpy,
with the bytes of "%.17g" and "%d".

A field owns the frame gradient of its slices, computed once on first
read; `handover_c01` moves that array from one Picard iterate to the next.
Gradients and C^{0,1} sups are taken over blocks of slices, each block one
`frame_gradient` call of at most `_GRADIENT_BLOCK_ENTRIES` gradient entries
(one slice when a slice alone exceeds it), so their temporaries stay one
block whatever the field's size.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._linalg import row_dot
from .errors import HorizonMismatch, ShapeMismatch

_CSV_BLOCK_ROWS = 1 << 10
_GRADIENT_BLOCK_ENTRIES = 1 << 16   # gradient entries per time block of slices


@functools.cache
def _csv_tables() -> SimpleNamespace:
    """Lookup tables of `_format_block`, built on its first call.

    Text is held in little-endian words, first byte lowest: `four[g]` is
    "%04d" % g and `short[g]` is "%d" % g, as uint32.  `tz[g]` counts the
    trailing zeros of "%04d" % g, and the uint64 `keep1[tz]`, `keep2[tz]`
    mask 16 digits in two words down to the 16 - tz before their trailing
    zeros.  `prefix[4 * sign + k]` holds the sign, "0." and 3 - k zeros,
    ending at byte 6.  `scale[k]` is 10^(20 - k), exact, with its Veltkamp
    halves.
    """
    g = np.arange(10_000, dtype=np.uint32)
    four = sum((g // 10 ** (3 - j) % 10 + 0x30) << 8 * j for j in range(4))
    zeros_in_front = (g < 1000).astype(np.uint32) + (g < 100) + (g < 10)   # "0" keeps its own
    kept = np.arange(16, -1, -1)   # digits kept, by trailing zeros
    scale = np.array([1e20, 1e19, 1e18, 1e17])
    scale_hi = _veltkamp_hi(scale)
    return SimpleNamespace(
        four=four.astype("<u4"), short=(four >> 8 * zeros_in_front).astype("<u4"),
        tz=sum((g % 10 ** j == 0).astype(np.uint8) for j in (1, 2, 3)) + (g == 0),
        keep1=np.array([(1 << 8 * min(8, n)) - 1 for n in kept], dtype="<u8"),
        keep2=np.array([(1 << 8 * max(0, n - 8)) - 1 for n in kept], dtype="<u8"),
        prefix=np.array([int.from_bytes((b"-" * s + b"0." + b"0" * (3 - k)).rjust(8, b"\0"),
                                        "little") >> 8 for s in (0, 1) for k in range(4)],
                        dtype="<u8"),
        scale=scale, scale_hi=scale_hi, scale_lo=scale - scale_hi)


def _veltkamp_hi(a):
    """High half of Veltkamp's split: a = hi + (a - hi), each of at most 26 significant bits."""
    c = a * 134217729.0   # 2^27 + 1
    return c - (c - a)


def _divmod(n, d: int):
    """np.divmod of int64 by a constant, at the cost of one floor division, half np.divmod's."""
    q = n // d
    return q, n - q * d


def _float_words(v, out, t) -> np.ndarray:
    """Write "%.17g" % x to out[..., :3] for each x of v where it can; return where it did.

    It can for 10^(k - 4) <= |x| < 10^(k - 3), k = 0..3, whose text is
    fixed-point: the sign, "0.", 3 - k zeros and the 17 digits N without
    their trailing zeros.  N rounds |x| 10^(20 - k), half to even, and
    Dekker's product gives that exactly, as p + e: the scale is exact and
    so are the products of the split halves.  N never carries to 18
    digits: the largest double below each decade's top scales to at least
    8 units below 10^17.  A fraction within 1e-9 of a half, a tie or one
    that `frac` may have rounded, is left to the %-format.  Word 0 gets
    the prefix and N's first digit, at byte 7; words 1 and 2 its other 16.
    """
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)   # keeps the arithmetic below finite; the others are dropped
    # the doubles 1e-3, 1e-2 and 1e-1 lie just above their powers of ten, so no
    # double lies between the two and the comparisons give each decade exactly
    k = (a >= 1e-3).astype(np.intp) + (a >= 1e-2) + (a >= 1e-1)
    b, b_hi, b_lo = t.scale[k], t.scale_hi[k], t.scale_lo[k]
    a_hi = _veltkamp_hi(a)
    a_lo = a - a_hi
    p = a * b   # an integer: at least 10^16 > 2^53
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(e)
    frac = e - whole
    # added as int64: as floats, the sum would round again above 2^53
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    fast &= np.abs(frac - 0.5) > 1e-9
    hi, lo = _divmod(n, 10 ** 8)
    d0, hi = _divmod(hi, 10 ** 8)
    g1, g2 = _divmod(hi, 10 ** 4)
    g3, g4 = _divmod(lo, 10 ** 4)
    out[..., 0] = t.prefix[4 * np.signbit(v) + k]
    out.view(np.uint8)[..., 7] = d0 + 0x30
    digits = out.view("<u4")[..., 2:6]
    for j, group in enumerate((g1, g2, g3, g4)):
        digits[..., j] = t.four[group]
    tz = t.tz[g4] + (g4 == 0) * (t.tz[g3] + (g3 == 0) * (t.tz[g2] + (g2 == 0) * t.tz[g1]))
    out[..., 1] &= t.keep1[tz]
    out[..., 2] &= t.keep2[tz]
    return fast


def _format_block(block, n_int: int, seps) -> np.ndarray:
    """The text of block through "%d" on its first n_int columns, "%.17g" on the rest.

    Each value gets a slot of uint64 words, its text NUL-padded and its
    separator, `seps[column]`, in the last word; the slots' non-NUL bytes,
    in order, are the text.  The tables of `_csv_tables` write the "%d" of
    0 <= v < 10^4 and `_float_words` most "%.17g"; the %-format writes the
    rest, so it defines every byte.
    """
    t = _csv_tables()
    words = np.zeros(block.shape + (4,), dtype="<u8")
    words[..., 3] = seps
    ints = block[:, :n_int]
    fast_int = (ints >= 0) & (ints < 10_000)
    words[:, :n_int, 0] = t.short[np.where(fast_int, ints, 0).astype(np.intp)]
    fast_float = _float_words(block[:, n_int:], words[:, n_int:], t)
    slow = np.flatnonzero(~np.concatenate([fast_int, fast_float], axis=1))
    if slow.size:
        fmts = [b"%d"] * n_int + [b"%.17g"] * (block.shape[1] - n_int)
        cols = (slow % block.shape[1]).tolist()
        texts = [fmts[j] % x for j, x in zip(cols, block.reshape(-1)[slow].tolist())]
        need = -(-max(map(len, texts)) // 8)   # text words; a long %d needs more than three
        if need > 3:
            words = np.insert(words, [3] * (need - 3), 0, axis=-1)
        width = words.shape[-1] - 1
        flat = words.reshape(-1, width + 1)
        flat[slow, :width] = np.frombuffer(b"".join(s.ljust(8 * width, b"\0") for s in texts),
                                           dtype="<u8").reshape(-1, width)
    text = words.view(np.uint8).reshape(-1)
    return text[text != 0]


def write_rows(fh, rows, row: str):
    """Write each row of the 2-D array rows through the %-format row to the binary file fh.

    The row is "%d" fields, then "%.17g" fields, comma-separated, and its
    line end; the bytes are those of `row * len(rows) % tuple(values)`.
    Rows go out in blocks of `_CSV_BLOCK_ROWS`, each formatted at once by
    `_format_block`: its slots and temporaries hold about 210 bytes per
    value, 0.63 MB for a block of 3-vectors, whatever the file's size.
    """
    body = row.rstrip("\r\n")
    fields, end = body.split(","), row[len(body):]
    n_int = fields.count("%d")
    if fields != ["%d"] * n_int + ["%.17g"] * (len(fields) - n_int) or \
            len(fields) != rows.shape[1]:
        raise ValueError(f"cannot write {rows.shape[1]} columns through {row!r}")
    seps = np.frombuffer(b"".join(s.ljust(8, b"\0") for s in
                                  [b","] * (len(fields) - 1) + [end.encode()]), dtype="<u8")
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        fh.write(_format_block(rows[start:start + _CSV_BLOCK_ROWS], n_int, seps))


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

        Computed on first read, one `source.frame_gradient` call per time
        block (see `_time_blocks`), and kept for the life of the field.
        """
        if self._gradient is None:
            grad = np.empty(self.values.shape[:-1] + (self.source.dim, self.value_dim))
            for ks in _time_blocks(self):
                grad[ks] = self.source.frame_gradient(self.times[ks], self.values[ks])
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
        """Field equal to the terminal slice on every slice (the starting iterate).

        Its gradient is kept from the start: per time block (see
        `_time_blocks`), the terminal is differentiated once for all the
        block's slice times (a block of one slice, see
        `SourceManifold._slices`), bit-equal to a call per slice, with
        temporaries of one block.
        """
        terminal_values = np.asarray(terminal_values, dtype=float)
        times = np.linspace(0.0, horizon, n_t + 1)
        values = np.broadcast_to(terminal_values, (n_t + 1,) + terminal_values.shape).copy()
        field = cls(times, values, source, target)
        grad = np.empty(values.shape[:-1] + (source.dim, field.value_dim))
        for ks in _time_blocks(field):
            grad[ks] = source.frame_gradient(times[ks], terminal_values[None])
        field._gradient = grad
        return field

    @classmethod
    def with_gradient(cls, times, values, source, target, gradient) -> "MapField":
        """Field keeping `gradient` as its `gradient`, known from how its values were made.

        For a field whose maker differentiates it by its own rule (as
        `verify.pde_reference` does its reduction), so that reading the
        gradient calls no `frame_gradient`.  Raises ShapeMismatch when the
        gradient is not one frame row of value_dim entries per node and
        slice.
        """
        field = cls(times, values, source, target)
        gradient = np.asarray(gradient, dtype=float)
        if gradient.shape != field.values.shape[:-1] + (source.dim, field.value_dim):
            raise ShapeMismatch(f"gradient of shape {gradient.shape} for field values of "
                                f"shape {field.values.shape} on a {source.dim}-d source")
        field._gradient = gradient
        return field

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
        columns.  Floats carry 17 significant digits, "%.17g", so the round
        trip is exact; `write_rows` writes them a block of rows at a time.
        """
        flat = self.values.reshape(len(self.times) * self.n_nodes, self.value_dim)
        row = ",".join(["%.17g"] * self.value_dim) + "\n"
        with open(path, "wb") as fh:
            fh.write(f"{self.n_t},{self.n_nodes},{self.value_dim},{self.horizon:.17g}\n".encode())
            write_rows(fh, flat, row)

    @classmethod
    def load(cls, path, source, target) -> "MapField":
        """Read a field saved by `save`; the source supplies the grid shape.

        Raises ShapeMismatch when the header is malformed, or does not fit
        the source's grid and horizon or the target's ambient dimension, or
        when the body is not one row of value_dim numbers per node and
        slice: ragged rows, a token that is not a number, or the right
        count of values in other rows.
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
                # an empty body reads as no rows, which the shape check rejects
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:
                    body = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError as exc:   # ragged rows or a token that is not a number
                    raise ShapeMismatch(f"field file body, after the header line: {exc}")
        n_rows = (n_t + 1) * n_nodes
        if body.shape != (n_rows, l2):
            raise ShapeMismatch(
                f"field file holds {body.size} values in {body.shape[0]} rows of "
                f"{body.shape[1]}, header implies {n_rows * l2}: one row of {l2} per node "
                f"and slice, {n_rows} rows")
        values = body.reshape((n_t + 1,) + source.grid_shape + (l2,))
        times = np.linspace(0.0, horizon, n_t + 1)
        return cls(times, values, source, target)


def _time_blocks(field: MapField) -> list:
    """Consecutive slice ranges whose gradients hold at most `_GRADIENT_BLOCK_ENTRIES` entries."""
    step = max(1, _GRADIENT_BLOCK_ENTRIES // (field.values[0].size * field.source.dim))
    return [slice(lo, lo + step) for lo in range(0, len(field.times), step)]


# Both sups take the root of the largest squared norm: the square root is
# monotone and correctly rounded, so that is the largest norm, bit for bit.

def _value_sup(values) -> float:
    """Sup over the nodes of the Euclidean value norm.

    The squares of a node's few values add in order (`row_dot`), as
    numpy's reduction over so short a C-ordered axis does, without its
    set-up.
    """
    return float(np.sqrt(row_dot(values, values).max()))


def _gradient_sup(gradient) -> float:
    """Sup over the nodes of the metric gradient norm (frame and value axes, flattened).

    The squares of each node's flattened row are summed in one
    `np.einsum` pass, which reads the block once where `row_dot` takes a
    pass per entry.  einsum adds them in another order than numpy's
    reduction, so its sums may differ in the last bits; a sum of 6
    squares is within 6 ulps of exact in any order, so only the nodes
    within 1e-14 of the largest einsum sum can hold the largest sum in
    order, and those few are summed again by `row_dot`.  The sup is
    thus numpy's, bit for bit.
    """
    flat = gradient.reshape(gradient.shape[:-2] + (-1,))
    squares = np.einsum("...i,...i->...", flat, flat)
    top = squares.max()
    if not top > 0.0:   # all zero (every node would be a candidate), or NaN
        return float(np.sqrt(top))
    near = flat[squares >= top * (1.0 - 1e-14)]
    return float(np.sqrt(row_dot(near, near).max()))


def sup_norm(field: MapField) -> float:
    """Sup over the grid of the pointwise Euclidean value norm."""
    return _value_sup(field.values)


def c01_norm(field: MapField) -> float:
    """Sup of |u| over all slices and nodes plus sup of the metric gradient norm.

    This is the norm the contraction argument runs in, so measured Picard
    deltas and ratios are directly comparable to the theoretical bound.
    The two sups are taken each on its own, not slice by slice as a sum;
    the gradient sup block by block over the kept gradient.
    """
    grad = field.gradient
    return _value_sup(field.values) + max(_gradient_sup(grad[ks]) for ks in _time_blocks(field))


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

    Block by block (see `_time_blocks`), w's gradient is computed
    once, compared with u's kept gradient, and written over it, so
    afterwards w owns the array and u has none: consecutive Picard iterates
    share one gradient array.  The difference is taken in that array,
    which w's gradient then overwrites, so it needs no block of its own.
    The sups are exact maxima, so they do not depend on the block size.
    """
    w.check_compatible(u)
    grad = u.gradient
    u._gradient = None
    d0 = d1 = n0 = n1 = 0.0
    for ks in _time_blocks(w):
        zw = w.source.frame_gradient(w.times[ks], w.values[ks])
        d0 = max(d0, _value_sup(w.values[ks] - u.values[ks]))
        d1 = max(d1, _gradient_sup(np.subtract(grad[ks], zw, out=grad[ks])))
        n0 = max(n0, _value_sup(w.values[ks]))
        n1 = max(n1, _gradient_sup(zw))
        grad[ks] = zw
    w._gradient = grad
    return d0 + d1, n0 + n1
