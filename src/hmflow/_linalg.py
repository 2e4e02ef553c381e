"""Dot products over a short last axis, without numpy's reduction set-up.

Chart points and target values mostly carry two or three ambient
coordinates, and a numpy reduction over so short an axis costs more than
the arithmetic it does.  So the norms over such an axis on the solve and
verify path are np.sqrt(row_dot(x, x)), bit-equal to
np.linalg.norm(x, axis=-1): the value sup `fields._value_sup` (3 columns,
where row_dot is faster than one `np.einsum` pass), the targets' distance
and curvature trace, `Sphere2.step_paths`, and the tension residual's and
the CLI's error norms.
The gradient sup `fields._gradient_sup`, 6 columns a node on the sphere,
sums them in one `np.einsum` pass and calls row_dot only on the few
nodes near its largest sum.
"""

from __future__ import annotations

import numpy as np

# numpy adds fewer than this many terms one after another onto 0.0; from
# here on its sum is pairwise, in an order the column sums do not follow
_SEQUENTIAL_TERMS = 8


def row_dot(a, b):
    """Sum of a * b over the last axis, bit-equal to np.sum(a * b, axis=-1).

    Below _SEQUENTIAL_TERMS terms the columns are added in order onto
    0.0, as numpy's reduction adds them: the leading 0.0 turns a sum of
    -0.0 products into numpy's +0.0.  Longer (and empty) axes go through
    numpy itself.  Shapes broadcast as in a * b.
    """
    p = np.multiply(a, b)
    n = p.shape[-1]
    if not 0 < n < _SEQUENTIAL_TERMS:
        return np.sum(p, axis=-1)
    total = 0.0 + p[..., 0]
    for i in range(1, n):
        total += p[..., i]
    return total
