"""Counter-based random number streams.

All randomness in the library flows through Philox generators whose
128-bit key encodes (master_seed, domain, index).  Streams are therefore
independent of execution order and of how work is chunked: path p of an
ensemble always sees the same numbers, whichever worker draws them.

Domains keep unrelated consumers of the same master seed from colliding.
A domain's number is part of every key drawn under it, so renumbering a
domain would change all of its streams.

The one sampler outside these streams is `targets.fit_g_inequality_constant`,
which draws its random test points from `Philox(key=seed)`.
"""

from __future__ import annotations

import numpy as np

# Domain words (bits 56..63 of the low key word).
DOMAIN_FORWARD_PATH = 0
DOMAIN_MC_SLICE = 1
DOMAIN_SAMPLE_PATH = 2
DOMAIN_VERIFY_PATH = 4

_INDEX_MASK = (1 << 56) - 1


def keyed_generator(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """Generator for stream (master_seed, domain, index); pure function of its arguments."""
    if index < 0 or index > _INDEX_MASK:
        raise ValueError(f"stream index {index} out of range")
    low = (np.uint64(domain) << np.uint64(56)) | np.uint64(index)
    key = (int(np.uint64(master_seed)) << 64) | int(low)
    return np.random.Generator(np.random.Philox(key=key))


def path_normals(master_seed: int, domain: int, path_index: int,
                 n_steps: int, dim: int) -> np.ndarray:
    """Standard-normal increments for one path, shape (n_steps, dim)."""
    return keyed_generator(master_seed, domain, path_index).standard_normal((n_steps, dim))
