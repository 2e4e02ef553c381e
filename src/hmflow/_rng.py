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
# numpy 2 loads numpy.random on first use; importing it here books its load
# (about 15 ms) to the import of hmflow rather than to the first draw
import numpy.random  # noqa: F401

# Domain words (bits 56..63 of the low key word).
DOMAIN_FORWARD_PATH = 0
DOMAIN_MC_SLICE = 1
DOMAIN_SAMPLE_PATH = 2
DOMAIN_VERIFY_PATH = 4

_INDEX_MASK = (1 << 56) - 1
SEED_LIMIT = 1 << 64   # master seeds fill the high key word: 0 <= seed < 2^64

# The one Philox that `path_normals` re-keys for every path stream, and the
# state it is set to: the stream's key, a zero counter and an empty buffer
_PATH_BITS = np.random.Philox(0)
_PATH_GENERATOR = np.random.Generator(_PATH_BITS)
_PATH_KEY = np.zeros(2, np.uint64)
_PATH_STATE = {"bit_generator": "Philox",
               "state": {"counter": np.zeros(4, np.uint64), "key": _PATH_KEY},
               "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
               "has_uint32": 0, "uinteger": 0}


def _key_words(master_seed: int, domain: int, index: int) -> tuple:
    """The (low, high) Philox key words of stream (master_seed, domain, index)."""
    if not 0 <= master_seed < SEED_LIMIT:
        raise ValueError(f"master seed {master_seed} out of range [0, 2^64)")
    if index < 0 or index > _INDEX_MASK:
        raise ValueError(f"stream index {index} out of range")
    return (int(domain) << 56) | int(index), int(master_seed)


def keyed_generator(master_seed: int, domain: int, index: int) -> np.random.Generator:
    """Generator for stream (master_seed, domain, index); pure function of its arguments.

    Raises ValueError for a seed outside [0, 2^64) or an index outside [0, 2^56).
    """
    low, high = _key_words(master_seed, domain, index)
    return np.random.Generator(np.random.Philox(key=(high << 64) | low))


def path_normals(master_seed: int, domain: int, path_index: int,
                 n_steps: int, dim: int) -> np.ndarray:
    """Standard-normal increments for one path, shape (n_steps, dim).

    Bit-equal to `keyed_generator(master_seed, domain, path_index)
    .standard_normal((n_steps, dim))`, but it re-keys one module-level
    Philox through its `state` (the stream's key, zero counter, empty
    buffer) instead of building a generator per path, which costs more.
    The shared generator makes this function unsafe to call from several
    threads at once.  Raises ValueError as `keyed_generator` does.
    """
    _PATH_KEY[:] = _key_words(master_seed, domain, path_index)
    _PATH_BITS.state = _PATH_STATE     # the setter copies the words into the Philox
    return _PATH_GENERATOR.standard_normal((n_steps, dim))
