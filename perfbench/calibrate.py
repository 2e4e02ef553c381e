"""Host-speed calibration: a fixed mix of work timed between benchmark children.

The shared 2-vCPU host this benchmark was defined on changes speed by up
to 40 % for tens of seconds to minutes, for every kind of work, while the
process's CPU time rises with its wall time (steal time does not explain
it).  `reading_s` times a fixed mix of the kinds of work an `hmflow`
repetition does: a pure-Python loop, numpy ufuncs, sparse LU factors and
solves, building and serialising Python objects, and starting
interpreters.  It calls nothing in `hmflow`, so a change to the
program does not move it.

Over a 14-minute trace of repetitions of both workloads, the log of a
repetition's wall time followed the log of the adjacent readings with a
slope of 0.9-1.25 in one-minute windows; dividing by the reading cut the
spread of one-minute medians from 0.12-0.14 to 0.06.  The sum of the
parts tracked the repetitions better than any one part.  (That trace also
timed a 32 MB memory copy; it tracked worst and doubled the parent's
resident memory, so it is left out.)
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the median `reading_s` on the host the benchmark was defined on (2-vCPU
# 2.1 GHz Xeon VM).  Times are reported at this speed.
REFERENCE_S = 0.33

_N = 34                       # 34 x 34 grid: about the 1152 nodes of the sphere workload
_T = sp.diags([-np.ones(_N - 1), 2.0 * np.ones(_N), -np.ones(_N - 1)], [-1, 0, 1])
_I = sp.identity(_N)
_LAPLACIAN = (sp.kron(_I, _T) + sp.kron(_T, _I) + 5.0 * sp.identity(_N * _N)).tocsc()
_RHS = np.ones(_N * _N)
_X = np.linspace(0.0, 1.0, 200_000)


def _python():
    acc = 0
    for i in range(1_000_000):
        acc += i * i


def _numpy():
    for _ in range(40):
        np.sin(_X).sum()


def _sparse_lu():
    for _ in range(20):
        spla.splu(_LAPLACIAN).solve(_RHS)


def _objects():
    json.loads(json.dumps([{"a": i, "b": [i, i + 1], "c": str(i)} for i in range(15_000)]))


def _spawn():
    for _ in range(6):
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


PARTS = (_python, _numpy, _sparse_lu, _objects, _spawn)


def reading_s() -> float:
    """Wall time of the fixed mix: the host's current speed, lower is faster."""
    start = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - start
