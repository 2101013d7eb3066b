"""A fixed reference computation that samples how fast the host runs now.

On a shared host the same code runs up to 1.8x slower in spells of seconds to
a minute, in CPU time as well as in wall time. `probe()` times a fixed mix of
the kinds of work the package does, none of it from the package: an
interpreter loop, vectorised updates of a 100k-path state with fresh normals,
short updates of a 700-cell array and dense least squares, about 0.25 s each.
Its time over REFERENCE_S is the host's slowdown at that moment; `run.py`
divides each round's times by the mean slowdown of the probes before and
after it. A change to the package leaves the probe as it is.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's median time on the reference host (README.md, "Metrics")
REFERENCE_S = 1.0

_A = np.random.default_rng(3).standard_normal((400, 400))
_B = np.ones(400)


def _interpreter():
    acc = 0.0
    for i in range(2_000_000):
        acc += (i % 7) * 0.5
    return acc


def _paths():
    rng = np.random.default_rng(7)
    x = np.zeros(100_000)
    z = np.empty_like(x)
    for _ in range(120):
        rng.standard_normal(out=z)
        x += 0.01 + 0.05 * z
        x[np.flatnonzero(x > 1.0)] -= 2.0
    return x


def _cells():
    p = np.linspace(0.0, 1.0, 700)
    for _ in range(15_000):
        f = 0.5 * (p[1:] + p[:-1]) - 0.1 * np.diff(p)
        p[1:-1] += 1e-4 * (f[1:] - f[:-1])
    return p


def _dense():
    for _ in range(9):
        np.linalg.lstsq(_A, _B, rcond=None)


def probe() -> float:
    """Seconds the reference mix takes now."""
    t0 = time.perf_counter()
    _interpreter()
    _paths()
    _cells()
    _dense()
    return time.perf_counter() - t0
