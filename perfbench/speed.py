"""Reference loops that measure how fast the machine runs right now.

On a shared virtual machine the same code runs at different speeds from one
minute to the next (up to 1.5x on the 2-core machine the bounds were set on,
with nothing else of ours running), and all code slows together: interpreter
loops, small and large numpy kernels. The runner times a reference loop,
which does not use otsc, between rounds, and scales the round's times by
``REFERENCE_S[kind] / loop time``. A program change cannot move the loop, so
the scaled times still show it; the machine's speed changes cancel to the
extent that the loop and the workload slow alike. Two loops are kept because
interpreter-bound and memory-bound work slow differently: ``mixed`` for
workloads of many small calls, ``large`` for the B x B training step.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# seconds each loop takes at full speed on the machine the bounds were set on
REFERENCE_S = {"mixed": 0.004, "large": 0.018}


class _Obj:
    def __init__(self):
        self.v = 1.0

    def f(self, x):
        return self.v * x + 1.0


_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((100, 100))
_LARGE = _RNG.random((512, 512))
_TALL = _RNG.random((1024, 2))


def _mixed() -> float:
    start = time.perf_counter()
    obj, x = _Obj(), 0.0
    for _ in range(6000):  # interpreter and attribute-lookup work
        x = obj.f(x) % 97.0
    for _ in range(50):  # small-array numpy calls, overhead dominated
        e = np.exp(_SMALL - _SMALL.max())
        e /= e.sum(axis=1, keepdims=True)
        e @ _SMALL[:, :2]
    e = np.exp(_LARGE)  # one large elementwise pass
    e /= e.sum(axis=0)[None, :]
    return time.perf_counter() - start


def _large() -> float:
    # the shape of one Sinkhorn target: an outer product, exp, two normalizations
    start = time.perf_counter()
    s = _TALL @ _TALL.T
    e = np.exp(s - s.max())
    e /= e.sum(axis=0)[None, :]
    e /= e.sum(axis=1)[:, None]
    return time.perf_counter() - start


_LOOPS = {"mixed": _mixed, "large": _large}


def reference_seconds(kind: str) -> float:
    """Median of five passes of the ``kind`` reference loop, in seconds."""
    loop = _LOOPS[kind]
    return statistics.median(loop() for _ in range(5))


def factor(kind: str, before: float, after: float) -> float:
    """Scale for times measured between two reference measurements."""
    return REFERENCE_S[kind] / (0.5 * (before + after))
