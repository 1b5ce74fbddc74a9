"""A fixed reference loop that measures how fast this core runs right now.

On a shared host the same statutelab call can take 1.5 times as long in one
stretch of seconds as in the next, because other tenants contend for the
core, its caches and its memory bandwidth.  The benchmark times this loop
right before and after every timed operation and scales the operation's time
by ``REF_S / loop time``: the result is the time the operation would take on
a core where the loop takes ``REF_S``.  The loop is not statutelab code, so a
change to statutelab moves a scaled time by exactly as much as the raw one.
It mixes small float matrix products and element-wise numpy calls (as the
tensor core does) with dict building and sorting in the interpreter (as
``lexical`` does).
"""

from __future__ import annotations

import time

import numpy as np

# a round figure near the 0.92 ms one pass took on an uncontended core of
# the machine the bounds were set on (Python 3.11.7, numpy 2.4.6, OpenBLAS,
# one thread); a fixed constant, so scaled times of different runs compare
REF_S = 0.001

_RNG = np.random.default_rng(20220316)
_W = _RNG.standard_normal((64, 64)) * 0.1
_X = _RNG.standard_normal((64, 24))
_KEYS = [f"t{i}" for i in _RNG.permutation(1000).tolist()]


def reference() -> float:
    """Run the loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    x = _X
    for _ in range(16):
        x = np.tanh(_W @ x)
        s = x.sum(axis=0)
        e = np.exp(s - s.max())
        x = x * (e / e.sum())
    scores = {k: 0.0 for k in _KEYS}
    for j, k in enumerate(_KEYS):
        scores[k] += (j % 7) * 0.25
    sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - t0
