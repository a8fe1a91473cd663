"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on shared machines whose speed drifts by more than half
for tens of seconds at a time.  Each timed pass times this computation
after set-up, between its units and after its last unit, outside the timed
sections, and ``run.py`` reports end-to-end times relative to it.

The computation uses only the standard library and numpy, never homverify,
so a change to homverify cannot change it.  It mixes the kinds of work the
workloads do: small-graph backtracking over Python lists, exact Fraction
sums, JSON encoding, batched numpy arithmetic, a tuple-keyed table, and
reads spread over more memory than the processor's caches hold.
"""

from __future__ import annotations

import gc
import json
import random
import time
from fractions import Fraction

import numpy as np

_PAIRS = tuple((i, j) for j in range(5) for i in range(j))


def _colourings(n: int, edges: tuple, q: int) -> int:
    earlier = [[] for _ in range(n)]
    for u, v in edges:
        earlier[v].append(u)
    colour = [0] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for c in range(q):
            if all(colour[j] != c for j in earlier[i]):
                colour[i] = c
                total += extend(i + 1)
        return total

    return extend(0)


def _graphs() -> int:
    seen: dict = {}
    acc = Fraction(0)
    for mask in range(0, 1 << len(_PAIRS), 5):
        edges = tuple(p for b, p in enumerate(_PAIRS) if mask >> b & 1)
        c = _colourings(5, edges, 3)
        key = (len(edges), c)
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(c, len(edges) + 1)
    return len(seen) + acc.denominator % 7


def _records() -> int:
    size = 0
    for i in range(3000):
        rec = {"graph": format(i, "b"), "edge": [i % 5, i % 7],
               "ratio": str(Fraction(i + 1, i % 13 + 2)), "holds": i % 3 != 0}
        size += len(json.dumps(rec, sort_keys=True))
    return size


def _batch() -> float:
    rng = random.Random(7)
    iu, ju = np.triu_indices(3)
    total = 0.0
    for _ in range(16):
        entries = [[rng.randrange(11) for _ in range(6)] for _ in range(256)]
        w = np.zeros((256, 3, 3))
        e = np.array(entries, dtype=float) / 10.0
        w[:, iu, ju] = e
        w[:, ju, iu] = e
        # trace of w^3 for every matrix of the batch
        w2 = (w[:, :, :, None] * w[:, None, :, :]).sum(axis=2)
        total += float((w2 * w.transpose(0, 2, 1)).sum())
    return total


def _table() -> int:
    # a tuple-keyed table read in scattered order
    total = 0
    for _ in range(20):
        table = {(i, i * 7 % 100): [i] for i in range(1000)}
        for i in range(1000):
            j = i * 7919 % 1000
            total += table[(j, j * 7 % 100)][0]
    return total


_SPREAD_SIZE = 1 << 17
_spread: dict | None = None


def _scattered() -> int:
    # reads spread over about ten megabytes, for the share of the workloads'
    # time spent waiting on memory
    total = 0
    for i in range(80000):
        total += _spread[i * 7919 % _SPREAD_SIZE]
    return total


def calibrate() -> float:
    """Seconds the reference computation takes now.

    The first call builds a table of about ten megabytes that later calls
    read again, so a process that calls this holds that much more memory.
    The garbage collector is paused meanwhile, so that the reading does not
    depend on how many objects the calling process holds (the table holds
    only ints, which the collector does not track)."""
    global _spread
    if _spread is None:
        _spread = dict.fromkeys(range(_SPREAD_SIZE), 1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _graphs()
        _records()
        _batch()
        _table()
        _scattered()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
