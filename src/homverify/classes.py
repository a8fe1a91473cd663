"""Isomorphism-class tables over edge bitmasks.

A labelled graph on n <= MAX_N = 7 vertices is a P = n(n-1)/2-bit edge
mask, bit i standing for ``vertex_pairs(n)[i]``.  ``class_table(n)`` maps
every mask to the id of its isomorphism class.  It is built once per n by
orbit expansion, the idea behind nauty's canonical labelling (McKay &
Piperno, "Practical graph isomorphism, II", J. Symb. Comput. 2014): the
masks are walked in enumeration order, and each mask without a class
founds one and labels its whole orbit under the n! vertex permutations in
one numpy operation.  A class's representative is therefore its first mask
in enumeration order, and any invariant of a graph is computed once per
class, on the representative, and read for every labelled copy by a gather.
An invariant may also be derived from the tables alone: the sweeps take
each class's chromatic polynomial by deletion-contraction across them,
from the class of G-e in the same table and that of G/e in the table on
n-1 vertices, and store it under ``ClassTable.cached``'s "poly" name.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Iterator

import numpy as np

from .graphs import Graph, bipartition

MAX_N = 7  # largest vertex count for enumeration, sweeps, scans and class tables


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def enumeration_order(p: int) -> np.ndarray:
    """The masks over p pairs in the order of ``search.iter_edge_sets``:
    S(p) = [0] and S(i) = [0] ++ (bit i | S(i+1)) ++ S(i+1)[1:]."""
    s = np.zeros(1, dtype=np.int32)
    for i in range(p - 1, -1, -1):
        s = np.concatenate((s[:1], s | (1 << i), s[1:]))
    return s


def remap(masks: np.ndarray, dest: list[int]) -> np.ndarray:
    """Every mask with bit j moved to bit dest[j], or dropped where
    dest[j] < 0; bits sent to the same place are or-ed.  One lookup per
    byte of the mask."""
    out = np.zeros_like(masks)
    xs = np.arange(256, dtype=masks.dtype)
    for lo in range(0, len(dest), 8):
        table = np.zeros(256, dtype=masks.dtype)
        for j, d in enumerate(dest[lo:lo + 8]):
            if d >= 0:
                table |= ((xs >> j) & 1) << d
        out |= table[(masks >> lo) & 255]
    return out


def graph6_names(n: int, masks: np.ndarray) -> list[str]:
    """``to_graph6`` of the graph of every mask on n <= 62 vertices: the
    pair bits moved into graph6 order (column by column of the upper
    triangle, first bit highest), then cut into 6-bit characters + 63."""
    pairs = vertex_pairs(n)
    chars = -(-len(pairs) // 6)
    top = 6 * chars - 1
    bits = remap(masks, [top - (j * (j - 1) // 2 + i) for i, j in pairs])
    out = np.empty((len(masks), 1 + chars), dtype=np.uint8)
    out[:, 0] = n + 63
    for c in range(chars):
        out[:, 1 + c] = ((bits >> (top - 5 - 6 * c)) & 63) + 63
    text = out.tobytes().decode("ascii")
    return [text[i:i + 1 + chars] for i in range(0, len(text), 1 + chars)]


class ClassTable:
    """The isomorphism classes of the labelled graphs on n vertices.

    order:      masks in enumeration order; rank is its inverse
    cls:        class id of every mask, ids in order of first appearance
    reps:       the representative Graph of each class
    first_rank: rank of each representative, the lowest in its class
    size:       labelled copies per class, n!/|Aut|
    connected, bipartite: per-class flags
    """

    def __init__(self, n: int):
        self.n = n
        self.pairs = vertex_pairs(n)
        self.index = {p: i for i, p in enumerate(self.pairs)}
        p = len(self.pairs)
        self.order = enumeration_order(p)
        self.rank = np.empty(1 << p, dtype=np.int32)
        self.rank[self.order] = np.arange(1 << p, dtype=np.int32)
        # image bit of every pair under every vertex permutation, gathered
        # from a symmetric table of pair ids
        a, b = np.array(self.pairs, dtype=np.intp).reshape(p, 2).T
        pair_id = np.zeros((n, n), dtype=np.int32)
        pair_id[a, b] = pair_id[b, a] = np.arange(p)
        perms = np.array(list(permutations(range(n))), dtype=np.intp).reshape(math.factorial(n), n)
        images = 1 << pair_id[perms[:, a], perms[:, b]]
        self.cls = np.full(1 << p, -1, dtype=np.int32)
        reps = []
        # walk the masks in enumeration order, a block at a time, so that
        # Python only looks at masks still unlabelled when their block starts
        step = 4096
        for lo in range(0, 1 << p, step):
            block = self.order[lo:lo + step]
            for m in block[self.cls[block] < 0].tolist():
                if self.cls[m] < 0:
                    bits = [j for j in range(p) if m >> j & 1]
                    self.cls[images[:, bits].sum(axis=1)] = len(reps)
                    reps.append(m)
        self.reps = [self.graph(m) for m in reps]
        self.first_rank = self.rank[reps]
        self.size = np.bincount(self.cls, minlength=len(reps))
        self.connected = np.array([g.is_connected() for g in self.reps])
        self.bipartite = np.array([bipartition(g) is not None for g in self.reps])
        self._values: dict = {}

    def graph(self, mask: int) -> Graph:
        return Graph(self.n, frozenset(e for i, e in enumerate(self.pairs) if mask >> i & 1))

    def values(self, name: str, fn: Callable[[Graph], object]) -> list:
        """fn of each class representative, computed once per name and
        kept beside the lists of cached: the sweeps keep ind_count and
        wr_count here as "ind" and "wr".  The chromatic polynomials are
        not a call per representative: sweeps._class_polys derives them
        across the tables and keeps them in cached as "poly"."""
        return self.cached(name, lambda: [fn(g) for g in self.reps])

    def cached(self, name: str, build: Callable[[], list]) -> list:
        """build(), one value per class, computed once per name."""
        got = self._values.get(name)
        if got is None:
            got = self._values[name] = build()
        return got

    def edge_deletions(self, keep: np.ndarray) -> Iterator[tuple[int, int, int, int, int]]:
        """(g, h, b, count, rank): `count` labelled graphs G of the classes
        marked in keep with an edge e at pair b, G in class g and G-e in
        class h, the first of them at `rank`."""
        ranks = np.flatnonzero(keep[self.cls[self.order]]).astype(np.int32)
        masks = self.order[ranks]
        c = len(self.reps)
        for b in range(len(self.pairs)):
            has = (masks >> b) & 1 == 1
            m = masks[has]
            keys = self.cls[m].astype(np.int64) * c + self.cls[m ^ (1 << b)]
            for key, count, rank in groups(keys, ranks[has]):
                g, h = divmod(key, c)
                yield g, h, b, count, rank


def groups(keys: np.ndarray, ranks: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """(key, count, lowest rank) for each distinct key, by an unstable sort
    and a minimum per run of equal keys (np.unique's stable sort took three
    times as long on a million keys)."""
    if not len(keys):
        return iter(())
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    count = np.diff(np.append(starts, len(keys)))
    first = np.minimum.reduceat(ranks[order], starts)
    return zip(ordered[starts].tolist(), count.tolist(), first.tolist())


@lru_cache(maxsize=MAX_N + 1)
def class_table(n: int) -> ClassTable:
    """The table for n vertices, built on first use."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"class tables support n in 0..{MAX_N}")
    return ClassTable(n)
