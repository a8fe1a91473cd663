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


def iter_edge_sets(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All subsets of vertex pairs in lexicographic order of the sorted
    edge tuple: (), ((0,1),), ((0,1),(0,2)), ..."""
    pairs = vertex_pairs(n)

    def rec(prefix: list, start: int):
        yield tuple(prefix)
        for i in range(start, len(pairs)):
            prefix.append(pairs[i])
            yield from rec(prefix, i + 1)
            prefix.pop()

    yield from rec([], 0)


def enumeration_order(p: int) -> np.ndarray:
    """The masks over p pairs in the order of ``iter_edge_sets``:
    S(p) = [0] and S(i) = [0] ++ (bit i | S(i+1)) ++ S(i+1)[1:]."""
    s = np.zeros(1, dtype=np.int32)
    for i in range(p - 1, -1, -1):
        s = np.concatenate((s[:1], s | (1 << i), s[1:]))
    return s


_BYTE_BITS = np.arange(256)[:, None] >> np.arange(8) & 1 == 1  # [x, j]: bit j of x is set


def remap(masks: np.ndarray, dest: list[int]) -> np.ndarray:
    """Every mask with bit j moved to bit dest[j], or dropped where
    dest[j] < 0; bits sent to the same place are or-ed.  One lookup per
    byte of the mask."""
    out = np.zeros_like(masks)
    for lo, table in enumerate(_remap_tables(tuple(dest), masks.dtype)):
        out |= table[(masks >> 8 * lo) & 255]
    return out


@lru_cache(maxsize=256)
def _remap_tables(dest: tuple[int, ...], dtype: np.dtype) -> list[np.ndarray]:
    """remap's table per byte of a mask, built once per bit map; never written."""
    moved = np.array([1 << d if d >= 0 else 0 for d in dest], dtype=dtype)
    return [np.bitwise_or.reduce(_BYTE_BITS[:, :len(part)] * part, axis=1)
            for part in np.split(moved, range(8, len(dest), 8))]


@lru_cache(maxsize=MAX_N + 1)
def _byte_tables(n: int) -> list[tuple[int, list, list, np.ndarray]]:
    """Per byte of a mask over vertex_pairs(n), n <= MAX_N: its lowest bit,
    and for each value of the byte the sorted tuple of its edges and their
    neighbour masks packed n bits a vertex (vertex v's at bit n*v), as a
    list and as an int64 array.  Each pair doubles the tables: the values
    with its bit set add it, the highest pair so far, to those without."""
    pairs = vertex_pairs(n)
    out = []
    for lo in range(0, len(pairs), 8):
        edges, packed = [()], [0]
        for u, v in pairs[lo:lo + 8]:
            bits = 1 << (n * u + v) | 1 << (n * v + u)
            edges += [e + ((u, v),) for e in edges]
            packed += [x | bits for x in packed]
        out.append((lo, edges, packed, np.array(packed, dtype=np.int64)))
    return out


def mask_graphs(n: int, masks: np.ndarray) -> Iterator[Graph]:
    """The Graph of every mask on n <= MAX_N vertices, built by
    Graph.trusted: the neighbour masks of all of them in one numpy pass,
    each sorted edge tuple joined from per-byte lookups."""
    edges = [()] * len(masks)
    packed = np.zeros(len(masks), dtype=np.int64)
    for lo, table, _, packed_table in _byte_tables(n):
        byte = (masks >> lo) & 255
        packed |= packed_table[byte]
        edges = [e + table[b] for e, b in zip(edges, byte.tolist())]
    nbrs = (packed >> (n * np.arange(n))[:, None]) & ((1 << n) - 1)
    rows = zip(*nbrs.tolist()) if n else [()] * len(edges)
    for e, nm in zip(edges, rows):
        yield Graph.trusted(n, frozenset(e), nm)


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

    order:      masks in enumeration order; a mask's rank is its index
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
        # image bit of every pair under every vertex permutation, gathered
        # from a symmetric table of pair ids
        a, b = np.array(self.pairs, dtype=np.intp).reshape(p, 2).T
        pair_id = np.zeros((n, n), dtype=np.int32)
        pair_id[a, b] = pair_id[b, a] = np.arange(p)
        perms = np.array(list(permutations(range(n))), dtype=np.intp).reshape(math.factorial(n), n)
        images = 1 << pair_id[perms[:, a], perms[:, b]]
        self.cls = np.full(1 << p, -1, dtype=np.int32)
        reps, ranks = [], []
        # walk the masks in enumeration order, a block at a time, so that
        # Python only looks at masks still unlabelled when their block starts
        step = 4096
        for lo in range(0, 1 << p, step):
            block = self.order[lo:lo + step]
            for i in np.flatnonzero(self.cls[block] < 0).tolist():
                m = int(block[i])
                if self.cls[m] < 0:
                    bits = [j for j in range(p) if m >> j & 1]
                    self.cls[images[:, bits].sum(axis=1)] = len(reps)
                    reps.append(m)
                    ranks.append(lo + i)
        self.reps = list(mask_graphs(n, np.array(reps, dtype=np.int32)))
        self.first_rank = np.array(ranks, dtype=np.int32)
        self.size = np.bincount(self.cls, minlength=len(reps))
        self.connected = np.array([g.is_connected() for g in self.reps])
        self.bipartite = np.array([bipartition(g) is not None for g in self.reps])
        self._values: dict = {}

    def graph(self, mask: int) -> Graph:
        """mask_graphs for one mask, in Python ints."""
        n, edges, packed = self.n, (), 0
        for lo, table, packed_table, _ in _byte_tables(n):
            byte = mask >> lo & 255
            edges += table[byte]
            packed |= packed_table[byte]
        full = (1 << n) - 1
        return Graph.trusted(n, frozenset(edges), tuple(packed >> n * v & full for v in range(n)))

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


@lru_cache(maxsize=MAX_N + 1)
def class_table(n: int) -> ClassTable:
    """The table for n vertices, built on first use."""
    if not 0 <= n <= MAX_N:
        raise ValueError(f"class tables support n in 0..{MAX_N}")
    return ClassTable(n)
