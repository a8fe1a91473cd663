"""Instance generation and counterexample hunting for the edge-monotonicity
question: for which targets G does hom(H,G)/hom(H-e,G) >= hom(K_2,G)/v(G)^2
hold for every (bipartite) H?

Verdicts are exact.  The sampler decides each drawn target in vectorized
integer arithmetic on its entries in tenths, then re-checks every sample it
flags by a second route, hom_count on the Fraction target, in sample order,
so the reported witness is the first one in the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .classes import MAX_N, class_table, vertex_pairs
from .graphs import Graph, TargetGraph, bipartition, to_graph6
from .counting import hom_count


# ---------------------------------------------------------------------------
# Labeled graph enumeration
# ---------------------------------------------------------------------------

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


def enumerate_graphs(n: int, *, connected: bool = False,
                     bipartite: bool = False) -> Iterator[Graph]:
    """All labeled graphs on n vertices in lexicographic edge-set order,
    optionally filtered."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_N}")
    for edges in iter_edge_sets(n):
        g = Graph(n, frozenset(edges))
        if connected and not g.is_connected():
            continue
        if bipartite and bipartition(g) is None:
            continue
        yield g


# ---------------------------------------------------------------------------
# Exhaustive edge-monotonicity scan for a fixed target
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    target: str
    threshold: Fraction
    tested_h: int
    tested_edges: int
    skipped_zero_denominator: int
    worst_h: Optional[str]
    worst_edge: Optional[tuple[int, int]]
    worst_ratio: Optional[Fraction]
    satisfies_all: bool

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "threshold": f"{self.threshold.numerator}/{self.threshold.denominator}",
            "tested_H": self.tested_h,
            "tested_edges": self.tested_edges,
            "skipped_zero_denominator": self.skipped_zero_denominator,
            "worst": None if self.worst_h is None else {
                "H": self.worst_h,
                "edge": list(self.worst_edge),
                "ratio": f"{self.worst_ratio.numerator}/{self.worst_ratio.denominator}",
            },
            "satisfies_all": self.satisfies_all,
        }


def edge_mono_scan(target: TargetGraph, max_n: int, *,
                   bipartite_only: bool = False) -> ScanResult:
    """Minimum of hom(H,G)/hom(H-e,G) over all labeled H up to max_n
    vertices and all edges, against the threshold hom(K_2,G)/v(G)^2.
    Counts are computed once per isomorphism class; the worst instance is
    the first in enumeration order that attains the minimum."""
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"scan supports max_n in 1..{MAX_N}")
    if target.k == 0:
        raise ValueError("scan needs a target with at least one vertex")
    threshold = target.edge_weight_sum / target.k ** 2
    tested_h = 0
    tested_edges = 0
    skipped = 0
    worst: Optional[tuple[Fraction, tuple[int, int, int]]] = None
    for n in range(1, max_n + 1):
        t = class_table(n)
        keep = t.bipartite if bipartite_only else np.ones(len(t.reps), bool)
        tested_h += int(t.size[keep].sum())
        hom = [hom_count(g, target) if k else None for g, k in zip(t.reps, keep)]
        for g, h, b, count, rank in t.edge_deletions(keep):
            if hom[h] == 0:
                skipped += count
                continue
            tested_edges += count
            ratio = hom[g] / hom[h]
            if worst is None or ratio < worst[0] or (
                    ratio == worst[0] and (n, rank, b) < worst[1]):
                worst = (ratio, (n, rank, b))
    if worst is None:
        return ScanResult(target.describe(), threshold, tested_h, 0, skipped,
                          None, None, None, True)
    ratio, (n, rank, b) = worst
    t = class_table(n)
    gid = to_graph6(t.graph(int(t.order[rank])))
    return ScanResult(target.describe(), threshold, tested_h, tested_edges, skipped,
                      gid, t.pairs[b], ratio, ratio >= threshold)


# ---------------------------------------------------------------------------
# Random weighted-target counterexample search
# ---------------------------------------------------------------------------

WEIGHT_LEVELS = 11  # entries drawn uniformly from {0, 1/10, ..., 10/10}


@dataclass(frozen=True)
class Counterexample:
    target: TargetGraph
    edge: tuple[int, int]
    ratio: Fraction
    threshold: Fraction
    sample_index: int

    def to_json_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "ratio": f"{self.ratio.numerator}/{self.ratio.denominator}",
            "threshold": f"{self.threshold.numerator}/{self.threshold.denominator}",
            "sample_index": self.sample_index,
            "target": [[f"{x.numerator}/{x.denominator}" for x in row]
                       for row in self.target.w],
        }


def _draw_entries(rng: random.Random, k: int) -> list[int]:
    """Upper triangle (row-major, diagonal included) in tenths."""
    return [rng.randrange(WEIGHT_LEVELS) for _ in range(k * (k + 1) // 2)]


def _entries_to_target(entries: list[int], k: int) -> TargetGraph:
    mat = [[Fraction(0)] * k for _ in range(k)]
    it = iter(entries)
    for i in range(k):
        for j in range(i, k):
            x = Fraction(next(it), 10)
            mat[i][j] = x
            mat[j][i] = x
    return TargetGraph(tuple(tuple(row) for row in mat))


def _weight_batch(entries, k: int, g: Graph) -> np.ndarray:
    """Symmetric integer matrices from rows of upper-triangle entries in
    0..10: in int64 when k^(n+2) * 10^m, a bound on every count of g and
    g - e and on every einsum intermediate, is below 2^63, else in Python ints."""
    dtype = np.int64 if k ** (g.n + 2) * 10 ** g.m < 2 ** 63 else object
    iu, ju = np.triu_indices(k)
    pos = np.empty((k, k), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    return np.asarray(entries, dtype=dtype)[:, pos]


# keeps the float prescreen's name: perfbench's layer tracer wraps it
def _hom_floats(g: Graph, w_batch: np.ndarray) -> np.ndarray:
    """hom(g, .) for a batch of integer weight matrices, exact in its dtype."""
    nb, k, _ = w_batch.shape
    if not g.edges:
        return np.full(nb, k ** g.n, dtype=w_batch.dtype)
    operands = []
    for u, v in g.sorted_edges:
        operands.append(w_batch)
        operands.append([0, 1 + u, 1 + v])
    out = np.einsum(*operands, [0], optimize=True)
    touched = {x for e in g.edges for x in e}
    iso = g.n - len(touched)
    if iso:
        out = out * k ** iso
    return out


_BATCH = 16384


def find_counterexample(g: Graph, k: int, samples: int, seed: int) -> Optional[Counterexample]:
    """Draw symmetric targets with entries on the tenths grid from a seeded
    generator and return the first strict violation of
    hom(H,G)/hom(H-e,G) >= sum(w)/k^2 over the edges of H, or None.

    Deterministic: the entry stream depends only on the seed.  With entries
    E in tenths, hom(H, E/10) = hom(H, E)/10^m, so a sample violates at e
    exactly when k^2 hom(H,E) < sum(E) hom(H-e,E), decided in integers per
    batch.  hom_count confirms flagged samples in sample order, or raises.
    """
    if not 1 <= k <= 5:
        raise ValueError("target size k must be in 1..5")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not g.edges:
        return None
    rng = random.Random(seed)
    deletions = [(e, g.delete_edge(*e)) for e in g.sorted_edges]
    done = 0
    while done < samples:
        batch = min(_BATCH, samples - done)
        all_entries = [_draw_entries(rng, k) for _ in range(batch)]
        w = _weight_batch(all_entries, k, g)
        s = w.sum(axis=(1, 2))
        lhs = k * k * _hom_floats(g, w)
        candidate = np.zeros(batch, dtype=bool)
        for _e, h_minus in deletions:
            candidate |= lhs < s * _hom_floats(h_minus, w)
        for idx in np.flatnonzero(candidate):
            target = _entries_to_target(all_entries[idx], k)
            threshold = target.edge_weight_sum / k ** 2
            num = hom_count(g, target)
            for e, h_minus in deletions:
                den = hom_count(h_minus, target)
                if den and num / den < threshold:
                    return Counterexample(target, e, num / den, threshold, done + int(idx))
            raise RuntimeError(f"sample {done + int(idx)}: the integer screen flags a "
                               "violation that hom_count does not confirm")
        done += batch
    return None
