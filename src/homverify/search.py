"""Instance generation and counterexample hunting for the edge-monotonicity
question: for which targets G does hom(H,G)/hom(H-e,G) >= hom(K_2,G)/v(G)^2
hold for every (bipartite) H?

Verdicts are exact.  The sampler prescreens with vectorized floats using an
error bound wide enough that no true violation can be screened out, then
confirms candidates with exact rational arithmetic in sample order, so the
reported witness is the first one in the stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Optional

import numpy as np

from .graphs import Graph, TargetGraph, bipartition, to_graph6
from .counting import hom_count

MAX_N = 7  # largest vertex count for enumeration, sweeps and scans


# ---------------------------------------------------------------------------
# Labeled graph enumeration
# ---------------------------------------------------------------------------

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
    vertices and all edges, against the threshold hom(K_2,G)/v(G)^2."""
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"scan supports max_n in 1..{MAX_N}")
    threshold = target.edge_weight_sum / target.k ** 2
    tested_h = 0
    tested_edges = 0
    skipped = 0
    worst: Optional[tuple[Fraction, str, tuple[int, int]]] = None
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n, bipartite=bipartite_only):
            tested_h += 1
            if not g.m:
                continue
            num = hom_count(g, target)
            gid: Optional[str] = None
            for e in g.sorted_edges:
                den = hom_count(g.delete_edge(*e), target)
                if den == 0:
                    skipped += 1
                    continue
                tested_edges += 1
                ratio = num / den
                if worst is None or ratio < worst[0]:
                    if gid is None:
                        gid = to_graph6(g)
                    worst = (ratio, gid, e)
    if worst is None:
        return ScanResult(target.describe(), threshold, tested_h, 0, skipped,
                          None, None, None, True)
    ratio, gid, e = worst
    return ScanResult(target.describe(), threshold, tested_h, tested_edges, skipped,
                      gid, e, ratio, ratio >= threshold)


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


def _hom_floats(g: Graph, w_batch: np.ndarray) -> np.ndarray:
    """hom(g, .) for a batch of weight matrices, float prescreen only."""
    nb, k, _ = w_batch.shape
    if not g.edges:
        return np.full(nb, float(k) ** g.n)
    operands = []
    for u, v in g.sorted_edges:
        operands.append(w_batch)
        operands.append([0, 1 + u, 1 + v])
    out = np.einsum(*operands, [0], optimize=True)
    touched = {x for e in g.edges for x in e}
    iso = g.n - len(touched)
    if iso:
        out = out * float(k) ** iso
    return out


_BATCH = 16384


def find_counterexample(g: Graph, k: int, samples: int, seed: int) -> Optional[Counterexample]:
    """Draw symmetric targets with entries on the tenths grid from a seeded
    generator and return the first strict violation of
    hom(H,G)/hom(H-e,G) >= sum(w)/k^2 over the edges of H, or None.

    Deterministic: the entry stream depends only on the seed, candidate
    confirmation runs in sample order, and the float prescreen is widened
    by a bound larger than any attainable rounding error, so it can rule
    instances out but never rule a true violation in or out incorrectly.
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
        w = np.zeros((batch, k, k))
        iu, ju = np.triu_indices(k)
        ent = np.array(all_entries, dtype=float) / 10.0
        w[:, iu, ju] = ent
        w[:, ju, iu] = ent
        s = w.sum(axis=(1, 2))
        hom_g = _hom_floats(g, w)
        candidate = np.zeros(batch, dtype=bool)
        for _e, h_minus in deletions:
            hom_m = _hom_floats(h_minus, w)
            # claim violated iff k^2 * hom_g < s * hom_m; pad by an error
            # bound no rounding can exceed at these magnitudes
            lhs = k * k * hom_g
            rhs = s * hom_m
            candidate |= lhs < rhs + 1e-6 * (lhs + rhs) + 1e-9
        for idx in np.flatnonzero(candidate):
            target = _entries_to_target(all_entries[idx], k)
            s_exact = target.edge_weight_sum
            if s_exact == 0:
                continue
            threshold = s_exact / k ** 2
            num = hom_count(g, target)
            for e, h_minus in deletions:
                den = hom_count(h_minus, target)
                if den == 0:
                    continue
                ratio = num / den
                if ratio < threshold:
                    return Counterexample(target, e, ratio, threshold, done + int(idx))
        done += batch
    return None
