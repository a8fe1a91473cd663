"""Instance generation and counterexample hunting for the edge-monotonicity
question: for which targets G does hom(H,G)/hom(H-e,G) >= hom(K_2,G)/v(G)^2
hold for every (bipartite) H?

Verdicts are exact.  The sampler decides each batch of drawn targets, in
tenths, with counting.hom_batch, once per isomorphism class of H - e, and
confirms each flagged sample in sample order by hom_count on the Fraction
target (the same elimination in Python ints, which catches a wrong int64
result), so the reported witness is the first in the stream of
random.Random(seed).randrange(11), drawn batch by batch from one numpy
MT19937 loaded with that Random's state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .classes import MAX_N, canonical_masks, class_table, iter_edge_sets, vertex_pairs
from .graphs import (
    Graph,
    TargetGraph,
    bipartition,  # noqa: F401  (perfbench's layer tracer wraps search.bipartition)
    to_graph6,
)
from .counting import hom_batch, hom_count
from .sweeps import SweepSummary, _edge_slots, _group_summary, _rep_groups


# ---------------------------------------------------------------------------
# Labeled graph enumeration
# ---------------------------------------------------------------------------

def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All labeled graphs on n vertices in lexicographic edge-set order."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {MAX_N}")
    for edges in iter_edge_sets(n):
        yield Graph(n, frozenset(edges))


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
    Counts are computed once per isomorphism class and folded over the
    sweeps' edge slots, one row per class representative weighted by its
    class's size, as the eq_* sweeps fold theirs; the worst instance is the
    first in enumeration order that attains the minimum."""
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"scan supports max_n in 1..{MAX_N}")
    if target.k == 0:
        raise ValueError("scan needs a target with at least one vertex")
    threshold = target.edge_weight_sum / target.k ** 2
    # the counts x = hom(H, D*W) = D^m hom(H, W) are integers, and the scan
    # is the claim x(G)/x(G-e) >= D*threshold on them, with margins D times
    # those of the ratios
    d = target.integer_rows[1]
    tested_h = 0
    total = SweepSummary("scan")
    for n in range(1, max_n + 1):
        t = class_table(n)
        keep = t.bipartite if bipartite_only else np.ones(len(t.reps), bool)
        tested_h += int(t.size[keep].sum())
        counts = [int(hom_count(g, target) * d ** g.m) if k else 0 for g, k in zip(t.reps, keep)]
        slots = _edge_slots(t, [(counts, d * threshold.numerator, threshold.denominator)], None, keep)
        total.merge(_group_summary(total.claim, _rep_groups(t, slots), lambda key, n=n: (n, *key)))
    worst = (None, None, None)
    if total.min_margin is not None:
        n, rank, b = total.min_margin_instance
        t = class_table(n)
        worst = (to_graph6(t.graph(int(t.order[rank]))), t.pairs[b], total.min_margin / d + threshold)
    return ScanResult(target.describe(), threshold, tested_h, total.instances - total.inapplicable,
                      total.inapplicable, *worst, not total.violated)


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


def _bit_generator(rng: random.Random):
    """numpy's MT19937 at rng's key and position.  It is the same Mersenne
    Twister as CPython's and yields the same 32-bit words from there on;
    rng itself is left as it was."""
    from numpy.random import MT19937  # imported at the first search, not at set-up

    internal = rng.getstate()[1]
    bits = MT19937(0)  # a fixed seed skips OS entropy; the state is replaced next
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(internal[:-1], dtype=np.uint32),
                            "pos": internal[-1]}}
    return bits


def _draw_entries(bits, k: int, count: int) -> np.ndarray:
    """`count` upper triangles (row-major, diagonal included) in tenths, as
    a (count, k(k+1)/2) uint8 array: the values of as many calls of
    randrange(11) on a Random at the generator's key and position, which
    the generator is left at as that Random would be.

    CPython's randrange(11) takes the top 4 bits of one 32-bit generator
    word and draws again while they are 11 or more.  Each round draws one
    word per value still missing and keeps fewer, so no round draws past
    the last word those calls would use."""
    size = count * (k * (k + 1) // 2)
    out = np.empty(size, dtype=np.uint8)
    got = 0
    while got < size:
        tops = (bits.random_raw(size - got) >> 28).astype(np.uint8)
        kept = np.compress(tops < WEIGHT_LEVELS, tops)  # faster than a mask index
        out[got:got + kept.size] = kept
        got += kept.size
    return out.reshape(count, -1)


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
    0..10, in int64 when k^(n+2) * 10^m < 2^63, else in Python ints: each
    factor entry of g or g - e is at most k^n * 10^m, each screen product k^2 times that."""
    dtype = np.int64 if k ** (g.n + 2) * 10 ** g.m < 2 ** 63 else object
    iu, ju = np.triu_indices(k)
    pos = np.empty((k, k), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(iu.size)
    return np.asarray(entries, dtype=dtype)[:, pos]


# keeps the float prescreen's name: perfbench's layer tracer wraps it
def _hom_floats(g: Graph, w_batch: np.ndarray) -> np.ndarray:
    """hom(g, .) for a batch of integer weight matrices, exact in its dtype."""
    return hom_batch(g, w_batch)


_BATCH = 16384


def _screens(g: Graph, deletions: list[tuple[tuple[int, int], Graph]]) -> list[Graph]:
    """The first H - e of each isomorphism class among the deletions.
    Isomorphic graphs have equal hom counts, so screening these flags the
    samples that screening every deletion would.  On n <= MAX_N vertices
    the class key is the canonical edge mask; past that, the edge itself."""
    if g.n <= MAX_N:
        bit = {p: 1 << i for i, p in enumerate(vertex_pairs(g.n))}
        full = sum(bit[e] for e, _h in deletions)
        keys = canonical_masks(g.n, np.array([full ^ bit[e] for e, _h in deletions])).tolist()
    else:
        keys = [e for e, _h in deletions]
    first: dict = {}
    for key, (_e, h_minus) in zip(keys, deletions):
        first.setdefault(key, h_minus)
    return list(first.values())


def _flag(g: Graph, screens: list[Graph], w: np.ndarray) -> np.ndarray:
    """The samples of w with k^2 hom(H,E) < sum(E) hom(H-e,E) for some
    screened H - e."""
    k = w.shape[1]
    s = w.sum(axis=(1, 2))
    lhs = k * k * _hom_floats(g, w)
    candidate = np.zeros(len(w), dtype=bool)
    for h_minus in screens:
        candidate |= lhs < s * _hom_floats(h_minus, w)
    return candidate


def find_counterexample(g: Graph, k: int, samples: int, seed: int) -> Optional[Counterexample]:
    """Draw symmetric targets with entries on the tenths grid from a seeded
    generator and return the first strict violation of
    hom(H,G)/hom(H-e,G) >= sum(w)/k^2 over the edges of H, or None.

    Deterministic: the entries, upper triangles row by row and sample by
    sample, are the stream of random.Random(seed).randrange(11), drawn in
    bulk one batch at a time from one MT19937 loaded with that Random's
    state, so batch size does not move it.  With entries E in tenths,
    hom(H, E/10) = hom(H, E)/10^m, so a sample violates at e exactly when
    k^2 hom(H,E) < sum(E) hom(H-e,E), decided in integers per batch, once
    per isomorphism class of H - e.  hom_count confirms flagged samples in
    sample order against every H - e in edge order, or raises.
    """
    if not 1 <= k <= 5:
        raise ValueError("target size k must be in 1..5")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not g.edges:
        return None
    bits = _bit_generator(random.Random(seed))
    deletions = [(e, g.delete_edge(*e)) for e in g.sorted_edges]
    screens = _screens(g, deletions)
    done = 0
    while done < samples:
        batch = min(_BATCH, samples - done)
        all_entries = _draw_entries(bits, k, batch)
        candidate = _flag(g, screens, _weight_batch(all_entries, k, g))
        for idx in np.flatnonzero(candidate):
            target = _entries_to_target(all_entries[idx].tolist(), k)
            threshold = target.edge_weight_sum / k ** 2
            num = hom_count(g, target)
            for e, h_minus in deletions:
                den = hom_count(h_minus, target)
                # a sample of 0s and 10/10s is an integer target, whose counts are ints
                if den and (ratio := Fraction(num, den)) < threshold:
                    return Counterexample(target, e, ratio, threshold, done + int(idx))
            raise RuntimeError(f"sample {done + int(idx)}: the integer screen flags a "
                               "violation that hom_count does not confirm")
        done += batch
    return None
