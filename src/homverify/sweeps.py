"""Exhaustive sweeps over labeled small graphs, and the claim table.

``CLAIMS`` is the one list of claims: for each, the parameters it needs,
its per-instance checks for ``homverify verify`` and its slots (for a
class-level claim, from its sweep).  The CLI and both sweep modes read it.

Both sweep modes run in-process over the isomorphism-class tables of
classes.py, in one instance enumeration order.  A claim's slots are the
one definition of its instance groups.  A slot is one report position of
the labelled graphs of a table, a vertex pair or one report of a
class-level claim, for every q of the claim; slot s at q index i is
stream position i*S + s.  It groups its graphs (by class, or for the pair
claims by the classes that fix the pair's margin) so that the reports of
a group differ only in the graph6 name:

* both modes fold their summary from one row per slot and class
  representative: the exact margin of its group, from per-class values
  (ind, wr or chromatic counts, or a class-level checker run on the
  representative), weighted by the class's size n!/|Aut|.  Group keys
  are invariant under relabelling, so over all slots the labelled copies
  of a class fall in the representative's groups.  Summary mode keys no
  labelled mask, and runs the checker only to name the kept instances;
* report mode renders each group's report once from the same rows, as a
  fragment behind the graph's name, then keys every labelled graph once
  to find its lines' fragments, all names coming from one vectorised
  graph6 pass per chunk of masks.  The checker runs once per group and q
  for the class-level claims, and once per key and q in a table for the
  pair claims: a key is class ids, the same in every pair's slot, so one
  report serves every pair slot with that key once its instance names the
  slot's pair.

The test suite checks both modes against the per-labelled-graph checkers.
The oracle sweep checks the counters themselves on every labelled graph,
in one process, against classes.all_masks_hom's tables over all masks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .classes import (
    MAX_N,
    ClassTable,
    all_masks_hom,
    class_table,
    graph6_names,
    iter_edge_sets,  # noqa: F401  (perfbench's layer tracer wraps sweeps.iter_edge_sets)
    mask_graphs,
    remap,
)
from .graphs import (
    Graph,
    TargetGraph,
    bipartition,  # noqa: F401  (perfbench's layer tracer wraps sweeps.bipartition)
    complete_target,
    hard_core_target,
    identified_edges as _identified_edges,  # perfbench's layer tracer wraps this name
    to_graph6,
    widom_rowlinson_target,
)
from .counting import (
    ChromPoly,
    _ind_branch,  # noqa: F401  (perfbench's layer tracer wraps sweeps._ind_branch)
    chrom_poly,
    hom_count,
    ind_count,
    wr_count,
)
from .verify import (
    INAPPLICABLE,
    Report,
    check_balanced_bipartite_bound,
    check_correlation_coloring,
    check_cycle_packing_bound,
    check_cycle_packing_headline,
    check_connected_ind_bound,
    check_connected_wr_bound,
    check_edge_ratio,
    check_free_energy_envelope,
    check_sidorenko_bound,
    check_wr_lemma,
)

BATCH_SIZE = 4096


@dataclass
class SweepSummary:
    claim: str
    instances: int = 0
    holds: int = 0
    violated: int = 0
    inapplicable: int = 0
    min_margin: Optional[Fraction] = None
    min_margin_instance: Optional[str] = None
    tight_count: int = 0
    first_tight_instance: Optional[str] = None
    first_violation: Optional[str] = None

    def record(self, instance: str, verdict: str, margin: Optional[Fraction]) -> None:
        """Record the next instance in enumeration order; an applicable
        one holds iff its margin is >= 0."""
        self.instances += 1
        if verdict == INAPPLICABLE:
            self.inapplicable += 1
            return
        if margin >= 0:
            self.holds += 1
        else:
            self.violated += 1
            if self.first_violation is None:
                self.first_violation = instance
        if margin == 0:
            self.tight_count += 1
            if self.first_tight_instance is None:
                self.first_tight_instance = instance
        if self.min_margin is None or margin < self.min_margin:
            self.min_margin = margin
            self.min_margin_instance = instance

    def merge(self, other: "SweepSummary") -> None:
        self.instances += other.instances
        self.holds += other.holds
        self.violated += other.violated
        self.inapplicable += other.inapplicable
        self.tight_count += other.tight_count
        if self.first_violation is None:
            self.first_violation = other.first_violation
        if self.first_tight_instance is None:
            self.first_tight_instance = other.first_tight_instance
        if other.min_margin is not None and (
            self.min_margin is None or other.min_margin < self.min_margin
        ):
            self.min_margin = other.min_margin
            self.min_margin_instance = other.min_margin_instance

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "instances": self.instances,
            "holds": self.holds,
            "violated": self.violated,
            "inapplicable": self.inapplicable,
            "min_margin": None if self.min_margin is None else
                f"{self.min_margin.numerator}/{self.min_margin.denominator}",
            "min_margin_instance": self.min_margin_instance,
            "tight_count": self.tight_count,
            "first_tight_instance": self.first_tight_instance,
            "first_violation": self.first_violation,
        }


def _check_max_n(max_n: int) -> None:
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"sweeps support max_n in 1..{MAX_N}")


# kept only because perfbench's POOL_PLAN wraps it, until the benchmark
# stops (ROADMAP item 1); nothing calls it, since every sweep runs in one
# process
def _map_batches(fn: Callable, jobs):
    """fn of every job, in order."""
    yield from map(fn, jobs)


@dataclass(frozen=True)
class SweepConfig:
    claim: str
    max_n: int
    qs: tuple[int, ...] = ()
    ell: int = 6
    target: Optional[TargetGraph] = None

    def validate(self) -> None:
        claim = CLAIMS.get(self.claim)
        if claim is None or claim.slots is None:
            raise ValueError(f"unknown sweep claim {self.claim!r}")
        _check_max_n(self.max_n)
        claim.check(self.qs, self.target, self.ell)


# ---------------------------------------------------------------------------
# Instance groups: the one definition both sweep modes read
# ---------------------------------------------------------------------------

# kept only because perfbench/one_pass.py reads its cache_info(), until
# the benchmark stops reading it (ROADMAP item 1); nothing calls it, since
# _class_polys takes every class's polynomial from the tables
@lru_cache(maxsize=1 << 18)
def _poly_cached(n: int, edges: tuple) -> ChromPoly:
    return chrom_poly(Graph(n, frozenset(edges)))


def _identify_map(t: ClassTable, u: int, v: int) -> list[int]:
    """Bit map from the masks of t to those of G/uv in the n-1 table."""
    index = class_table(t.n - 1).index
    return [index[e[0]] if (e := _identified_edges((p,), u, v)) else -1
            for p in t.pairs]


def _delete_map(t: ClassTable, u: int, v: int) -> list[int]:
    """Bit map from the masks of t to those of G-u-v in the n-2 table."""
    index = class_table(t.n - 2).index
    pos = {w: i for i, w in enumerate(w for w in range(t.n) if w not in (u, v))}
    return [index[(pos[a], pos[b])] if a in pos and b in pos else -1 for a, b in t.pairs]


def _class_polys(t: ClassTable) -> list[ChromPoly]:
    """The chromatic polynomial of every class of t, once per table, by
    deletion-contraction over the tables: P(G) = P(G-e) - P(G/e), with e
    the lowest pair of G's representative, G-e a class of t with one edge
    fewer and G/e a class of the n-1 table.  The classes go by edge count
    from the edgeless one, q^n, so P(G-e) is ready when P(G) is formed.
    At n <= MAX_N the coefficients fit in int64."""
    def build():
        if t.n == 0:
            return [ChromPoly((1,))]
        t1 = class_table(t.n - 1)
        prev = np.zeros((len(t1.reps), t.n + 1), dtype=np.int64)
        prev[:, :t.n] = [p.coeffs for p in _class_polys(t1)]
        reps = t.order[t.first_rank]
        low = reps & -reps
        minus = t.cls[reps ^ low]
        contracted = np.zeros(len(reps), dtype=np.int64)
        for b, (u, v) in enumerate(t.pairs):
            at = low == 1 << b
            if at.any():
                contracted[at] = t1.cls[remap(reps[at], _identify_map(t, u, v))]
        edges = np.array([g.m for g in t.reps])
        coeffs = np.zeros((len(reps), t.n + 1), dtype=np.int64)
        coeffs[edges == 0, t.n] = 1
        for k in range(1, edges.max() + 1):
            at = edges == k
            coeffs[at] = coeffs[minus[at]] - prev[contracted[at]]
        return [ChromPoly(tuple(c)) for c in coeffs.tolist()]

    return t.cached("poly", build)


class _Slot(NamedTuple):
    """One report position of the labelled graphs of a table, for every q
    of the claim: of a table's S slots, slot s at q index i is stream
    position i*S + s, so each graph's reports come q by q, in slot order.

    The graphs here are those of the classes marked in keep that contain
    the pair bit (all of them if bit is 0), as has(ids, masks) tells.
    keys(masks) puts each in a group (a class-level slot's is its class)
    whose reports agree in every field but the graph6 name that opens the
    instance string; a key must not change when the graph is relabelled,
    as both modes read only the representatives' keys (_rep_groups).
    margins(keys) gives, per q index, the exact margin of each group from
    per-class values: (diff, den) for diff/den, or None if inapplicable.
    report(mask, i) runs the checker on one labelled graph at q index i.
    A report line names the graph of mask, or with rename that of mask
    without the bit.

    pair is the vertex pair (u, v) of a pair claim's slot, None for a
    class-level slot.  The keys of a pair claim are class ids, which do
    not depend on the pair, and its reports at one key and q agree in
    every field but the instance, which names the graph and then the pair
    as "(u,v)"; so one report serves every pair slot with that key."""

    keep: np.ndarray
    bit: int
    keys: Callable[[np.ndarray], np.ndarray]
    margins: Callable[[list[int]], list[list]]
    report: Callable[[int, int], Report]
    rename: bool = False
    pair: Optional[tuple[int, int]] = None

    def has(self, ids: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Which of the masks, of class ids ids, are graphs of this slot."""
        have = self.keep[ids]
        return have & (masks & self.bit != 0) if self.bit else have


def _margin(r: Report) -> Optional[tuple]:
    return None if r.margin is None else (r.margin.numerator, r.margin.denominator)


def _class_slots(t: ClassTable, sweep: Callable, keep: np.ndarray) -> list[_Slot]:
    """Slot i is report i of sweep(rep), run once per class representative
    of the classes marked in keep, grouped by class.

    This is exact because every margin the checkers compute is invariant
    under relabelling: each labelled copy then has the representative's
    margins in the same order, and the representative, the first copy in
    enumeration order, is the one a streamed fold would name.  The one
    labelling-dependent step, cor1_2's greedy cycle packing, takes a
    shortest even cycle, and at n <= MAX_N = 7 at most one (two disjoint
    ones need 8 vertices); in a bipartite graph that cycle has girth
    length, so the packed subgraph's size and colorings are invariant."""
    reports = [sweep(g) if keep[c] else [] for c, g in enumerate(t.reps)]
    return [_Slot(np.array([len(r) > i for r in reports]), 0, t.cls.__getitem__,
                  lambda keys, i=i: [[_margin(reports[c][i]) for c in keys]],
                  lambda m, _, i=i: reports[t.cls[m]][i])
            for i in range(max(map(len, reports), default=0))]


def _edge_slots(t: ClassTable, ratios: list[tuple], check: Callable,
                keep: Optional[np.ndarray] = None, rename: bool = False) -> list[_Slot]:
    """check(G, e, i) at q index i for each edge e of G (of the classes in
    keep, default all), grouped by (class of G, class of G-e).  At q index
    i, ratios[i] = (x, num, den) claims x(G)/x(G-e) >= num/den for the
    per-class values x, inapplicable where x(G-e) = 0."""
    c = len(t.reps)
    keep = np.ones(c, dtype=bool) if keep is None else keep

    def margins(keys):
        split = [divmod(key, c) for key in keys]
        return [[None if x[h] == 0 else (x[g] * den - num * x[h], x[h] * den) for g, h in split]
                for x, num, den in ratios]

    return [_Slot(keep, 1 << b,
                  lambda m, bit=1 << b: t.cls[m].astype(np.int64) * c + t.cls[m ^ bit],
                  margins, lambda m, i, e=e: check(t.graph(m), e, i), rename, e)
            for b, e in enumerate(t.pairs)]


def _slots_eq_col(t: ClassTable, cfg: SweepConfig) -> list[_Slot]:
    # bipartite G: ch(G)/ch(G-e) >= (q-1)/q; a report names G-e, the base
    # graph of the ratio
    qs = cfg.qs
    polys = _class_polys(t)
    return _edge_slots(
        t, [([p(q) for p in polys], q - 1, q) for q in qs],
        lambda g, e, i: check_edge_ratio(g.delete_edge(*e), "coloring", e, qs[i]),
        t.bipartite, rename=True)


def _slots_wr_lemma(t: ClassTable, cfg: SweepConfig) -> list[_Slot]:
    # In G-e, with red/blue symmetry: u, v both red in
    # (wr(G/uv) - wr(G-u-v))/2 colorings, u red and v blue in
    # (wr(G-e) - wr(G))/2.  The 0-vertex graph has one coloring.  A group
    # fixes the classes of G/uv, G-u-v, G-e and G.
    if t.n < 2:
        return []
    t1, t2 = class_table(t.n - 1), class_table(t.n - 2)
    c, c2 = len(t.reps), len(t2.reps)
    wr, wr1, wr2 = (np.array(s.values("wr", wr_count), dtype=np.int64) for s in (t, t1, t2))

    def group(m, bit, ident, dele):
        key = (t1.cls[remap(m, ident)].astype(np.int64) * c2 + t2.cls[remap(m, dele)]) * c
        return (key + t.cls[m ^ bit]) * c + t.cls[m]

    def margins(keys):
        key = np.array(keys, dtype=np.int64)
        a, d, h, g = key // (c2 * c * c), key // (c * c) % c2, key // c % c, key % c
        return [[(x, 1) for x in ((wr1[a] - wr2[d] - wr[h] + wr[g]) // 2).tolist()]]

    every = np.ones(c, dtype=bool)
    return [_Slot(every, 1 << b, lambda m, bit=1 << b, i=_identify_map(t, u, v),
                  d=_delete_map(t, u, v): group(m, bit, i, d), margins,
                  lambda m, _, e=(u, v): check_wr_lemma(t.graph(m), e), pair=(u, v))
            for b, (u, v) in enumerate(t.pairs)]


def _slots_thm1_1(t: ClassTable, cfg: SweepConfig) -> list[_Slot]:
    # connected bipartite G: P(u, v same color) = ch(G/uv)/ch(G), at most
    # 1/q across the bipartition and at least 1/q within a side.  Slot b is
    # pair b, grouped by the class of G and the pair's state; where G has
    # no proper q-coloring every pair's report is inapplicable
    if t.n < 2:
        return []
    qs = cfg.qs
    t1 = class_table(t.n - 1)
    polys, polys1 = _class_polys(t), _class_polys(t1)
    # per q: ch of each class of t, and of each class of t1 then a 0
    ch = [([p(q) for p in polys], [p(q) for p in polys1] + [0]) for q in qs]
    width = 2 * len(t1.reps) + 1
    last: dict = {}

    def group(m, bit, ident):
        # G's class and the state of pair bit = uv: 0 for an edge uv, else
        # 1 + 2 * class of G/uv + (G+uv bipartite), with ident the bit map
        # to G/uv.  For connected bipartite G, u and v are across iff G+uv
        # is bipartite
        state = np.where(m & bit, 0, 1 + 2 * t1.cls[remap(m, ident)] + t.bipartite[t.cls[m | bit]])
        return t.cls[m].astype(np.int64) * width + state

    def reports(m, i):
        # the checker reports every pair at once; _report_batch renders
        # its rows in stream order, so this one-entry memo checks each
        # graph and q once
        if (m, i) not in last:
            last.clear()
            last[m, i] = check_correlation_coloring(t.graph(m), qs[i])
        return last[m, i]

    def margins(keys):
        # (g, class of G/uv, across); an edge uv, state 0, gives (g, -1,
        # 1): G/uv's count is then the 0 that ends the t1 list.  Across,
        # the margin is 1/q - ci/c = (c - q*ci)/(q*c); within a side its
        # negative
        split = [(g, *divmod(state - 1, 2)) for g, state in (divmod(key, width) for key in keys)]
        return [[None if c[g] == 0 else ((c[g] - q * c1[x]) * (2 * cross - 1), q * c[g])
                 for g, x, cross in split]
                for q, (c, c1) in zip(qs, ch)]

    keep = t.connected & t.bipartite
    return [_Slot(keep, 0, lambda m, bit=1 << b, i=_identify_map(t, u, v): group(m, bit, i),
                  margins, lambda m, i, b=b: reports(m, i)[b], pair=(u, v))
            for b, (u, v) in enumerate(t.pairs)]


def _sweep_slots(t: ClassTable, cfg: SweepConfig) -> list[_Slot]:
    claim = CLAIMS[cfg.claim]
    return _class_slots(t, lambda g: claim.sweep(g, cfg), getattr(t, claim.flag))


def _rep_groups(t: ClassTable, slots: list[_Slot]) -> list[tuple[list, list]]:
    """The groups both sweep modes read: per slot, one (key, count, rank)
    row per class representative of the slot, counting its class's size,
    and the rows' margins per q index.  Keys do not change under
    relabelling and the representative is its class's lowest-rank copy, so
    per key the count and lowest (rank, position) are those over every
    labelled graph, and a labelled graph's key at a pair slot is its
    representative's key at some pair slot."""
    reps = t.order[t.first_rank]
    rep_ids = np.arange(len(reps))
    groups = []
    for slot in slots:
        ids = np.flatnonzero(slot.has(rep_ids, reps))
        rows = list(zip(slot.keys(reps[ids]).tolist(), t.size[ids].tolist(),
                        t.first_rank[ids].tolist()))
        groups.append((rows, slot.margins([key for key, _, _ in rows])))
    return groups


def _group_summary(claim: str, groups: list[tuple[list, list]], name: Callable) -> SweepSummary:
    """Fold the groups of _rep_groups exactly, as `record` would fold their
    instances in stream order: each kept instance is the lowest key (rank,
    position) among those it may be, and the summary stores name(key) for
    it."""
    s = SweepSummary(claim)
    width = len(groups)
    instances = inapplicable = violated = tight_count = 0
    violation = tight = best = None
    for j, (rows, margins) in enumerate(groups):
        for i, ms in enumerate(margins):
            pos = i * width + j
            for (_, count, rank), margin in zip(rows, ms):
                instances += count
                if margin is None:
                    inapplicable += count
                    continue
                diff, den = margin
                if diff < 0:
                    violated += count
                    if violation is None or (rank, pos) < violation:
                        violation = (rank, pos)
                elif diff == 0:
                    tight_count += count
                    if tight is None or (rank, pos) < tight:
                        tight = (rank, pos)
                if best is None or diff * best[1] < best[0] * den or (
                        diff * best[1] == best[0] * den and (rank, pos) < best[2]):
                    best = (diff, den, (rank, pos))
    s.instances, s.inapplicable, s.violated = instances, inapplicable, violated
    s.holds, s.tight_count = instances - inapplicable - violated, tight_count
    s.first_violation = violation and name(violation)
    s.first_tight_instance = tight and name(tight)
    if best is not None:
        s.min_margin, s.min_margin_instance = Fraction(best[0], best[1]), name(best[2])
    return s


# ---------------------------------------------------------------------------
# Summary mode: margins from per-class values
# ---------------------------------------------------------------------------

def _summary_batch(t: ClassTable, cfg: SweepConfig) -> tuple[SweepSummary, Callable]:
    """Summary of the instances on one class table, folded from one row
    per slot and class representative (_rep_groups), with each kept
    instance as its key (n, rank, position), and the function that names
    a key's instance: the graph G it was enumerated as, then the rest of
    its report's instance string.  The checker runs only to name."""
    slots = CLAIMS[cfg.claim].slots(t, cfg)

    def name(rank, pos):
        i, s = divmod(pos, len(slots))
        m = int(t.order[rank])
        g = to_graph6(t.graph(m))
        return g + slots[s].report(m, i).instance[len(g):]

    return _group_summary(cfg.claim, _rep_groups(t, slots), lambda k: (t.n, *k)), name


def sweep_summary(cfg: SweepConfig, workers: int = 1) -> SweepSummary:
    """Aggregate of every instance of the claim, computed in-process from
    the class representatives, each weighted by its class's size;
    `workers` is accepted for callers and unused.  Only the instances the
    aggregate keeps are named, after the merge."""
    cfg.validate()
    total, names = SweepSummary(cfg.claim), {}
    for n in range(1, cfg.max_n + 1):
        part, names[n] = _summary_batch(class_table(n), cfg)
        total.merge(part)
    for f in ("first_violation", "first_tight_instance", "min_margin_instance"):
        if (key := getattr(total, f)) is not None:
            setattr(total, f, names[key[0]](*key[1:]))
    return total


# ---------------------------------------------------------------------------
# Report mode: one checker call per instance group or pair key, lines
# from fragments
# ---------------------------------------------------------------------------

# masks per chunk of report lines: this many over the table's positions
CHUNK_LINES = 1 << 14
_OPEN = '{"instance": "'


def _report_batch(t: ClassTable, cfg: SweepConfig, write: Callable[[str], object]
                  ) -> SweepSummary:
    """Write the report lines of one table's labelled graphs, in enumeration
    order and each graph's reports in stream position order, and return
    their summary.  Both read the rows of _rep_groups: the checker runs on
    the first row in stream order of each (q index, key) of the pair slots
    and (q index, key, slot) of the others, and its report is rendered
    once, as the JSON after the graph6 name with the slot's pair put in.
    Every line is the opening, the name and that fragment, found by keying
    each labelled mask once.  The summary folds the rows, as summary mode
    does, and names its kept instances only when asked, from their graphs."""
    slots = CLAIMS[cfg.claim].slots(t, cfg)
    groups = _rep_groups(t, slots)
    width = len(slots)
    skip = 1 + -(-len(t.pairs) // 6)  # length of a graph6 name on n vertices
    # the instance after the graph6 name, the pair it names and the JSON
    # after the instance string; rendered in stream order, so that the
    # reports of one graph and q are rendered one after another
    done = {}
    for rank, pos, key in sorted((rank, i * width + s, key) for s, (rows, ms) in enumerate(groups)
                                 for i in range(len(ms)) for key, _, rank in rows):
        i, s = divmod(pos, width)
        slot = slots[s]
        at = (i, key) if slot.pair else (i, key, s)
        if at not in done:
            r = slot.report(int(t.order[rank]), i)
            done[at] = (r.instance[skip:], slot.pair,
                        json.dumps({**r.to_json_dict(), "instance": ""})[len(_OPEN):])
    if not done:
        return SweepSummary(cfg.claim)

    def render(s, i, key):
        slot = slots[s]
        tail, pair, rest = done[(i, key) if slot.pair else (i, key, s)]
        if pair != slot.pair:
            tail = tail.replace("(%d,%d)" % pair, "(%d,%d)" % slot.pair, 1)
        return tail, rest

    # per slot: the keys of its graphs, ascending (a pair slot's may be any
    # pair row's), and its fragments, one per key and q index from base
    nq = max(len(ms) for _, ms in groups)
    pair_keys = sorted({key for slot, (rows, _) in zip(slots, groups) if slot.pair
                        for key, _, _ in rows})
    keys, base, frags = [], [], []
    for s, (slot, (rows, _)) in enumerate(zip(slots, groups)):
        keys.append(np.array(pair_keys if slot.pair else [key for key, _, _ in rows],
                             dtype=np.int64))
        base.append(len(frags))
        for key in keys[-1].tolist():
            for i in range(nq):
                tail, rest = render(s, i, key)
                frags.append(json.dumps(tail)[1:-1] + rest + "\n")
    rename = np.array([s.bit if s.rename else 0 for s in slots], dtype=np.int64)

    def name(kept):
        rank, pos = kept
        i, s = divmod(pos, width)
        key = next(key for key, _, r in groups[s][0] if r == rank)
        return graph6_names(t.n, t.order[rank:rank + 1] ^ rename[s])[0] + render(s, i, key)[0]

    flip = np.tile(rename, nq)
    step = max(1, CHUNK_LINES // (width * nq))
    for lo in range(0, len(t.order), step):
        m = t.order[lo:lo + step]
        ids = np.full((len(m), width * nq), -1, dtype=np.int64)
        cls = t.cls[m]
        for s, slot in enumerate(slots):
            have = slot.has(cls, m)
            k = slot.keys(m[have])
            at = np.searchsorted(keys[s], k)
            if len(k) and not (at.max() < len(keys[s]) and np.array_equal(keys[s][at], k)):
                raise RuntimeError(f"slot {s} on {t.n} vertices: a graph's key is no "
                                   "class representative's")
            ids[have, s::width] = base[s] + at[:, None] * nq + np.arange(nq)
        rows, js = np.nonzero(ids >= 0)
        line_names = graph6_names(t.n, m[rows] ^ flip[js])
        write("".join([_OPEN + g6.replace("\\", "\\\\") + frags[f]
                       for g6, f in zip(line_names, ids[rows, js].tolist())]))
    return _group_summary(cfg.claim, groups, name)


def sweep_reports(cfg: SweepConfig, write: Callable[[str], object]) -> SweepSummary:
    """Write the JSON line of every Report, in enumeration order, through
    `write` (many lines per call) and return their summary, as folding the
    lines in order would give it.  Runs in-process on the class tables."""
    cfg.validate()
    total = SweepSummary(cfg.claim)
    for n in range(1, cfg.max_n + 1):
        total.merge(_report_batch(class_table(n), cfg, write))
    return total


# ---------------------------------------------------------------------------
# The claim table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """One named claim and everything that runs it.

    verify(g, p) builds the reports of `homverify verify` for one graph,
    with p carrying q, edge, target and ell.  slots(t, cfg) lists the
    claim's slots (_Slot) on one class table t, the one definition of its
    instance groups: summary mode folds their margins and report mode
    renders their checker reports; None marks a verify-only claim.  By
    default slot i is report i of sweep(g, cfg), the reports of a
    class-level claim on one graph, run on each class representative whose
    ClassTable flag named by `flag` ("connected" or "bipartite") is set.
    Entries call the checkers through this module's globals at call time,
    so a wrapper installed on those names (perfbench's tracer) sees every
    call."""

    name: str
    verify: Callable
    sweep: Optional[Callable] = None
    flag: Optional[str] = None
    slots: Optional[Callable] = _sweep_slots
    q_min: Optional[int] = None  # None: the claim takes no q
    edge: bool = False
    target: bool = False
    ell: bool = False  # ell bounds even cycle lengths, so it must be >= 4

    def check(self, qs: tuple[int, ...], target: Optional[TargetGraph], ell: int) -> None:
        """Raise ValueError unless the claim's parameters are present and
        in range."""
        if self.q_min is not None:
            if not qs:
                raise ValueError(f"claim {self.name} needs q")
            for q in qs:
                if q < self.q_min:
                    raise ValueError(f"claim {self.name} needs q >= {self.q_min}, got {q}")
        if self.target and target is None:
            raise ValueError(f"claim {self.name} needs a target")
        if self.ell and ell < 4:
            raise ValueError(f"claim {self.name} needs ell >= 4, got {ell}")


CLAIMS = {c.name: c for c in (
    Claim("thm1_1", q_min=1,
          verify=lambda g, p: check_correlation_coloring(g, p.q),
          slots=_slots_thm1_1),
    Claim("eq_col", q_min=1, edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "coloring", p.edge, p.q)],
          slots=_slots_eq_col),
    Claim("eq_ind", edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "independent", p.edge)],
          slots=lambda t, cfg: _edge_slots(
              t, [(t.values("ind", ind_count), 3, 4)],
              lambda g, e, i: check_edge_ratio(g, "independent", e))),
    Claim("eq_wr", edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "wr", p.edge)],
          slots=lambda t, cfg: _edge_slots(
              t, [(t.values("wr", wr_count), 7, 9)],
              lambda g, e, i: check_edge_ratio(g, "wr", e))),
    Claim("wr_lemma", edge=True,
          verify=lambda g, p: [check_wr_lemma(g, p.edge)],
          slots=_slots_wr_lemma),
    Claim("sidorenko", target=True,
          verify=lambda g, p: [check_sidorenko_bound(g, p.target)],
          sweep=lambda g, cfg: [check_sidorenko_bound(g, cfg.target)], flag="connected"),
    Claim("cor1_2", q_min=2, ell=True,
          verify=lambda g, p: [check_cycle_packing_bound(g, p.q, p.ell),
                               check_cycle_packing_headline(g, p.q, p.ell)],
          sweep=lambda g, cfg: [check_cycle_packing_bound(g, q, cfg.ell) for q in cfg.qs],
          flag="bipartite"),
    Claim("cor1_4",
          verify=lambda g, p: [check_connected_ind_bound(g)],
          sweep=lambda g, cfg: [check_connected_ind_bound(g)], flag="connected"),
    Claim("cor1_6",
          verify=lambda g, p: [check_connected_wr_bound(g)],
          sweep=lambda g, cfg: [check_connected_wr_bound(g)], flag="connected"),
    Claim("remark2_2", q_min=1, slots=None,
          verify=lambda g, p: [check_free_energy_envelope(g, p.q)]),
    Claim("balanced", q_min=1,
          verify=lambda g, p: [check_balanced_bipartite_bound(g, p.q)],
          sweep=lambda g, cfg: [check_balanced_bipartite_bound(g, q) for q in cfg.qs],
          flag="bipartite"),
)}


# ---------------------------------------------------------------------------
# Corollary bundle: five checkers over the connected classes
# ---------------------------------------------------------------------------

_HC = hard_core_target()
_WR = widom_rowlinson_target()
_K3 = complete_target(3)


def _corollary_batch(t: ClassTable) -> dict:
    """The five corollary summaries over the connected classes of one
    table, each instance named by its graph6 alone."""
    connected = t.connected
    checks = {
        "sidorenko_hc": (connected, lambda g: [check_sidorenko_bound(g, _HC)]),
        "sidorenko_wr": (connected, lambda g: [check_sidorenko_bound(g, _WR)]),
        # K_3 has no Sidorenko form for non-bipartite sources
        "sidorenko_k3": (connected & t.bipartite, lambda g: [check_sidorenko_bound(g, _K3)]),
        "cor1_4": (connected, lambda g: [check_connected_ind_bound(g)]),
        "cor1_6": (connected, lambda g: [check_connected_wr_bound(g)]),
    }

    def name(key):
        return to_graph6(t.graph(int(t.order[key[0]])))

    return {c: _group_summary(c, _rep_groups(t, _class_slots(t, reports, keep)), name)
            for c, (keep, reports) in checks.items()}


def corollary_bundle_summary(max_n: int, workers: int = 1) -> dict:
    """The five corollary claims over the connected graphs, computed
    in-process on the class tables; `workers` is accepted and unused."""
    totals = {}
    for n in range(1, max_n + 1):
        for c, part in _corollary_batch(class_table(n)).items():
            totals.setdefault(c, SweepSummary(c)).merge(part)
    return totals


# ---------------------------------------------------------------------------
# Oracle equivalence (specialized counters vs generic homomorphism counting)
# ---------------------------------------------------------------------------

@dataclass
class OracleSummary:
    checked_ind: int = 0
    checked_wr: int = 0
    checked_chrom: int = 0
    mismatches: list = field(default_factory=list)

    def merge(self, other):
        self.checked_ind += other.checked_ind
        self.checked_wr += other.checked_wr
        self.checked_chrom += other.checked_chrom
        self.mismatches.extend(other.mismatches)


def _oracle_batch(n: int, masks: np.ndarray, tables: list) -> OracleSummary:
    """ind_count, and wr_count and chrom_poly(q) where tables has them, on
    the graph of every mask of the batch against the tables' rows; a
    mismatch names the graph by its sorted edge tuple."""
    ind, *small = [table[masks].tolist() for _, _, table in tables]
    qs = [kind[1] for kind, _, _ in tables[2:]]
    s = OracleSummary(len(masks), len(masks) if small else 0, len(masks) * len(qs))
    for i, g in enumerate(mask_graphs(n, masks)):
        if ind_count(g) != ind[i]:
            s.mismatches.append(("ind", n, g.sorted_edges))
        if small:
            if wr_count(g) != small[0][i]:
                s.mismatches.append(("wr", n, g.sorted_edges))
            poly = chrom_poly(g)
            s.mismatches += [("chrom", q, n, g.sorted_edges)
                             for q, col in zip(qs, small[1:]) if poly(q) != col[i]]
    return s


def oracle_equivalence_sweep(max_n: int = 7, wr_chrom_max_n: int = 6,
                             chrom_qs: tuple[int, ...] = (2, 3),
                             workers: int = 1) -> OracleSummary:
    """The specialised counters against hom into their targets on every
    labelled graph with 1..max_n vertices: ind_count into the hard-core
    target, and at n <= wr_chrom_max_n wr_count into the Widom-Rowlinson
    target and chrom_poly(q) into K_q.  The generic side is one
    all_masks_hom table per n and target; per n, hom_count is checked
    against it on each class representative first (a mismatch
    ("hom", kind..., n, edges)), then the labelled graphs in enumeration
    order, BATCH_SIZE masks at a time.  One process; `workers` is
    accepted and unused."""
    _check_max_n(max_n)
    total = OracleSummary()
    for n in range(1, max_n + 1):
        kinds = [(("ind",), _HC)]
        if n <= wr_chrom_max_n:
            kinds += [(("wr",), _WR)] + [(("chrom", q), complete_target(q)) for q in chrom_qs]
        tables = [(kind, h, all_masks_hom(n, h)) for kind, h in kinds]
        t = class_table(n)
        total.mismatches += [("hom", *kind, n, g.sorted_edges)
                             for g, m in zip(t.reps, t.order[t.first_rank].tolist())
                             for kind, h, table in tables if hom_count(g, h) != table[m]]
        for lo in range(0, len(t.order), BATCH_SIZE):
            total.merge(_oracle_batch(n, t.order[lo:lo + BATCH_SIZE], tables))
    return total
