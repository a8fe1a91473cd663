"""Exhaustive sweeps over labeled small graphs, and the claim table.

``CLAIMS`` is the one list of claims: for each, the parameters it needs,
its per-instance checks for ``homverify verify``, its sweep expansion and
its summary kernel.  The CLI and both sweep modes read it.

Both sweep modes run in-process over the isomorphism-class tables of
classes.py, in one instance enumeration order:

* summary mode folds the comparisons into counts.  A claim with a fold
  computes each count once per class and gathers it for every labelled
  instance; every other claim, and the corollary bundle, runs its own
  checker once per class representative and weights it by the class size;
* report mode streams one JSON line per instance.  Each report position
  of a labelled graph falls in a group (its class, or for the pair claims
  the classes that fix the pair's margin) whose reports differ only in the
  graph6 name.  The checker runs once per group, its report is rendered
  once, and every line is that fragment behind the graph's name, all names
  coming from one vectorised graph6 pass per chunk of masks.

The test suite checks both modes against the per-labelled-graph checkers.
Only the oracle sweep starts workers: they receive batches of edge sets in
enumeration order and results are merged in submission order, so its
result is the same for any worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from multiprocessing import get_context
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .classes import MAX_N, ClassTable, class_table, graph6_names, groups, remap
from .graphs import (
    Graph,
    TargetGraph,
    bipartition,
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
from .search import iter_edge_sets

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


def summarize(claim: str, reports) -> SweepSummary:
    s = SweepSummary(claim)
    for r in reports:
        s.record(r.instance, r.verdict, r.margin)
    return s


# ---------------------------------------------------------------------------
# Parallel plumbing (the oracle sweep)
# ---------------------------------------------------------------------------

def _batches(max_n: int) -> Iterator[tuple[int, list]]:
    for n in range(1, max_n + 1):
        buf = []
        for edges in iter_edge_sets(n):
            buf.append(edges)
            if len(buf) >= BATCH_SIZE:
                yield (n, buf)
                buf = []
        if buf:
            yield (n, buf)


def _map_batches(fn: Callable, jobs, workers: int):
    """Ordered map over batches; identical output for any worker count.
    Starts at most one process per CPU."""
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        for job in jobs:
            yield fn(job)
        return
    ctx = get_context("fork")
    with ctx.Pool(workers) as pool:
        yield from pool.imap(fn, jobs, chunksize=1)


@dataclass(frozen=True)
class SweepConfig:
    claim: str
    max_n: int
    qs: tuple[int, ...] = ()
    ell: int = 6
    target: Optional[TargetGraph] = None

    def validate(self) -> None:
        claim = CLAIMS.get(self.claim)
        if claim is None or claim.sweep is None:
            raise ValueError(f"unknown sweep claim {self.claim!r}")
        if not 1 <= self.max_n <= MAX_N:
            raise ValueError(f"sweeps support max_n in 1..{MAX_N}")
        claim.check(self.qs, self.target)


# ---------------------------------------------------------------------------
# Summary mode: folds over isomorphism-class tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 18)
def _poly_cached(n: int, edges: tuple) -> ChromPoly:
    return chrom_poly(Graph(n, frozenset(edges)))


def _class_poly(g: Graph) -> ChromPoly:
    return _poly_cached(g.n, g.sorted_edges)


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


# A fold yields instance groups (key, count, diff, den, label) from one n's
# class table: `count` labelled instances with margin diff/den (diff None:
# inapplicable; an integer, or a Fraction over den = 1), the first of them
# in enumeration order at key = (rank, pair index, q index).  Its instance
# string is `label` itself, or `label` called with the graph6 name g, the
# pair (u, v) and q.
_NAME = "{g}".format
_EDGE = "{g} e=({u},{v})".format
_Q_EDGE = "{g} q={q} e=({u},{v})".format
_CROSS = "{g} q={q} pair=({u},{v}) cross".format
_SAME = "{g} q={q} pair=({u},{v}) same".format


def _group_summary(claim: str, items, t: ClassTable, qs: tuple) -> SweepSummary:
    """Fold instance groups exactly, as `record` would fold their instances
    in enumeration order: each kept string names the lowest key among the
    instances it may name, and is built for that instance only."""
    s = SweepSummary(claim)
    violation = tight = best = None
    for key, count, diff, den, label in items:
        s.instances += count
        if diff is None:
            s.inapplicable += count
            continue
        if diff < 0:
            s.violated += count
            if violation is None or key < violation[0]:
                violation = (key, label)
        else:
            s.holds += count
            if diff == 0:
                s.tight_count += count
                if tight is None or key < tight[0]:
                    tight = (key, label)
        if best is None or diff * best[1] < best[0] * den or (
                diff * best[1] == best[0] * den and key < best[2]):
            best = (diff, den, key, label)

    def describe(key, label):
        if isinstance(label, str):
            return label
        rank, b, qi = key
        u, v = t.pairs[b] if b >= 0 else (None, None)
        g = to_graph6(t.graph(int(t.order[rank])))
        return label(g=g, u=u, v=v, q=qs[qi] if qs else None)

    if violation is not None:
        s.first_violation = describe(*violation)
    if tight is not None:
        s.first_tight_instance = describe(*tight)
    if best is not None:
        s.min_margin = Fraction(best[0], best[1])
        s.min_margin_instance = describe(*best[2:])
    return s


def _checker_groups(t: ClassTable, reports: Callable, keep: Optional[np.ndarray] = None,
                    label=None):
    """The instance groups of reports(rep), the reports of each class
    representative (of the classes marked in keep, default all): report i
    of class c stands for its t.size[c] labelled copies at key
    (first rank, -1, i), named by `label` or else by the report.

    This is exact because every margin the checkers compute is invariant
    under relabelling: each labelled copy then has the representative's
    margins in the same order, and the representative, the first copy in
    enumeration order, is the one a streamed fold would name.  The one
    labelling-dependent step, cor1_2's greedy cycle packing, takes a
    shortest even cycle, and at n <= MAX_N = 7 at most one (two disjoint
    ones need 8 vertices); in a bipartite graph that cycle has girth
    length, so the packed subgraph's size and colorings are invariant."""
    for c in range(len(t.reps)) if keep is None else np.flatnonzero(keep).tolist():
        rank, count = int(t.first_rank[c]), int(t.size[c])
        for i, r in enumerate(reports(t.reps[c])):
            yield (rank, -1, i), count, r.margin, 1, label or r.instance


def _ratio_groups(x: list, edges, a: int, b: int):
    """x(G)/x(G-e) >= a/b over the edge deletions (g, h, pair, count, rank)."""
    for g, h, pair, count, rank in edges:
        yield (rank, pair, 0), count, x[g] * b - a * x[h], x[h] * b, _EDGE


def _fold_eq_ind(t: ClassTable, cfg: SweepConfig):
    # i(G)/i(G-e) >= 3/4
    return _ratio_groups(t.values("ind", ind_count), t.edge_deletions(), 3, 4)


def _fold_eq_wr(t: ClassTable, cfg: SweepConfig):
    # wr(G)/wr(G-e) >= 7/9
    return _ratio_groups(t.values("wr", wr_count), t.edge_deletions(), 7, 9)


def _fold_wr_lemma(t: ClassTable, cfg: SweepConfig):
    # In G-e, with red/blue symmetry: u, v both red in
    # (wr(G/uv) - wr(G-u-v))/2 colorings, u red and v blue in
    # (wr(G-e) - wr(G))/2.  The 0-vertex graph has one coloring.
    if t.n < 2:
        return
    t1, t2 = class_table(t.n - 1), class_table(t.n - 2)
    wr, wr1, wr2 = (np.array(s.values("wr", wr_count), dtype=np.int64) for s in (t, t1, t2))
    for b, m, r in t.columns():
        u, v = t.pairs[b]
        lhs = wr1[t1.cls[remap(m, _identify_map(t, u, v))]] \
            - wr2[t2.cls[remap(m, _delete_map(t, u, v))]]
        rhs = wr[t.cls[m ^ (1 << b)]] - wr[t.cls[m]]
        for diff, count, rank in groups((lhs - rhs) // 2, r):
            yield (rank, b, 0), count, diff, 1, _EDGE


def _fold_thm1_1(t: ClassTable, cfg: SweepConfig):
    # connected bipartite G: P(u, v same color) = ch(G/uv)/ch(G), at most
    # 1/q across the bipartition and at least 1/q within a side
    if t.n < 2:
        return
    t1 = class_table(t.n - 1)
    qs = cfg.qs
    ch = [[p(q) for q in qs] for p in t.values("poly", _class_poly)]
    ch1 = [[p(q) for q in qs] for p in t1.values("poly", _class_poly)]
    width = 2 * len(t1.reps) + 1
    for b, m, r in t.columns(t.connected & t.bipartite, edges_only=False):
        state = _pair_state(t, m, b, _identify_map(t, *t.pairs[b]))
        for key, count, rank in groups(t.cls[m].astype(np.int64) * width + state, r):
            g, s = divmod(key, width)
            ident, cross = divmod(s - 1, 2) if s else (None, True)
            for qi, q in enumerate(qs):
                c = ch[g][qi]
                if c == 0:
                    # one inapplicable instance per graph and q, as the
                    # checker reports it: counted in pair column 0 only
                    if b == 0:
                        yield (rank, b, qi), count, None, None, None
                    continue
                ci = ch1[ident][qi] if s else 0
                if cross:
                    # claim ci/c <= 1/q: margin = (c - q*ci)/(q*c)
                    yield (rank, b, qi), count, c - q * ci, q * c, _CROSS
                else:
                    yield (rank, b, qi), count, q * ci - c, q * c, _SAME


def _pair_state(t: ClassTable, m: np.ndarray, b: int, ident: list[int]) -> np.ndarray:
    """The state of pair b = uv in each graph of m, for thm1_1: 0 for an
    edge uv, else 1 + 2 * class of G/uv + (G+uv bipartite); ident is the
    bit map to G/uv.  For connected bipartite G, u and v are across iff
    G+uv is bipartite."""
    bit = 1 << b
    return np.where(m & bit, 0, 1 + 2 * class_table(t.n - 1).cls[remap(m, ident)]
                    + t.bipartite[t.cls[m | bit]])


def _fold_eq_col(t: ClassTable, cfg: SweepConfig):
    # bipartite G: ch(G)/ch(G-e) >= (q-1)/q
    qs = cfg.qs
    ch = [[p(q) for q in qs] for p in t.values("poly", _class_poly)]
    for g, h, b, count, rank in t.edge_deletions(t.bipartite):
        for qi, q in enumerate(qs):
            den = ch[h][qi]
            if den == 0:
                yield (rank, b, qi), count, None, None, None
            else:
                yield (rank, b, qi), count, ch[g][qi] * q - (q - 1) * den, den * q, _Q_EDGE


def _summary_batch(t: ClassTable, cfg: SweepConfig) -> SweepSummary:
    """Summary of the instances on one class table: the claim's fold, or
    else its sweep run once per class."""
    claim = CLAIMS[cfg.claim]
    items = (claim.fold(t, cfg) if claim.fold
             else _checker_groups(t, lambda g: claim.sweep(g, cfg)))
    return _group_summary(cfg.claim, items, t, cfg.qs)


def sweep_summary(cfg: SweepConfig, workers: int = 1) -> SweepSummary:
    """Aggregate of every instance of the claim, computed in-process on the
    class tables; `workers` is accepted for callers and unused."""
    cfg.validate()
    total = SweepSummary(cfg.claim)
    for n in range(1, cfg.max_n + 1):
        total.merge(_summary_batch(class_table(n), cfg))
    return total


# ---------------------------------------------------------------------------
# Report mode: one checker call per instance group, lines from fragments
# ---------------------------------------------------------------------------

# masks per chunk of report lines: this many over the table's slot count
CHUNK_LINES = 1 << 14
_OPEN = '{"instance": "'


class _Slot(NamedTuple):
    """One report position of the labelled graphs of a table.  keys(masks)
    gives the group of each mask's report here (-1: no report).  The
    reports of a group agree in every field but the graph6 name that opens
    the instance string, so report(mask) runs the checker on one labelled
    graph of each group.  A line names the graph of mask ^ rename."""

    keys: Callable[[np.ndarray], np.ndarray]
    report: Callable[[int], Report]
    rename: int = 0


def _class_slots(t: ClassTable, cfg: SweepConfig) -> list[_Slot]:
    """Report i of the claim's sweep, run once per class representative;
    exact for the reason _checker_groups gives."""
    sweep = CLAIMS[cfg.claim].sweep
    reports = [sweep(g, cfg) for g in t.reps]
    slots = []
    for i in range(max(map(len, reports), default=0)):
        ids = np.array([c if len(r) > i else -1 for c, r in enumerate(reports)], dtype=np.int32)
        slots.append(_Slot(lambda m, ids=ids: ids[t.cls[m]],
                           lambda m, i=i: reports[t.cls[m]][i]))
    return slots


def _edge_slots(t: ClassTable, check: Callable, keep: Optional[np.ndarray] = None,
                qs: tuple = (None,), rename: bool = False) -> list[_Slot]:
    """check(G, e, q) for each q and each edge e of G (of the classes in
    keep, default all), grouped by (class of G, class of G-e)."""
    c = len(t.reps)
    keep = np.ones(c, dtype=bool) if keep is None else keep

    def keys(m, bit):
        g = t.cls[m]
        return np.where((m & bit != 0) & keep[g], g.astype(np.int64) * c + t.cls[m ^ bit], -1)

    return [_Slot(lambda m, bit=1 << b: keys(m, bit),
                  lambda m, e=e, q=q: check(t.graph(m), e, q), 1 << b if rename else 0)
            for q in qs for b, e in enumerate(t.pairs)]


def _slots_wr_lemma(t: ClassTable, cfg: SweepConfig) -> list[_Slot]:
    # grouped by the classes of G/uv, G-u-v, G-e and G, which fix both sides
    if t.n < 2:
        return []
    t1, t2 = class_table(t.n - 1), class_table(t.n - 2)
    c, c2 = len(t.reps), len(t2.reps)

    def keys(m, bit, ident, dele):
        key = (t1.cls[remap(m, ident)].astype(np.int64) * c2 + t2.cls[remap(m, dele)]) * c
        return np.where(m & bit != 0, (key + t.cls[m ^ bit]) * c + t.cls[m], -1)

    return [_Slot(lambda m, b=b, i=_identify_map(t, u, v), d=_delete_map(t, u, v):
                  keys(m, 1 << b, i, d),
                  lambda m, e=(u, v): check_wr_lemma(t.graph(m), e))
            for b, (u, v) in enumerate(t.pairs)]


def _slots_thm1_1(t: ClassTable, cfg: SweepConfig) -> list[_Slot]:
    # per q, connected bipartite G: one inapplicable report if G has no
    # proper q-coloring, else one per pair, grouped by the class of G and
    # the pair's state in _fold_thm1_1
    width = 2 * len(class_table(t.n - 1).reps) + 1
    ok = t.connected & t.bipartite
    maps = [_identify_map(t, u, v) for u, v in t.pairs]
    last: dict = {}

    def reports(m, q):
        # the checker reports every pair at once, and _report_batch asks
        # for the reports of one graph and q one after another
        if (m, q) not in last:
            last.clear()
            last[m, q] = check_correlation_coloring(t.graph(m), q)
        return last[m, q]

    def pair_keys(m, b, some):
        g = t.cls[m]
        return np.where(some[g], g.astype(np.int64) * width + _pair_state(t, m, b, maps[b]), -1)

    slots = []
    for q in cfg.qs:
        none = ok & np.array([p(q) == 0 for p in t.values("poly", _class_poly)])
        slots.append(_Slot(lambda m, none=none: np.where(none[t.cls[m]], t.cls[m], -1),
                           lambda m, q=q: reports(m, q)[0]))
        slots += [_Slot(lambda m, b=b, some=ok & ~none: pair_keys(m, b, some),
                        lambda m, b=b, q=q: reports(m, q)[b])
                  for b in range(len(t.pairs))]
    return slots


def _report_batch(t: ClassTable, cfg: SweepConfig, write: Callable[[str], object]
                  ) -> SweepSummary:
    """Write the report lines of one table's labelled graphs, in enumeration
    order and each graph's reports in the claim's order, and return their
    summary.  The checker runs once per group of each slot; its report is
    rendered once, as the JSON after the graph6 name, and every line is
    the opening, the name and that fragment."""
    slots = (CLAIMS[cfg.claim].slots or _class_slots)(t, cfg)
    if not slots:
        return SweepSummary(cfg.claim)
    ranks = np.arange(len(t.order), dtype=np.int32)
    found = []
    for j, slot in enumerate(slots):
        found += [(rank, j, key, count)
                  for key, count, rank in groups(slot.keys(t.order), ranks) if key >= 0]
    # the groups in stream order of their first instances
    found.sort()
    skip = 1 + -(-len(t.pairs) // 6)  # length of a graph6 name on n vertices
    frags, items = [], []
    lookup = [[] for _ in slots]
    for rank, j, key, count in found:
        r = slots[j].report(int(t.order[rank]))
        rd = json.dumps({**r.to_json_dict(), "instance": r.instance[skip:]})
        lookup[j].append((key, len(frags)))
        frags.append(rd[len(_OPEN):] + "\n")
        items.append(((rank, j), count, r.margin, 1, r.instance))
    # per slot: (group key, fragment index) rows, sorted by key
    lookup = [np.array(sorted(kf), dtype=np.int64).reshape(-1, 2) for kf in lookup]
    rename = np.array([s.rename for s in slots], dtype=np.int64)
    step = max(1, CHUNK_LINES // len(slots))
    for lo in range(0, len(t.order), step):
        m = t.order[lo:lo + step]
        ids = np.full((len(m), len(slots)), -1, dtype=np.int64)
        for j, (slot, kf) in enumerate(zip(slots, lookup)):
            k = slot.keys(m)
            have = k >= 0
            ids[have, j] = kf[np.searchsorted(kf[:, 0], k[have]), 1]
        rows, js = np.nonzero(ids >= 0)
        names = graph6_names(t.n, m[rows] ^ rename[js])
        write("".join([_OPEN + name.replace("\\", "\\\\") + frags[f]
                       for name, f in zip(names, ids[rows, js].tolist())]))
    return _group_summary(cfg.claim, items, t, cfg.qs)


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
    with p carrying q, edge, target and ell.  sweep(g, cfg) applies the
    sweep filter and builds the reports of every instance of one labelled
    graph; None marks a verify-only claim.  fold(t, cfg) is the summary
    kernel: it yields the instance groups of one class table t; without
    one, summaries fold the sweep's reports.  slots(t, cfg) lists the
    report positions of report mode on one class table; without it, report
    i of the sweep on each class representative is one.
    Entries call the checkers through this module's globals at call time,
    so a wrapper installed on those names (perfbench's tracer) sees every
    call."""

    name: str
    verify: Callable
    sweep: Optional[Callable] = None
    fold: Optional[Callable] = None
    slots: Optional[Callable] = None
    q_min: Optional[int] = None  # None: the claim takes no q
    edge: bool = False
    target: bool = False

    def check(self, qs: tuple[int, ...], target: Optional[TargetGraph]) -> None:
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


def _sweep_thm1_1(g: Graph, cfg: SweepConfig) -> list[Report]:
    if not g.is_connected() or bipartition(g) is None:
        return []
    return [r for q in cfg.qs for r in check_correlation_coloring(g, q)]


def _sweep_eq_col(g: Graph, cfg: SweepConfig) -> list[Report]:
    if bipartition(g) is None:
        return []
    return [check_edge_ratio(g.delete_edge(*e), "coloring", e, q)
            for q in cfg.qs for e in g.sorted_edges]


def _sweep_cor1_2(g: Graph, cfg: SweepConfig) -> list[Report]:
    if bipartition(g) is None:
        return []
    return [check_cycle_packing_bound(g, q, cfg.ell) for q in cfg.qs]


def _sweep_balanced(g: Graph, cfg: SweepConfig) -> list[Report]:
    if bipartition(g) is None:
        return []
    return [check_balanced_bipartite_bound(g, q) for q in cfg.qs]


CLAIMS = {c.name: c for c in (
    Claim("thm1_1", q_min=1,
          verify=lambda g, p: check_correlation_coloring(g, p.q),
          sweep=_sweep_thm1_1, fold=_fold_thm1_1, slots=_slots_thm1_1),
    Claim("eq_col", q_min=1, edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "coloring", p.edge, p.q)],
          sweep=_sweep_eq_col, fold=_fold_eq_col,
          # a report names G-e, the base graph of the ratio
          slots=lambda t, cfg: _edge_slots(
              t, lambda g, e, q: check_edge_ratio(g.delete_edge(*e), "coloring", e, q),
              t.bipartite, cfg.qs, rename=True)),
    Claim("eq_ind", edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "independent", p.edge)],
          sweep=lambda g, cfg: [check_edge_ratio(g, "independent", e) for e in g.sorted_edges],
          fold=_fold_eq_ind,
          slots=lambda t, cfg: _edge_slots(
              t, lambda g, e, q: check_edge_ratio(g, "independent", e))),
    Claim("eq_wr", edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "wr", p.edge)],
          sweep=lambda g, cfg: [check_edge_ratio(g, "wr", e) for e in g.sorted_edges],
          fold=_fold_eq_wr,
          slots=lambda t, cfg: _edge_slots(t, lambda g, e, q: check_edge_ratio(g, "wr", e))),
    Claim("wr_lemma", edge=True,
          verify=lambda g, p: [check_wr_lemma(g, p.edge)],
          sweep=lambda g, cfg: [check_wr_lemma(g, e) for e in g.sorted_edges],
          fold=_fold_wr_lemma, slots=_slots_wr_lemma),
    Claim("sidorenko", target=True,
          verify=lambda g, p: [check_sidorenko_bound(g, p.target)],
          sweep=lambda g, cfg: [check_sidorenko_bound(g, cfg.target)] if g.is_connected() else []),
    Claim("cor1_2", q_min=2,
          verify=lambda g, p: [check_cycle_packing_bound(g, p.q, p.ell),
                               check_cycle_packing_headline(g, p.q, p.ell)],
          sweep=_sweep_cor1_2),
    Claim("cor1_4",
          verify=lambda g, p: [check_connected_ind_bound(g)],
          sweep=lambda g, cfg: [check_connected_ind_bound(g)] if g.is_connected() else []),
    Claim("cor1_6",
          verify=lambda g, p: [check_connected_wr_bound(g)],
          sweep=lambda g, cfg: [check_connected_wr_bound(g)] if g.is_connected() else []),
    Claim("remark2_2", q_min=1,
          verify=lambda g, p: [check_free_energy_envelope(g, p.q)]),
    Claim("balanced", q_min=1,
          verify=lambda g, p: [check_balanced_bipartite_bound(g, p.q)],
          sweep=_sweep_balanced),
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
    return {c: _group_summary(c, _checker_groups(t, reports, keep, _NAME), t, ())
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


def _oracle_batch(args) -> OracleSummary:
    n, edge_sets, wr_chrom_max_n, chrom_qs = args
    s = OracleSummary()
    small = n <= wr_chrom_max_n
    kqs = [(q, complete_target(q)) for q in chrom_qs]
    for edges in edge_sets:
        g = Graph(n, frozenset(edges))
        s.checked_ind += 1
        if ind_count(g) != hom_count(g, _HC):
            s.mismatches.append(("ind", n, edges))
        if small:
            s.checked_wr += 1
            if wr_count(g) != hom_count(g, _WR):
                s.mismatches.append(("wr", n, edges))
            poly = chrom_poly(g)
            for q, kq in kqs:
                s.checked_chrom += 1
                if poly(q) != hom_count(g, kq):
                    s.mismatches.append(("chrom", q, n, edges))
    return s


def oracle_equivalence_sweep(max_n: int = 7, wr_chrom_max_n: int = 6,
                             chrom_qs: tuple[int, ...] = (2, 3),
                             workers: int = 1) -> OracleSummary:
    total = OracleSummary()
    jobs = ((n, batch, wr_chrom_max_n, chrom_qs) for n, batch in _batches(max_n))
    for part in _map_batches(_oracle_batch, jobs, workers):
        total.merge(part)
    return total
