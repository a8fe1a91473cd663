"""Exhaustive sweeps over labeled small graphs, and the claim table.

``CLAIMS`` is the one list of claims: for each, the parameters it needs,
its per-instance checks for ``homverify verify``, its sweep expansion and
its summary kernel.  The CLI and both sweep modes read it.

Two execution paths share one instance enumeration:

* report mode drives the per-instance checkers in verify.py and streams one
  Report per instance, in enumeration order regardless of worker count;
* summary mode folds the same comparisons into counts with claim-specific
  fast kernels (shared counts reused across edges/pairs, chromatic
  polynomials cached per worker), for the full n<=7 runs.

The two paths are checked against each other in the test suite.  Workers
receive batches of edge sets in enumeration order and results are merged in
submission order, so output is byte-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from multiprocessing import get_context
from typing import Callable, Iterator, Optional

from .graphs import (
    Graph,
    TargetGraph,
    bipartition,
    complete_target,
    hard_core_target,
    to_graph6,
    widom_rowlinson_target,
)
from .counting import (
    ChromPoly,
    ListConstraint,
    WR_A,
    WR_C,
    _ind_branch,
    chrom_poly,
    hom_count,
    ind_count,
    path_ind_fib,
    wr_count,
)
from .verify import (
    FLOAT_TOL,
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
from .search import MAX_N, iter_edge_sets

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

    def record_margin(self, instance_fn: Callable[[], str], diff: int, den: int) -> None:
        """Record one applicable instance with margin diff/den (den > 0);
        the claim holds iff diff >= 0.  instance_fn builds the instance
        string and is only called when the string is kept; a Fraction is
        only built when the minimum margin improves."""
        self.instances += 1
        if diff >= 0:
            self.holds += 1
        else:
            self.violated += 1
            if self.first_violation is None:
                self.first_violation = instance_fn()
        if diff == 0:
            self.tight_count += 1
            if self.first_tight_instance is None:
                self.first_tight_instance = instance_fn()
        cur = self.min_margin
        if cur is None or diff * cur.denominator < cur.numerator * den:
            self.min_margin = Fraction(diff, den)
            self.min_margin_instance = instance_fn()

    def record(self, instance: str, verdict: str, margin: Optional[Fraction]) -> None:
        if verdict == INAPPLICABLE:
            self.instances += 1
            self.inapplicable += 1
        else:
            self.record_margin(lambda: instance, margin.numerator, margin.denominator)

    def record_json(self, rd: dict) -> None:
        """Record a report given in its JSON form (Report.to_json_dict)."""
        m = rd["margin"]
        self.record(rd["instance"], rd["verdict"], None if m is None else Fraction(m))

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
# Parallel plumbing
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
    """Ordered map over batches; identical output for any worker count."""
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
# Report mode: per-instance checkers, streamed
# ---------------------------------------------------------------------------

def _report_batch(args) -> list[dict]:
    cfg, n, edge_sets = args
    sweep = CLAIMS[cfg.claim].sweep
    out = []
    for edges in edge_sets:
        g = Graph(n, frozenset(edges))
        out.extend(r.to_json_dict() for r in sweep(g, cfg))
    return out


def sweep_reports(cfg: SweepConfig, workers: int = 1) -> Iterator[dict]:
    """JSON dicts of every Report, in enumeration order."""
    cfg.validate()
    jobs = ((cfg, n, batch) for n, batch in _batches(cfg.max_n))
    for chunk in _map_batches(_report_batch, jobs, workers):
        yield from chunk


# ---------------------------------------------------------------------------
# Summary mode: fast kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 18)
def _poly_cached(n: int, edges: tuple) -> ChromPoly:
    return chrom_poly(Graph(n, frozenset(edges)))


def _identified_edges(n: int, edges: frozenset, u: int, v: int) -> tuple:
    merged = set()
    for a, b in edges:
        a2 = u if a == v else (a - 1 if a > v else a)
        b2 = u if b == v else (b - 1 if b > v else b)
        if a2 != b2:
            merged.add((a2, b2) if a2 < b2 else (b2, a2))
    return tuple(sorted(merged))


def _summary_batch(args) -> SweepSummary:
    cfg, n, edge_sets = args
    claim = CLAIMS[cfg.claim]
    fold = claim.fold
    s = SweepSummary(cfg.claim)
    for edges in edge_sets:
        g = Graph(n, frozenset(edges))
        if fold is not None:
            fold(s, g, cfg)
        else:
            # bound-style claims: checker cost is already one pass per graph
            for r in claim.sweep(g, cfg):
                s.record(r.instance, r.verdict, r.margin)
    return s


def _fold_eq_ind(s: SweepSummary, g: Graph, cfg: SweepConfig) -> None:
    if not g.edges:
        return
    masks = list(g.neighbor_masks)
    full = (1 << g.n) - 1
    num = _ind_branch(tuple(masks), full)
    for u, v in g.sorted_edges:
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        den = _ind_branch(tuple(masks), full)
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        # i(g)/i(g-e) >= 3/4
        s.record_margin(lambda u=u, v=v: f"{to_graph6(g)} e=({u},{v})",
                        num * 4 - 3 * den, den * 4)


def _fold_eq_wr(s: SweepSummary, g: Graph, cfg: SweepConfig) -> None:
    if not g.edges:
        return
    num = wr_count(g)
    for u, v in g.sorted_edges:
        den = wr_count(g.delete_edge(u, v))
        # wr(g)/wr(g-e) >= 7/9
        s.record_margin(lambda u=u, v=v: f"{to_graph6(g)} e=({u},{v})",
                        num * 9 - 7 * den, den * 9)


def _fold_wr_lemma(s: SweepSummary, g: Graph, cfg: SweepConfig) -> None:
    for u, v in g.sorted_edges:
        h = g.delete_edge(u, v)
        lhs = wr_count(h, ListConstraint({u: {WR_A}, v: {WR_A}}))
        rhs = wr_count(h, ListConstraint({u: {WR_A}, v: {WR_C}}))
        s.record_margin(lambda u=u, v=v: f"{to_graph6(g)} e=({u},{v})", lhs - rhs, 1)


def _fold_thm1_1(s: SweepSummary, g: Graph, cfg: SweepConfig) -> None:
    if not g.is_connected():
        return
    bip = bipartition(g)
    if bip is None:
        return
    qs = cfg.qs
    poly = _poly_cached(g.n, g.sorted_edges)
    ch_g = {q: poly(q) for q in qs}
    left = bip.left
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cross = (u in left) != (v in left)
            adjacent = g.has_edge(u, v)
            if not adjacent:
                ipoly = _poly_cached(g.n - 1, _identified_edges(g.n, g.edges, u, v))
            for q in qs:
                c = ch_g[q]
                if c == 0:
                    s.record(f"{to_graph6(g)} q={q}", INAPPLICABLE, None)
                    continue
                ci = 0 if adjacent else ipoly(q)
                # P = ci/c compared with 1/q
                if cross:
                    # claim P <= 1/q: margin = 1/q - ci/c = (c - q*ci)/(q*c)
                    s.record_margin(
                        lambda u=u, v=v, q=q: f"{to_graph6(g)} q={q} pair=({u},{v}) cross",
                        c - q * ci, q * c)
                else:
                    s.record_margin(
                        lambda u=u, v=v, q=q: f"{to_graph6(g)} q={q} pair=({u},{v}) same",
                        q * ci - c, q * c)


def _fold_eq_col(s: SweepSummary, g: Graph, cfg: SweepConfig) -> None:
    if not g.edges or bipartition(g) is None:
        return
    poly = _poly_cached(g.n, g.sorted_edges)
    for u, v in g.sorted_edges:
        sub = tuple(e for e in g.sorted_edges if e != (u, v))
        spoly = _poly_cached(g.n, sub)
        for q in cfg.qs:
            den = spoly(q)
            if den == 0:
                s.record(f"{to_graph6(g)} q={q} e=({u},{v})", INAPPLICABLE, None)
                continue
            # ch(g)/ch(g-e) >= (q-1)/q
            s.record_margin(
                lambda u=u, v=v, q=q: f"{to_graph6(g)} q={q} e=({u},{v})",
                poly(q) * q - (q - 1) * den, den * q)


def sweep_summary(cfg: SweepConfig, workers: int = 1) -> SweepSummary:
    cfg.validate()
    total = SweepSummary(cfg.claim)
    jobs = ((cfg, n, batch) for n, batch in _batches(cfg.max_n))
    for part in _map_batches(_summary_batch, jobs, workers):
        total.merge(part)
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
    graph; None marks a verify-only claim.  fold(summary, g, cfg) is the
    summary-mode kernel; without one, summaries fold the sweep's reports.
    Entries call the checkers through this module's globals at call time,
    so a wrapper installed on those names (perfbench's tracer) sees every
    call."""

    name: str
    verify: Callable
    sweep: Optional[Callable] = None
    fold: Optional[Callable] = None
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
          sweep=_sweep_thm1_1, fold=_fold_thm1_1),
    Claim("eq_col", q_min=1, edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "coloring", p.edge, p.q)],
          sweep=_sweep_eq_col, fold=_fold_eq_col),
    Claim("eq_ind", edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "independent", p.edge)],
          sweep=lambda g, cfg: [check_edge_ratio(g, "independent", e) for e in g.sorted_edges],
          fold=_fold_eq_ind),
    Claim("eq_wr", edge=True,
          verify=lambda g, p: [check_edge_ratio(g, "wr", p.edge)],
          sweep=lambda g, cfg: [check_edge_ratio(g, "wr", e) for e in g.sorted_edges],
          fold=_fold_eq_wr),
    Claim("wr_lemma", edge=True,
          verify=lambda g, p: [check_wr_lemma(g, p.edge)],
          sweep=lambda g, cfg: [check_wr_lemma(g, e) for e in g.sorted_edges],
          fold=_fold_wr_lemma),
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
# Bundled connected-graph pass (shares i(H) and wr(H) across claims)
# ---------------------------------------------------------------------------

CORO_CLAIMS = ("sidorenko_hc", "sidorenko_wr", "sidorenko_k3", "cor1_4", "cor1_6")


def _corollary_batch(args) -> dict:
    n, edge_sets = args
    out = {c: SweepSummary(c) for c in CORO_CLAIMS}
    sqrt2 = math.sqrt(2)
    for edges in edge_sets:
        g = Graph(n, frozenset(edges))
        if not g.is_connected():
            continue
        e = g.m
        gid = None

        def iid():
            nonlocal gid
            if gid is None:
                gid = to_graph6(g)
            return gid

        i_h = ind_count(g)
        wr_h = wr_count(g)
        bip = bipartition(g)

        # Sidorenko vs hard-core: i(H) >= 2^n (3/4)^e
        out["sidorenko_hc"].record_margin(iid, i_h * 4 ** e - 2 ** n * 3 ** e, 4 ** e)
        # Sidorenko vs Widom-Rowlinson: wr(H) >= 3^n (7/9)^e
        out["sidorenko_wr"].record_margin(iid, wr_h * 9 ** e - 3 ** n * 7 ** e, 9 ** e)
        # Sidorenko vs K_3 (bipartite sources only): ch(H,3) >= 3^n (2/3)^e
        if bip is not None:
            ch3 = _poly_cached(g.n, g.sorted_edges)(3)
            out["sidorenko_k3"].record_margin(iid, ch3 * 3 ** e - 3 ** n * 2 ** e, 3 ** e)
        # connected independent-set floor
        ex = e - (n - 1)
        out["cor1_4"].record_margin(iid, i_h * 4 ** ex - path_ind_fib(n) * 3 ** ex, 4 ** ex)
        # connected Widom-Rowlinson floor (irrational: widened float bound)
        bound = 2 * sqrt2 * (1 + sqrt2) ** (n - 1) * (7 / 9) ** ex
        margin = Fraction(wr_h) - (Fraction(bound) - FLOAT_TOL)
        out["cor1_6"].record_margin(iid, margin.numerator, margin.denominator)
    return out


def corollary_bundle_summary(max_n: int, workers: int = 1) -> dict:
    """One pass over connected graphs feeding all five corollary claims."""
    totals = {c: SweepSummary(c) for c in CORO_CLAIMS}
    jobs = ((n, batch) for n, batch in _batches(max_n))
    for part in _map_batches(_corollary_batch, jobs, workers):
        for c in CORO_CLAIMS:
            totals[c].merge(part[c])
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


_HC = hard_core_target()
_WR = widom_rowlinson_target()


def _oracle_batch(args) -> OracleSummary:
    n, edge_sets, wr_chrom_max_n, chrom_qs = args
    s = OracleSummary()
    small = n <= wr_chrom_max_n
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
            for q in chrom_qs:
                s.checked_chrom += 1
                if poly(q) != hom_count(g, complete_target(q)):
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
