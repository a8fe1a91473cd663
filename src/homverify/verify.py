"""Per-instance checkers for every inequality the engine can test.

Each checker returns one Report (or a list, for the pairwise correlation
check) with exact-rational sides.  Verdicts never rest on floating point:
where a threshold is irrational, the verdict uses either an equivalent
all-rational form or a float bound converted to an exact rational after
widening by the stated 1e-9 tolerance, and the raw floats ride along in
``advisory_float``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .graphs import (
    Graph,
    TargetGraph,
    WR_A,
    WR_C,
    bipartition,
    connected_components,
    cycle_edges,
    girth,
    greedy_cycle_packing,
    hard_core_target,
    identify_vertices,
    to_graph6,
    widom_rowlinson_target,
)
from .counting import (
    ListConstraint,
    chrom_eval,
    chrom_poly,
    hom_count,
    ind_count,
    path_ind_fib,
    wr_count,
)

HOLDS = "holds"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"

FLOAT_TOL = Fraction(1, 10 ** 9)


@dataclass(frozen=True)
class Report:
    """One verification record.  margin is oriented so that >= 0 means the
    claim holds; inapplicable reports carry a reason instead of sides."""

    instance: str
    claim: str
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    verdict: str
    margin: Optional[Fraction]
    advisory_float: Optional[tuple[float, float]] = None
    reason: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "claim": self.claim,
            "lhs": rat_text(self.lhs),
            "rhs": rat_text(self.rhs),
            "verdict": self.verdict,
            "margin": rat_text(self.margin),
            "advisory_float": (
                None
                if self.advisory_float is None
                else {"lhs": self.advisory_float[0], "rhs": self.advisory_float[1]}
            ),
            "reason": self.reason,
        }


def int_text(n: int) -> str:
    return str(Decimal(n))  # Decimal prints past Python's 4,300-digit int-to-str limit


def rat_text(x: Optional[Fraction]) -> Optional[str]:
    if x is None:
        return None
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def _ge_report(instance, claim, lhs, rhs, advisory=None) -> Report:
    """Claim lhs >= rhs."""
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    margin = lhs - rhs
    return Report(instance, claim, lhs, rhs,
                  HOLDS if margin >= 0 else VIOLATED, margin, advisory)


def _le_report(instance, claim, lhs, rhs, advisory=None) -> Report:
    """Claim lhs <= rhs."""
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    margin = rhs - lhs
    return Report(instance, claim, lhs, rhs,
                  HOLDS if margin >= 0 else VIOLATED, margin, advisory)


def _na(instance, claim, reason) -> Report:
    return Report(instance, claim, None, None, INAPPLICABLE, None, None, reason)


# ---------------------------------------------------------------------------
# Correlation of colors at vertex pairs (bipartite graphs)
# ---------------------------------------------------------------------------

def equal_color_probability(g: Graph, u: int, v: int, q: int,
                            ch_g: Optional[int] = None) -> Fraction:
    """P(c(u)=c(v)) under a uniform proper q-coloring: colorings with
    c(u)=c(v) are exactly the colorings of the graph with u,v identified."""
    if ch_g is None:
        ch_g = chrom_eval(g, q)
    if ch_g == 0:
        raise ValueError("no proper colorings, probability undefined")
    if g.has_edge(u, v):
        return Fraction(0)
    return Fraction(chrom_eval(identify_vertices(g, u, v), q), ch_g)


def check_correlation_coloring(g: Graph, q: int) -> list[Report]:
    """For each vertex pair, equal-color probability <= 1/q across parts and
    >= 1/q within a part; every pair is inapplicable if the bipartite graph
    has no proper q-coloring."""
    gid = to_graph6(g)
    bip = bipartition(g)
    if bip is None:
        return [_na(f"{gid} q={q}", "thm1_1", "graph is not bipartite")]
    poly = chrom_poly(g)
    ch_g = poly(q)
    reports = []
    inv_q = Fraction(1, q)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            cross = (u in bip.left) != (v in bip.left)
            claim = "thm1_1_cross" if cross else "thm1_1_same"
            inst = f"{gid} q={q} pair=({u},{v}) {'cross' if cross else 'same'}"
            if ch_g == 0:
                reports.append(_na(inst, claim, f"no proper {q}-colorings"))
            else:
                p = equal_color_probability(g, u, v, q, ch_g)
                reports.append((_le_report if cross else _ge_report)(inst, claim, p, inv_q))
    return reports


# ---------------------------------------------------------------------------
# Edge ratios (the three correlation-style theorems)
# ---------------------------------------------------------------------------

COLORING = "coloring"
INDEPENDENT = "independent"
WR = "wr"


def check_edge_ratio(g: Graph, model: str, edge: tuple[int, int],
                     q: Optional[int] = None) -> Report:
    """Count ratio against the model threshold.

    coloring: `edge` is a missing edge of the bipartite graph g (adding it
    must stay bipartite); ratio ch(g+e)/ch(g) against (q-1)/q.
    independent / wr: `edge` is an edge of g; ratio i(g)/i(g-e) against 3/4,
    wr(g)/wr(g-e) against 7/9.
    """
    gid = to_graph6(g)
    u, v = edge
    if model == COLORING:
        if q is None or q < 1:
            raise ValueError("coloring ratio needs q >= 1")
        inst = f"{gid} q={q} e=({u},{v})"
        if g.has_edge(u, v):
            return _na(inst, "eq_col", "edge already present, need a missing edge")
        plus = g.add_edge(u, v)
        if bipartition(plus) is None:
            return _na(inst, "eq_col", "graph plus edge is not bipartite")
        denom = chrom_eval(g, q)
        if denom == 0:
            return _na(inst, "eq_col", f"no proper {q}-colorings of the base graph")
        ratio = Fraction(chrom_eval(plus, q), denom)
        return _ge_report(inst, "eq_col", ratio, Fraction(q - 1, q))
    if model == INDEPENDENT:
        inst = f"{gid} e=({u},{v})"
        if not g.has_edge(u, v):
            return _na(inst, "eq_ind", "edge not present")
        ratio = Fraction(ind_count(g), ind_count(g.delete_edge(u, v)))
        return _ge_report(inst, "eq_ind", ratio, Fraction(3, 4))
    if model == WR:
        inst = f"{gid} e=({u},{v})"
        if not g.has_edge(u, v):
            return _na(inst, "eq_wr", "edge not present")
        ratio = Fraction(wr_count(g), wr_count(g.delete_edge(u, v)))
        return _ge_report(inst, "eq_wr", ratio, Fraction(7, 9))
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# Sidorenko-form lower bounds
# ---------------------------------------------------------------------------

def _matches_up_to_permutation(t: TargetGraph, ref: TargetGraph) -> bool:
    if t.k != ref.k:
        return False
    import itertools

    for perm in itertools.permutations(range(t.k)):
        if all(
            t.w[perm[i]][perm[j]] == ref.w[i][j]
            for i in range(t.k)
            for j in range(t.k)
        ):
            return True
    return False


def nonbipartite_safe(t: TargetGraph) -> bool:
    """Targets for which the Sidorenko form is proven without assuming the
    source is bipartite: the hard-core target and the Widom-Rowlinson
    target (up to relabeling)."""
    return _matches_up_to_permutation(t, hard_core_target()) or _matches_up_to_permutation(
        t, widom_rowlinson_target()
    )


def check_sidorenko_bound(g: Graph, target: TargetGraph) -> Report:
    """hom(H,G) >= v(G)^n (hom(K_2,G)/v(G)^2)^e(H), exact rationals."""
    gid = to_graph6(g)
    inst = f"{gid} target[{target.describe()}]"
    if bipartition(g) is None and not nonbipartite_safe(target):
        return _na(inst, "sidorenko", "source not bipartite and target not hard-core/WR-like")
    k = target.k
    s = target.edge_weight_sum
    rhs = Fraction(k) ** g.n * (s / k ** 2) ** g.m if k else Fraction(1 if g.n == 0 else 0)
    lhs = hom_count(g, target)
    return _ge_report(inst, "sidorenko", lhs, rhs)


def _cycle_packing_report(g: Graph, q: int, max_len: int, claim: str, rhs_of) -> Report:
    """What both cycle packing forms share: q >= 2, an inapplicable report
    unless H is bipartite, the greedy packing and the instance name;
    rhs_of(cycles) is the form's lower bound on ch(H,q)."""
    gid = to_graph6(g)
    if q < 2:
        raise ValueError("cycle packing bound needs q >= 2")
    if bipartition(g) is None:
        return _na(f"{gid} q={q} l={max_len}", claim, "graph is not bipartite")
    cycles = greedy_cycle_packing(g, max_len)
    inst = f"{gid} q={q} l={max_len} cycles={len(cycles)}"
    lhs = Fraction(chrom_eval(g, q))
    return _ge_report(inst, claim, lhs, rhs_of(cycles))


def check_cycle_packing_bound(g: Graph, q: int, max_len: int) -> Report:
    """Proof-form cycle packing bound: with S the greedy packing's cycles
    plus isolated vertices, ch(H,q) >= ch(S,q) ((q-1)/q)^(e(H)-e(S)).
    This is what edge-by-edge removal from H down to S gives; the headline
    constant form is reported by check_cycle_packing_headline."""
    def rhs(cycles):
        s_graph = Graph.from_edges(g.n, [e for c in cycles for e in cycle_edges(c)])
        return Fraction(chrom_eval(s_graph, q)) * Fraction(q - 1, q) ** (g.m - s_graph.m)
    return _cycle_packing_report(g, q, max_len, "cor1_2", rhs)


def check_cycle_packing_headline(g: Graph, q: int, max_len: int) -> Report:
    """Headline form: ch(H,q) >= (1+(q-1)^(1-l))^kappa q^n ((q-1)/q)^e(H)
    with kappa the number of packed cycles (so the epsilon-power is an
    exact rational)."""
    def rhs(cycles):
        boost = (1 + Fraction(1, (q - 1) ** (max_len - 1))) ** len(cycles)
        return boost * Fraction(q) ** g.n * Fraction(q - 1, q) ** g.m
    return _cycle_packing_report(g, q, max_len, "cor1_2_headline", rhs)


def check_connected_ind_bound(g: Graph) -> Report:
    """Connected graphs: i(H) >= F_(n+2) (3/4)^(e-(n-1)), the all-rational
    spanning-tree route; the published (1+sqrt5)/3 closed form is attached
    as an advisory float pair."""
    gid = to_graph6(g)
    if not g.is_connected():
        return _na(gid, "cor1_4", "graph is disconnected")
    n, e = g.n, g.m
    lhs = Fraction(ind_count(g))
    # F_2 = 1 for the graph with no vertices, which has one independent set
    rhs = (path_ind_fib(n) if n else 1) * Fraction(3, 4) ** (e - (n - 1))
    try:
        advisory = (float(lhs), 0.75 * ((1 + math.sqrt(5)) / 3) ** n * 2 ** n * 0.75 ** e)
    except OverflowError:  # a count or 2^n past the float range
        advisory = None
    return _ge_report(gid, "cor1_4", lhs, rhs, advisory=advisory)


def check_connected_wr_bound(g: Graph) -> Report:
    """Connected graphs: wr(H) >= 2 sqrt2 (1+sqrt2)^(n-1) (7/9)^(e-(n-1)).
    The threshold is irrational, so the verdict compares against the float
    bound widened by 1e-9; raw floats attached."""
    gid = to_graph6(g)
    if not g.is_connected():
        return _na(gid, "cor1_6", "graph is disconnected")
    n, e = g.n, g.m
    lhs = Fraction(wr_count(g))
    bound = 2 * math.sqrt(2) * (1 + math.sqrt(2)) ** (n - 1) * (7 / 9) ** (e - (n - 1))
    rhs = Fraction(bound) - FLOAT_TOL
    closed = 0.9 * (3 * (1 + math.sqrt(2)) / 7) ** n * 3 ** n * (7 / 9) ** e
    return _ge_report(gid, "cor1_6", lhs, rhs, advisory=(float(lhs), closed))


def check_wr_lemma(g: Graph, edge: tuple[int, int]) -> Report:
    """After deleting the edge (u,v): configurations with u,v both red are
    at least as many as those with u red and v blue."""
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"edge {edge} not in graph")
    gid = to_graph6(g)
    inst = f"{gid} e=({u},{v})"
    h = g.delete_edge(u, v)
    lhs = wr_count(h, ListConstraint({u: {WR_A}, v: {WR_A}}))
    rhs = wr_count(h, ListConstraint({u: {WR_A}, v: {WR_C}}))
    return _ge_report(inst, "wr_lemma", Fraction(lhs), Fraction(rhs))


# ---------------------------------------------------------------------------
# Free-energy gap and the dense balanced-bipartite floor
# ---------------------------------------------------------------------------

def free_energy_gap(g: Graph, q: int) -> tuple[float, float, bool]:
    """(gap, envelope, within): per-vertex log chromatic count minus
    ln q + (e/n) ln((q-1)/q), against the 2 (8d/q)^(g-1) / (1-8d/q)
    envelope.  Advisory float computation at 1e-9."""
    d = g.max_degree()
    gir = girth(g)
    if gir is None:
        raise ValueError("acyclic graph: girth undefined")
    if q <= 8 * d:
        raise ValueError(f"envelope needs q > 8d = {8 * d}")
    ch = chrom_eval(g, q)
    if ch == 0:
        raise ValueError("no proper colorings")
    gap = math.log(ch) / g.n - (math.log(q) + g.m / g.n * math.log((q - 1) / q))
    ratio = 8 * d / q
    envelope = 2 * ratio ** (gir - 1) / (1 - ratio)
    return gap, envelope, abs(gap) <= envelope + 1e-9


def check_free_energy_envelope(g: Graph, q: int) -> Report:
    gid = to_graph6(g)
    inst = f"{gid} q={q}"
    try:
        gap, envelope, _within = free_energy_gap(g, q)
    except ValueError as exc:
        return _na(inst, "remark2_2", str(exc))
    lhs = Fraction(abs(gap))
    rhs = Fraction(envelope) + FLOAT_TOL
    return _le_report(inst, "remark2_2", lhs, rhs, advisory=(abs(gap), envelope))


def is_balanced_bipartite(g: Graph) -> bool:
    """Whether some bipartition has equal sides (components may flip)."""
    bip = bipartition(g)
    if bip is None or g.n % 2:
        return False
    sizes = []
    for comp in connected_components(g):
        a = sum(1 for v in comp if v in bip.left)
        sizes.append((a, len(comp) - a))
    reachable = {0}
    for a, b in sizes:
        reachable = {r + a for r in reachable} | {r + b for r in reachable}
    return g.n // 2 in reachable


def check_balanced_bipartite_bound(g: Graph, q: int) -> Report:
    """Balanced bipartite graphs, however dense: ch(H,q) >= (q/2)^n for even
    q and ((q-1)(q+1)/4)^(n/2) for odd q."""
    gid = to_graph6(g)
    inst = f"{gid} q={q}"
    if bipartition(g) is None:
        return _na(inst, "balanced", "graph is not bipartite")
    if not is_balanced_bipartite(g):
        return _na(inst, "balanced", "no balanced bipartition exists")
    n = g.n
    if q % 2 == 0:
        rhs = Fraction(q, 2) ** n
    else:
        rhs = Fraction((q - 1) * (q + 1), 4) ** (n // 2)
    lhs = Fraction(chrom_eval(g, q))
    return _ge_report(inst, "balanced", lhs, rhs)
