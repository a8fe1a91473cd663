"""Exact counters.

Everything here is exact: arbitrary-precision integers for 0/1 targets,
Fractions for weighted ones.  Floating point appears only in the spectral
helpers, which feed advisory bounds, never verdicts.

Routes are deliberately redundant: the generic weighted backtracking
counter, the chromatic polynomial via deletion-contraction, the
independent-set branching recursion and the Widom-Rowlinson white-set
decomposition are four independent algorithms whose pairwise agreement is
enforced by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from .graphs import (
    Graph,
    TargetGraph,
    IND_IN,
    IND_OUT,
    WR_A,
    WR_B,
    WR_C,
    complete_target,
    connected_components,
    hard_core_target,
    widom_rowlinson_target,
)

HOM_GUARD_BITS = 64          # reject hom_count when n*log2(k) exceeds this
IND_GUARD_VERTICES = 40      # reject ind_count beyond this many vertices
WR_GUARD_VERTICES = 24       # reject wr_count beyond this many (2^n white sets)
CHROM_POLY_EDGE_GUARD = 40   # reject chrom_poly beyond this many edges


class SizeGuardError(ValueError):
    """Instance exceeds the desk-scale size guard."""


@dataclass(frozen=True)
class ListConstraint:
    """Per-vertex allowed target sets; unconstrained vertices map anywhere.
    Empty allowed sets are rejected here rather than silently counting 0."""

    allowed: Mapping[int, frozenset[int]]

    def __post_init__(self):
        norm = {}
        for v, targets in self.allowed.items():
            ts = frozenset(targets)
            if not ts:
                raise ValueError(f"empty allowed set for vertex {v}")
            norm[int(v)] = ts
        object.__setattr__(self, "allowed", norm)

    def validate(self, n: int, k: int) -> None:
        for v, ts in self.allowed.items():
            if not 0 <= v < n:
                raise ValueError(f"constrained vertex {v} out of range 0..{n - 1}")
            for t in ts:
                if not 0 <= t < k:
                    raise ValueError(f"allowed target {t} for vertex {v} out of range 0..{k - 1}")

    def get(self, v: int) -> Optional[frozenset[int]]:
        return self.allowed.get(v)


EMPTY_CONSTRAINT = ListConstraint({})


# ---------------------------------------------------------------------------
# Weighted homomorphism counting
# ---------------------------------------------------------------------------

def _order_component(g: Graph, comp: list[int]) -> list[int]:
    """BFS order from a maximum-degree vertex (ties to the smallest id),
    neighbors in ascending order: assigned vertices stay adjacent to the
    frontier, so zero weights prune early."""
    adj = g.adjacency
    start = max(comp, key=lambda v: (len(adj[v]), -v))
    order = [start]
    seen = {start}
    queue = [start]
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
                    nxt.append(v)
        queue = nxt
    return order


def _count_maps_simple(order_nbrs, choices, wrows) -> int:
    """Backtracking count for 0/1 targets: no weight bookkeeping, just
    compatibility."""
    m = len(choices)
    assign = [0] * m
    total = 0

    def rec(p: int) -> None:
        nonlocal total
        if p == m:
            total += 1
            return
        nbrs = order_nbrs[p]
        for t in choices[p]:
            row = wrows[t]
            for q in nbrs:
                if not row[assign[q]]:
                    break
            else:
                assign[p] = t
                rec(p + 1)

    rec(0)
    return total


def _count_maps_weighted(order_nbrs, choices, wrows) -> Fraction:
    m = len(choices)
    assign = [0] * m
    total = Fraction(0)

    def rec(p: int, weight: Fraction) -> None:
        nonlocal total
        if p == m:
            total += weight
            return
        nbrs = order_nbrs[p]
        for t in choices[p]:
            row = wrows[t]
            wt = weight
            for q in nbrs:
                x = row[assign[q]]
                if not x:
                    break
                wt = wt * x
            else:
                assign[p] = t
                rec(p + 1, wt)

    rec(0, Fraction(1))
    return total


def hom_count(
    g: Graph,
    target: TargetGraph,
    constraint: Optional[ListConstraint] = None,
    *,
    override_guard: bool = False,
) -> Fraction:
    """Weighted homomorphism count: sum over all maps respecting the
    constraint of the product of edge weights.  Exact; counts per connected
    component of the source are multiplied."""
    k = target.k
    n = g.n
    if k > 1 and n * math.log2(k) > HOM_GUARD_BITS and not override_guard:
        raise SizeGuardError(f"hom_count guard: {n} vertices into {k} targets")
    c = constraint or EMPTY_CONSTRAINT
    c.validate(n, k)

    if n == 0:
        return Fraction(1)
    full = tuple(range(k))
    simple = target.is_simple
    if simple:
        wrows = [[1 if x else 0 for x in row] for row in target.w]
    else:
        wrows = [list(row) for row in target.w]

    result = Fraction(1)
    pos = {}
    for comp in connected_components(g):
        order = _order_component(g, comp)
        pos.clear()
        for i, v in enumerate(order):
            pos[v] = i
        adj = g.adjacency
        order_nbrs = [
            tuple(pos[w] for w in adj[v] if pos.get(w, len(order)) < i)
            for i, v in enumerate(order)
        ]
        choices = [tuple(sorted(c.get(v))) if c.get(v) is not None else full for v in order]
        if simple:
            part: Fraction | int = _count_maps_simple(order_nbrs, choices, wrows)
        else:
            part = _count_maps_weighted(order_nbrs, choices, wrows)
        if not part:
            return Fraction(0)
        result *= part
    return Fraction(result)


# ---------------------------------------------------------------------------
# Chromatic polynomial
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChromPoly:
    """Chromatic polynomial, ascending integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = self.coeffs
        if not cs or cs[-1] != 1:
            raise ValueError("chromatic polynomial must be monic")
        n = len(cs) - 1
        if n >= 1 and cs[0] != 0:
            raise ValueError("constant term must vanish for graphs with vertices")
        for i, a in enumerate(cs):
            if a and (a > 0) != ((n - i) % 2 == 0):
                raise ValueError(f"coefficient of q^{i} breaks sign alternation")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, q: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * q + a
        return acc

    def to_coeff_strings(self) -> list[str]:
        return [str(a) for a in self.coeffs]


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _psub(a: list[int], b: list[int]) -> list[int]:
    out = list(a)
    if len(out) < len(b):
        out += [0] * (len(b) - len(out))
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _qminus1_pow(m: int) -> list[int]:
    # coefficients of (q-1)^m
    return [(-1) ** (m - i) * math.comb(m, i) for i in range(m + 1)]


def _tree_poly(nverts: int) -> list[int]:
    # q (q-1)^(n-1)
    return [0] + _qminus1_pow(nverts - 1)


def _cycle_poly(length: int) -> list[int]:
    # (q-1)^l + (-1)^l (q-1)
    out = _qminus1_pow(length)
    s = (-1) ** length
    out[0] += -s
    out[1] += s
    return out


def _components_of(n: int, edges: tuple) -> list[list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = set()
    comps = []
    for s in adj:
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def _chrom_rec(n: int, edges: tuple, memo: dict) -> list[int]:
    """Deletion-contraction with closed forms for forests and cycles.
    `edges` is a sorted tuple over vertex ids 0..n-1; isolated vertices
    contribute a factor q each."""
    if not edges:
        return [0] * n + [1]
    key = (n, edges)
    got = memo.get(key)
    if got is not None:
        return got

    comps = _components_of(n, edges)
    covered = sum(len(c) for c in comps)
    iso = n - covered
    poly = [1]
    edge_set = set(edges)
    for comp in comps:
        cn = len(comp)
        compset = set(comp)
        inner = [(u, v) for u, v in edges if u in compset and v in compset]
        ce = len(inner)
        if ce == cn - 1:
            cpoly = _tree_poly(cn)
        elif ce == cn:
            deg: dict[int, int] = dict.fromkeys(comp, 0)
            for u, v in inner:
                deg[u] += 1
                deg[v] += 1
            if all(d == 2 for d in deg.values()):
                cpoly = _cycle_poly(cn)
            else:
                cpoly = None
        else:
            cpoly = None
        if cpoly is None:
            # relabel the component to 0..cn-1 and recurse on delete/contract
            remap = {v: i for i, v in enumerate(comp)}
            comp_edges = tuple(sorted(
                (min(remap[u], remap[v]), max(remap[u], remap[v])) for u, v in inner
            ))
            cpoly = _chrom_del_con(cn, comp_edges, memo)
        poly = _pmul(poly, cpoly)
    if iso:
        poly = [0] * iso + poly
    memo[key] = poly
    return poly


def _chrom_del_con(n: int, edges: tuple, memo: dict) -> list[int]:
    key = (n, edges)
    got = memo.get(key)
    if got is not None:
        return got
    # pick an edge at a maximum-degree vertex for fast collapse
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    e = max(edges, key=lambda f: (deg[f[0]] + deg[f[1]], f))
    deleted = tuple(f for f in edges if f != e)
    # contract: merge e[1] into e[0], relabel > e[1] down by one
    lo, hi = e
    merged = set()
    for u, v in deleted:
        u2 = lo if u == hi else (u - 1 if u > hi else u)
        v2 = lo if v == hi else (v - 1 if v > hi else v)
        if u2 != v2:
            merged.add((min(u2, v2), max(u2, v2)))
    contracted = tuple(sorted(merged))
    poly = _psub(_chrom_rec(n, deleted, memo), _chrom_rec(n - 1, contracted, memo))
    memo[key] = poly
    return poly


def chrom_poly(g: Graph, *, override_guard: bool = False) -> ChromPoly:
    """Exact chromatic polynomial via deletion-contraction; memoization is
    local to the call and keyed by the (n, sorted edge set) signature."""
    if g.m > CHROM_POLY_EDGE_GUARD and not override_guard:
        raise SizeGuardError(f"chrom_poly guard: {g.m} edges")
    memo: dict = {}
    coeffs = _chrom_rec(g.n, g.sorted_edges, memo)
    return ChromPoly(tuple(coeffs))


def chrom_eval(g: Graph, q: int, poly: Optional[ChromPoly] = None) -> int:
    """ch(H, q): evaluated from the chromatic polynomial when one is given
    or when the polynomial guard allows building it, else counted directly
    as homomorphisms into K_q.  The two routes must agree (tested)."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    if poly is not None:
        return poly(q)
    if g.m <= CHROM_POLY_EDGE_GUARD:
        return chrom_poly(g)(q)
    val = hom_count(g, complete_target(q))
    return int(val)


# ---------------------------------------------------------------------------
# Independent sets
# ---------------------------------------------------------------------------

def _ind_branch(nbr: tuple[int, ...], alive: int) -> int:
    """i(H) = i(H - v) + i(H - N[v]) on a maximum-degree vertex; once no
    edges remain, every subset of what is left is independent."""
    best = -1
    bestd = 0
    m = alive
    while m:
        b = m & -m
        m ^= b
        d = (nbr[b.bit_length() - 1] & alive).bit_count()
        if d > bestd:
            bestd = d
            best = b.bit_length() - 1
    if bestd == 0:
        return 1 << alive.bit_count()
    b = 1 << best
    return _ind_branch(nbr, alive ^ b) + _ind_branch(nbr, alive & ~(nbr[best] | b))


def ind_count(g: Graph, constraint: Optional[ListConstraint] = None, *,
              override_guard: bool = False) -> int:
    """Number of independent sets compatible with the constraint (targets
    are subsets of {IND_OUT, IND_IN} of the hard-core target).  Branching
    recursion per connected component; equals hom_count against the
    hard-core target."""
    if g.n > IND_GUARD_VERTICES and not override_guard:
        raise SizeGuardError(f"ind_count guard: {g.n} vertices")
    c = constraint or EMPTY_CONSTRAINT
    c.validate(g.n, 2)

    forced_in = [v for v in range(g.n) if c.get(v) == frozenset({IND_IN})]
    forced_out = [v for v in range(g.n) if c.get(v) == frozenset({IND_OUT})]
    masks = g.neighbor_masks
    in_mask = 0
    for v in forced_in:
        in_mask |= 1 << v
    for v in forced_in:
        if masks[v] & in_mask:
            return 0  # two adjacent vertices forced into the set
    dead = in_mask
    for v in forced_in:
        dead |= masks[v]
    for v in forced_out:
        dead |= 1 << v

    alive = ((1 << g.n) - 1) & ~dead
    total = 1
    for comp in connected_components(g):
        cmask = 0
        for v in comp:
            cmask |= 1 << v
        cmask &= alive
        if cmask:
            total *= _ind_branch(masks, cmask)
    return total


def path_ind_fib(n: int) -> int:
    """i(P_n) in closed form: the Fibonacci number F_{n+2} (F_0=0, F_1=1)."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    a, b = 0, 1
    for _ in range(n + 2):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# Widom-Rowlinson configurations
# ---------------------------------------------------------------------------

def wr_count(g: Graph, constraint: Optional[ListConstraint] = None, *,
             override_guard: bool = False) -> int:
    """Red/white/blue colorings where red and blue are never adjacent,
    restricted by the constraint (targets in {WR_A, WR_B, WR_C}).

    Counts by conditioning on the white set: once the white vertices are
    fixed, every remaining component is monochromatic red or blue, so each
    component contributes the number of end colors its vertices all allow.
    Independent of (and checked against) the homomorphism route."""
    if g.n > WR_GUARD_VERTICES and not override_guard:
        raise SizeGuardError(f"wr_count guard: {g.n} vertices")
    c = constraint or EMPTY_CONSTRAINT
    c.validate(g.n, 3)

    n = g.n
    full = (1 << n) - 1
    allow_b = 0
    allow_a = 0
    allow_c = 0
    for v in range(n):
        ts = c.get(v)
        if ts is None:
            ts = frozenset({WR_A, WR_B, WR_C})
        if WR_B in ts:
            allow_b |= 1 << v
        if WR_A in ts:
            allow_a |= 1 << v
        if WR_C in ts:
            allow_c |= 1 << v

    masks = g.neighbor_masks
    total = 0
    # iterate white sets B over subsets of the b-allowing vertices
    white = allow_b
    while True:
        alive = full & ~white
        prod = 1
        rem = alive
        while rem and prod:
            seed = rem & -rem
            comp = seed
            frontier = seed
            while frontier:
                grow = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    grow |= masks[b.bit_length() - 1]
                frontier = grow & alive & ~comp
                comp |= frontier
            rem &= ~comp
            prod *= ((comp & ~allow_a) == 0) + ((comp & ~allow_c) == 0)
        total += prod
        if white == 0:
            break
        white = (white - 1) & allow_b
    return total


# ---------------------------------------------------------------------------
# Closed forms and spectral quantities
# ---------------------------------------------------------------------------

def cycle_chrom_formula(length: int, q: int) -> int:
    """ch(C_l, q) = (q-1)^l + (-1)^l (q-1)."""
    if length < 3:
        raise ValueError("cycles have length at least 3")
    if q < 0:
        raise ValueError("q must be nonnegative")
    return (q - 1) ** length + (-1) ** length * (q - 1)


SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Real spectrum of a target, descending; unit top eigenvector in
    positive orientation; entropy of its squared entries."""

    eigenvalues: tuple[float, ...]
    top_eigenvector: tuple[float, ...]
    entropy: float


def spectral_data(target: TargetGraph) -> SpectralData:
    mat = np.array([[float(x) for x in row] for row in target.w])
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    top = vecs[:, 0]
    if top.sum() < 0:
        top = -top
    qs = top * top
    entropy = float(sum(-p * math.log(p) for p in qs if p > 1e-300))
    return SpectralData(tuple(float(v) for v in vals), tuple(float(x) for x in top), entropy)


def cycle_hom_spectral(length: int, target: TargetGraph) -> float:
    """hom(C_l, G) as the closed-walk count sum(lambda_i^l); advisory float,
    matches the exact count within relative 1e-6 for simple targets."""
    if length < 3:
        raise ValueError("cycles have length at least 3")
    sd = spectral_data(target)
    return float(sum(v ** length for v in sd.eigenvalues))


def tree_hom_lower_bound(n: int, target: TargetGraph) -> float:
    """exp(H) * lambda^(n-1): a lower bound for homomorphisms from any
    n-vertex tree into a connected target."""
    if n < 1:
        raise ValueError("trees need at least one vertex")
    if not target.is_connected():
        raise ValueError("tree bound needs a connected target (unique positive top eigenvector)")
    sd = spectral_data(target)
    return math.exp(sd.entropy) * sd.eigenvalues[0] ** (n - 1)


# Re-exported standard targets so counting callers rarely need graphs.*
HARD_CORE = hard_core_target()
WIDOM_ROWLINSON = widom_rowlinson_target()

__all__ = [
    "ChromPoly",
    "EMPTY_CONSTRAINT",
    "HARD_CORE",
    "HOM_GUARD_BITS",
    "IND_GUARD_VERTICES",
    "WR_GUARD_VERTICES",
    "CHROM_POLY_EDGE_GUARD",
    "IND_IN",
    "IND_OUT",
    "ListConstraint",
    "SizeGuardError",
    "SpectralData",
    "WIDOM_ROWLINSON",
    "WR_A",
    "WR_B",
    "WR_C",
    "chrom_eval",
    "chrom_poly",
    "cycle_chrom_formula",
    "cycle_hom_spectral",
    "hom_count",
    "ind_count",
    "path_ind_fib",
    "spectral_data",
    "tree_hom_lower_bound",
    "wr_count",
]
