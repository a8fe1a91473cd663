"""Exact counters.

Everything here is exact: integer arithmetic for every target, with one
Fraction at the end of hom_count.  Floating point appears only in the
spectral helpers, which feed advisory bounds, never verdicts.

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
    hard_core_target,
    identified_edges,
    mask_components,
    mask_vertices,
    widom_rowlinson_target,
)

HOM_GUARD_BITS = 64          # reject hom_count when n*log2(k) exceeds this
IND_GUARD_VERTICES = 40      # reject ind_count beyond this many vertices
WR_GUARD_VERTICES = 24       # reject wr_count beyond this many (2^n white sets)
CHROM_POLY_EDGE_GUARD = 40   # reject chrom_poly beyond this many edges
FOREST_MIN_VERTICES = 6      # below this, branching beats ind_count's forest DP


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

def _hom_plan(masks: tuple[int, ...], comp: int) -> tuple[list[int], list[list[int]]]:
    """BFS order of a component from a maximum-degree vertex (ties to the
    smallest id, neighbours ascending) and each vertex's earlier neighbours
    as positions: placed vertices border the frontier, so zeros prune early."""
    start = deg = -1
    m = comp
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        d = masks[v].bit_count()
        if d > deg:
            start, deg = v, d
    order = [start]
    pos = {start: 0}
    placed = 1 << start
    back: list[list[int]] = [[]]
    for u in order:
        new = masks[u] & ~placed
        while new:
            b = new & -new
            new ^= b
            w = b.bit_length() - 1
            earlier = masks[w] & placed
            ps = []
            while earlier:
                c = earlier & -earlier
                earlier ^= c
                ps.append(pos[c.bit_length() - 1])
            back.append(ps)
            pos[w] = len(order)
            order.append(w)
            placed |= b
    return order, back


def _hom_walk(back, choices, rows) -> int:
    """Sum over the maps of one planned component of the product of the
    integer entries on its edges, by backtracking in plan order without
    recursion: one choice iterator per depth, and weight[p] the product over
    the edges among the vertices placed before p.  The last vertex's
    compatible choices are summed in place, not descended into."""
    last = len(back) - 1
    assign = [0] * len(back)
    weight = [1] * len(back)
    its = [iter(choices[0])] + [None] * last
    total = 0
    p = 0
    while p >= 0:
        nbrs = back[p]
        for t in its[p]:
            row = rows[t]
            x = weight[p]
            for q in nbrs:
                x *= row[assign[q]]
            if x:
                if p == last:
                    total += x
                else:
                    assign[p] = t
                    p += 1
                    weight[p] = x
                    its[p] = iter(choices[p])
                    break
        else:
            p -= 1
    return total


def hom_count(
    g: Graph,
    target: TargetGraph,
    constraint: Optional[ListConstraint] = None,
    *,
    override_guard: bool = False,
) -> Fraction:
    """Weighted homomorphism count: sum over all maps respecting the
    constraint of the product of edge weights.  Exact: the entries are
    scaled to integers by D, the lcm of their denominators, so the search
    multiplies integers only and the count is total / D^m.  Counts per
    connected component of the source are multiplied."""
    k = target.k
    n = g.n
    if k > 1 and n * math.log2(k) > HOM_GUARD_BITS and not override_guard:
        raise SizeGuardError(f"hom_count guard: {n} vertices into {k} targets")
    c = constraint or EMPTY_CONSTRAINT
    c.validate(n, k)

    if k == 1:
        # the one map sends every vertex to the one target vertex: a
        # valid constraint allows it, and each edge weighs the loop
        return Fraction(target.w[0][0]) ** g.m
    if n == 0:
        return Fraction(1)
    rows, d = target.integer_rows
    full = tuple(range(k))
    masks = g.neighbor_masks
    total = 1
    for comp in mask_components(masks, (1 << n) - 1):
        order, back = _hom_plan(masks, comp)
        choices = [tuple(sorted(c.allowed[v])) if v in c.allowed else full for v in order]
        total *= _hom_walk(back, choices, rows)
        if not total:
            return Fraction(0)
    return Fraction(total, d ** g.m)


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

    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    poly = [1]
    iso = 0
    for comp in mask_components(masks, (1 << n) - 1):
        verts = mask_vertices(comp)
        cn = len(verts)
        degs = [masks[v].bit_count() for v in verts]
        ce = sum(degs) // 2
        if ce == 0:
            iso += 1
            continue
        if ce == cn - 1:
            cpoly = _tree_poly(cn)
        elif ce == cn and all(d == 2 for d in degs):
            cpoly = _cycle_poly(cn)
        else:
            # relabel the component to 0..cn-1 (order kept, so the edges
            # stay sorted) and recurse on delete/contract
            remap = {v: i for i, v in enumerate(verts)}
            cpoly = _chrom_del_con(cn, tuple((remap[u], remap[v]) for u, v in edges
                                             if comp >> u & 1), memo)
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
    contracted = identified_edges(deleted, *e)
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


def chrom_eval(g: Graph, q: int, poly: Optional[ChromPoly] = None, *,
               override_guard: bool = False) -> int:
    """ch(H, q): evaluated from the chromatic polynomial when one is given
    or when the polynomial guard allows building it or is overridden, else
    counted directly as homomorphisms into K_q under hom_count's guard.
    The two routes must agree (tested)."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    if poly is not None:
        return poly(q)
    if g.m <= CHROM_POLY_EDGE_GUARD or override_guard:
        return chrom_poly(g, override_guard=override_guard)(q)
    val = hom_count(g, complete_target(q))
    return int(val)


# ---------------------------------------------------------------------------
# Independent sets
# ---------------------------------------------------------------------------

def _ind_forest(nbr: tuple[int, ...], alive: int) -> int:
    """i of the subgraph induced on `alive` if it is a forest (a cycle is
    never stripped), else 0.  Leaves are stripped without recursion: out[v]
    and inn[v] count the sets of the trees stripped into v with v out and
    in; a tree's last vertex multiplies its count into the extra slot."""
    out = [1] * (len(nbr) + 1)
    inn = [1] * (len(nbr) + 1)
    leaves = [v for v in mask_vertices(alive) if (nbr[v] & alive).bit_count() < 2]
    while leaves:
        u = leaves.pop()
        alive ^= 1 << u
        p = (nbr[u] & alive).bit_length() - 1  # -1, the last slot, if none
        out[p] *= out[u] + inn[u]
        inn[p] *= out[u]
        if p >= 0 and (nbr[p] & alive).bit_count() == 1:
            leaves.append(p)
    return 0 if alive else out[-1]


def _ind_branch(nbr: tuple[int, ...], alive: int) -> int:
    """i(H) = i(H - v) + i(H - N[v]) on a maximum-degree vertex.  A matching
    of e edges and r other vertices has 3^e 2^r sets; with fewer edges than
    vertices, FOREST_MIN_VERTICES or more, _ind_forest is tried first, so a
    path or a cycle needs at most one branch."""
    best = bestd = degs = 0
    m = alive
    while m:
        b = m & -m
        m ^= b
        d = (nbr[b.bit_length() - 1] & alive).bit_count()
        degs += d
        if d > bestd:
            bestd = d
            best = b.bit_length() - 1
    v = alive.bit_count()
    if bestd <= 1:
        return 3 ** (degs >> 1) << (v - degs)
    if degs < 2 * v and v >= FOREST_MIN_VERTICES:
        forest = _ind_forest(nbr, alive)
        if forest:
            return forest
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

    masks = g.neighbor_masks
    forced_in = [v for v, ts in c.allowed.items() if IND_OUT not in ts]
    in_mask = sum(1 << v for v in forced_in)
    dead = in_mask
    for v, ts in c.allowed.items():
        if IND_IN not in ts:
            dead |= 1 << v
    for v in forced_in:
        if masks[v] & in_mask:
            return 0  # two adjacent vertices forced into the set
        dead |= masks[v]

    total = 1
    for comp in mask_components(masks, ((1 << g.n) - 1) & ~dead):
        total *= _ind_branch(masks, comp)
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

    full = (1 << g.n) - 1
    allow_a = allow_b = allow_c = full
    for v, ts in c.allowed.items():
        if WR_A not in ts:
            allow_a ^= 1 << v
        if WR_B not in ts:
            allow_b ^= 1 << v
        if WR_C not in ts:
            allow_c ^= 1 << v

    masks = g.neighbor_masks
    total = 0
    # iterate white sets B over subsets of the b-allowing vertices
    white = allow_b
    while True:
        prod = 1
        for comp in mask_components(masks, full & ~white):
            prod *= ((comp & ~allow_a) == 0) + ((comp & ~allow_c) == 0)
            if not prod:
                break
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
    if target.k == 0:
        raise ValueError("spectral data needs a target with at least one vertex")
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
