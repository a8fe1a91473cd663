"""Exact counters.

Everything here is exact: integer arithmetic for every target.  hom_count
returns an int for a target whose entries are all integers and a Fraction,
formed once at the end, for any other.  Floating point appears only in the
spectral helpers, which feed advisory bounds, never verdicts.

Routes are deliberately redundant: the generic homomorphism counter, the
chromatic polynomial via deletion-contraction, the independent-set
branching and the Widom-Rowlinson red-set sum are
four independent algorithms whose pairwise agreement is enforced by the
test suite.

The generic counter has two routes.  A target that is not 0/1, or has one
vertex, goes to hom_batch, variable elimination over a batch of integer
matrices, which the search's screen shares.  Any other target walks
popcounts on its support masks, which beats elimination on dense sources
whose counts are small.  The tests check the routes against each other,
against the other counters and against brute force.

The chromatic polynomial works on neighbour masks.  A simplicial vertex,
one whose neighbours form a clique, contributes a factor (q - d) for its d
neighbours and is removed (Read 1968); that alone takes forests and chordal
graphs apart.  What remains is relabelled by maximum cardinality search and
deleted and contracted from its lowest vertex on an explicit stack, memoised
per call on the masks (Haggard, Pearce & Royle 2010), with a closed form for
unions of cycles.  The independent-set count branches on whole graphs below
FOREST_MIN_VERTICES vertices, one call per branch, a pendant vertex taking
its neighbour with it, and per component above, on an explicit stack.
Each loop that can run long charges its steps' work to one STEP_BUDGET per
call; wr_count and hom_batch, whose costs are known at the start, are
refused then if over.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from string import ascii_letters
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
    mask_components,
    mask_vertices,
)

STEP_BUDGET = 1 << 22        # steps one counter call may take
FOREST_MIN_VERTICES = 8      # ind_count branches on the lowest vertex below this many


class SizeGuardError(ValueError):
    """Instance exceeds the desk-scale size guard or step budget."""


def _words(bits: int) -> int:
    # steps per mask operation: an AND and popcount on 2^16 bits take ~130x 64 bits
    return 1 + (bits >> 9)


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


EMPTY_CONSTRAINT = ListConstraint({})


# ---------------------------------------------------------------------------
# Homomorphism counting
# ---------------------------------------------------------------------------

def _hom_plan(masks: tuple[int, ...], comp: int) -> tuple[list[int], list[list[int]]]:
    """BFS order of a component from a maximum-degree vertex (ties to the
    smallest id, neighbours ascending) and each vertex's earlier neighbours
    as positions: placed vertices border the frontier, so zeros prune early."""
    start = max(mask_vertices(comp), key=lambda v: masks[v].bit_count())
    order = [start]
    pos = [0] * len(masks)
    placed = 1 << start
    back: list[list[int]] = [[]]
    for u in order:
        for w in mask_vertices(masks[u] & ~placed):
            back.append([pos[x] for x in mask_vertices(masks[w] & placed)])
            pos[w] = len(order)
            order.append(w)
            placed |= 1 << w
    return order, back


def _hom_walk(back, choices, supp: tuple[int, ...], left: int) -> tuple[int, int]:
    """(maps, budget left) for one planned component into a 0/1 target with
    support masks supp, backtracking in plan order without recursion.  The
    candidates of depth p are the bits of choices[p] ANDed with the support
    masks of the images of p's placed neighbours (a step each, and one
    more), so no dead end is entered; the last depth adds their popcount."""
    last = len(back) - 1
    if not last or not choices[0]:
        return choices[0].bit_count(), left
    cost = [(len(b) + 1) * _words(len(supp)) for b in back]
    img = [0] * last          # support mask of the image at each depth
    cand = [choices[0]] + [0] * (last - 1)
    total = 0
    p = 0
    while True:
        c = cand[p]
        rest = cand[p] = c & (c - 1)
        img[p] = supp[(c ^ rest).bit_length() - 1]
        nxt = p + 1
        left -= cost[nxt]
        if left < 0:
            raise SizeGuardError(f"hom_count guard: more than {STEP_BUDGET} steps")
        m = choices[nxt]
        for q in back[nxt]:
            m &= img[q]
        if nxt < last:
            if m:
                p = nxt
                cand[p] = m
                continue
        else:
            total += m.bit_count()
        while not cand[p]:
            if not p:
                return total, left
            p -= 1


def _min_degree_order(masks: tuple[int, ...]) -> list[tuple[int, int]]:
    """(v, mask of v's neighbours not yet eliminated) for every vertex, the
    least degree first (ties to the smallest id), each eliminated vertex's
    neighbours joined pairwise.  Stale heap entries are skipped."""
    adj = list(masks)
    heap = [(m.bit_count(), v) for v, m in enumerate(adj)]
    heapq.heapify(heap)
    alive = (1 << len(adj)) - 1
    steps = []
    while heap:
        d, v = heapq.heappop(heap)
        if alive >> v & 1 and adj[v].bit_count() == d:
            alive ^= 1 << v
            steps.append((v, adj[v]))
            for u in mask_vertices(adj[v]):
                adj[u] = (adj[u] | adj[v]) & alive & ~(1 << u)
                heapq.heappush(heap, (adj[u].bit_count(), u))
    return steps


def _contract(factors: list, out: tuple[int, ...]) -> np.ndarray:
    """One einsum over (scope, array) factors, batch axis first, keeping
    the batch and out; letters are local, so they bound the scope, not n."""
    letter = {u: ascii_letters[1 + i] for i, u in enumerate({u for s, _ in factors for u in s})}
    spec = ",".join("a" + "".join(letter[u] for u in s) for s, _ in factors)
    return np.einsum(spec + "->a" + "".join(letter[u] for u in out),
                     *(f for _, f in factors))


def hom_batch(g: Graph, w: np.ndarray,
              constraint: Optional[ListConstraint] = None) -> np.ndarray:
    """hom(g, W) for each integer matrix W of the batch w, shape (B, k, k),
    exact in w's dtype (int64, or object for Python ints), by variable
    elimination in min-degree order.  Each edge is a factor, each
    constrained vertex a 0/1 unary one, and each waits in the bucket of its
    first vertex in the order.  Eliminating v contracts its bucket by one
    einsum; an empty bucket is an isolated vertex, a factor k.  That sums
    over v and its d remaining neighbours, k**(d + 1) entries per matrix:
    past STEP_BUDGET the call is refused, and below it the batch goes in
    slices of as many entries."""
    b, k, _ = w.shape
    if k == 0:  # no map, but the empty one from a source with no vertices
        return np.full(b, int(g.n == 0), dtype=w.dtype)
    if k == 1:  # the one map: any valid constraint allows it; each edge weighs the loop
        return w[:, 0, 0] ** g.m
    steps = _min_degree_order(g.neighbor_masks)
    top = max((nb.bit_count() + 1 for _, nb in steps), default=0)
    if k ** top > STEP_BUDGET:
        raise SizeGuardError(f"hom_count guard: elimination sums over {k}^{top} entries")
    step = STEP_BUDGET // k ** top
    if b > step:
        return np.concatenate([hom_batch(g, w[i:i + step], constraint)
                               for i in range(0, b, step)])
    pos = {v: i for i, (v, _) in enumerate(steps)}
    buckets: list[list] = [[] for _ in steps]

    def put(scope: tuple[int, ...], f: np.ndarray) -> None:
        buckets[min(pos[u] for u in scope)].append((scope, f))

    for e in g.sorted_edges:
        put(e, w)
    for v, ts in (constraint or EMPTY_CONSTRAINT).allowed.items():
        put((v,), np.broadcast_to(np.array([int(t in ts) for t in range(k)], w.dtype), (b, k)))
    total = np.ones(b, dtype=w.dtype)
    for (v, _), ops in zip(steps, buckets):
        while len(ops) > 32:  # np.einsum's operand limit before numpy 2
            s = tuple(sorted({u for s, _ in ops[:31] for u in s}))
            ops[:31] = [(s, _contract(ops[:31], s))]
        out = tuple(sorted({u for s, _ in ops for u in s} - {v}))
        f = _contract(ops, out) if ops else k
        if out:
            put(out, f)
        else:
            total = total * f
    return total


def hom_count(g: Graph, target: TargetGraph,
              constraint: Optional[ListConstraint] = None) -> int | Fraction:
    """Weighted homomorphism count: sum over all maps respecting the
    constraint of the product of edge weights, exact: an int when every
    entry of the target is an integer, else a Fraction, whatever the source
    and the value.  A target that is not 0/1, or has one vertex, goes to
    hom_batch as one matrix of Python ints, its entries scaled by D, the
    lcm of their denominators, so the count is total / D^m (the int total
    when D is 1).  Any other target is counted by _hom_walk on each
    component of the source, on the support masks, with the allowed sets
    as one bitmask per vertex; the components share one STEP_BUDGET."""
    k = target.k
    n = g.n
    c = constraint or EMPTY_CONSTRAINT
    c.validate(n, k)

    if k == 1 or not target.is_simple:
        rows, d = target.integer_rows
        got = hom_batch(g, np.array([rows], dtype=object), c)
        return int(got[0]) if d == 1 else Fraction(int(got[0]), d ** g.m)
    allowed = {v: sum(1 << t for t in ts) for v, ts in c.allowed.items()}
    full = (1 << k) - 1
    masks = g.neighbor_masks
    total = 1
    left = STEP_BUDGET
    for comp in mask_components(masks, (1 << n) - 1):
        order, back = _hom_plan(masks, comp)
        choices = [allowed.get(v, full) for v in order] if allowed else [full] * len(order)
        part, left = _hom_walk(back, choices, target.support_masks, left)
        total *= part
        if not total:
            return 0
    return total


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


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _psub(a: list[int], b: list[int]) -> list[int]:
    # a - b, b no longer than a: P(G - uv) has one vertex more than P(G / uv)
    out = list(a)
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _qminus_pow(d: int, m: int) -> list[int]:
    # coefficients of (q-d)^m: C(m, i) (-d)^i at q^(m-i), each from the last
    out = [0] * (m + 1)
    c = 1
    for i in range(m + 1):
        out[m - i] = c
        c = c * (m - i) * -d // (i + 1)
    return out


def _cycle_poly(length: int) -> list[int]:
    # (q-1)^l + (-1)^l (q-1)
    out = _qminus_pow(1, length)
    s = (-1) ** length
    out[0] += -s
    out[1] += s
    return out


def _simplicial(masks: list[int], live: int, seeds: list[int], factors: list[int]) -> int:
    """Remove simplicial vertices, those whose neighbours form a clique,
    from the graph induced on live, starting from the vertices in seeds:
    each appends its degree d to factors, for a factor (q - d), and puts its
    neighbours back in question.  Returns what is left of live."""
    while seeds:
        v = seeds.pop()
        nb = masks[v]
        if not live >> v & 1:
            continue
        m = nb
        while m:
            b = m & -m
            m ^= b
            if nb & ~b & ~masks[b.bit_length() - 1]:
                break
        else:
            factors.append(nb.bit_count())
            live ^= 1 << v
            masks[v] = 0
            keep = ~(1 << v)
            for c in mask_vertices(nb):
                masks[c] &= keep
                seeds.append(c)
    return live


def _times_roots(poly: list[int], roots: list[int]) -> list[int]:
    """poly times (q - d) for each d of roots, (q - d)^m at once for a
    root repeated m times."""
    for d in set(roots):
        f = _qminus_pow(d, roots.count(d))
        poly = _pmul(poly, f) if len(poly) > 1 else f
    return poly


def _search_order(masks: list[int], live: int, left: int) -> tuple[list[int], int]:
    """(order, budget left): the live vertices by maximum cardinality
    search, each next one with the most placed neighbours (a step per vertex
    weighed), ties to the fewest unplaced ones, so that few placed vertices
    keep unplaced neighbours, then to the lowest id.  Deletion-contraction
    in such an order meets a graph through many branches; the memo holds it once."""
    order = []
    placed = near = 0
    rest = live
    w = _words(live.bit_length())
    while rest:
        best = key = None
        # a vertex next to none placed never wins over one next to some
        scan = near & rest or rest
        left -= scan.bit_count() * w
        if left < 0:
            raise SizeGuardError(f"chrom_poly guard: more than {STEP_BUDGET} steps")
        for v in mask_vertices(scan):
            k = ((masks[v] & placed).bit_count(), -(masks[v] & rest).bit_count())
            if key is None or k > key:
                best, key = v, k
        order.append(best)
        placed |= 1 << best
        rest ^= 1 << best
        near |= masks[best]
    return order, left


def _chrom_stack(masks: list[int], live: int, left: int) -> list[int]:
    """Chromatic polynomial of the graph induced on the vertex mask live,
    masks[v] being v's live neighbours, by deletion-contraction on a stack.
    A task (masks, live, seeds), where only seeds may be simplicial, removes
    the simplicial vertices, then answers from the memo on (live, masks) or
    the closed form for a union of cycles, or splits on the edge from v, the
    lowest live vertex, to its highest neighbour u (G / uv merges v into u)
    and pushes a task (key, factors) that pops P(G / uv) and P(G - uv)."""
    memo: dict = {}
    done: list[list[int]] = []
    todo: list[tuple] = [(masks, live, [])]
    cost = len(masks) * _words(len(masks))  # a task copies and hashes every mask
    while todo:
        task = todo.pop()
        if len(task) == 2:
            key, factors = task
            contracted = done.pop()
            poly = memo[key] = _psub(done.pop(), contracted)
        else:
            left -= cost
            if left < 0:
                raise SizeGuardError(f"chrom_poly guard: more than {STEP_BUDGET} steps")
            masks, live, seeds = task
            factors = []
            live = _simplicial(masks, live, seeds, factors)
            key = (live, tuple(masks))
            poly = memo.get(key) if live else [1]
            if poly is None:
                rest = live  # every degree is at least 2; stop at one that is not 2
                while rest and masks[(rest & -rest).bit_length() - 1].bit_count() == 2:
                    rest &= rest - 1
                if not rest:
                    poly = [1]
                    for comp in mask_components(masks, live):
                        poly = _pmul(poly, _cycle_poly(comp.bit_count()))
                    memo[key] = poly
            if poly is None:
                bv = live & -live
                v = bv.bit_length() - 1
                nv = masks[v]
                u = nv.bit_length() - 1
                bu = 1 << u
                deleted = list(masks)
                deleted[v] ^= bu
                deleted[u] ^= bv
                nv ^= bu
                for w in mask_vertices(nv):
                    masks[w] = masks[w] & ~bv | bu
                masks[u] = (masks[u] | nv) & ~bv
                masks[v] = 0
                todo += [(key, factors), (masks, live ^ bv, [u, *mask_vertices(nv)]),
                         (deleted, live, [u, v])]  # popped first, as in a recursion
                continue
        done.append(_times_roots(poly, factors))
    return done.pop()


def chrom_poly(g: Graph) -> ChromPoly:
    """Exact chromatic polynomial: simplicial vertices go first
    (_simplicial), then deletion-contraction (_chrom_stack) on the rest,
    relabelled in _search_order, under one STEP_BUDGET; memo per call."""
    masks = list(g.neighbor_masks)
    factors: list[int] = []
    live = _simplicial(masks, (1 << g.n) - 1, list(range(g.n)), factors)
    poly = [1]
    if live:
        order, left = _search_order(masks, live, STEP_BUDGET)
        pos = {v: i for i, v in enumerate(order)}
        poly = _chrom_stack([sum(1 << pos[w] for w in mask_vertices(masks[v])) for v in order],
                            (1 << len(order)) - 1, left)
    return ChromPoly(tuple(_times_roots(poly, factors)))


def chrom_eval(g: Graph, q: int) -> int:
    """ch(H, q), the chromatic polynomial evaluated at q."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    return chrom_poly(g)(q)


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


def _ind_small(nbr: tuple[int, ...], alive: int) -> int:
    """i of the subgraph induced on `alive`, fewer than FOREST_MIN_VERTICES
    vertices, by i(H) = i(H - v) + i(H - N[v]) on the lowest vertex v, with
    no degree scan and one call per branch: the loop goes on over H - v
    and one call adds f i(H - N[v]), f the factor the loop carries.  An
    isolated v doubles f.  A pendant v, whose one neighbour is u, takes u
    with it: with A = H - v - u, i(H) = 2 i(A) + i(A - N(u)), so the call
    adds f i(A - N(u)) and the loop goes on over A with f doubled.  Each
    call drops at least two vertices, so depth stays below
    FOREST_MIN_VERTICES / 2."""
    f = 1
    total = 0
    while alive:
        b = alive & -alive
        alive ^= b
        near = nbr[b.bit_length() - 1] & alive
        if near:
            if near & (near - 1):
                total += f * _ind_small(nbr, alive & ~near)
                continue
            alive ^= near
            total += f * _ind_small(nbr, alive & ~nbr[near.bit_length() - 1])
        f <<= 1
    return total + f


def _ind_branch(nbr: tuple[int, ...], alive: int, left: int) -> tuple[int, int]:
    """i(H) = i(H - v) + i(H - N[v]) on a maximum-degree vertex, as a sum
    over an explicit stack of vertex masks (a step per vertex scanned), so
    no input recurses, and what is left of the step budget left.  Fewer
    than FOREST_MIN_VERTICES vertices go to _ind_small.  With fewer edges
    than vertices, _ind_forest is tried first, so a forest (a matching
    among them) needs no branch and a path or a cycle at most one."""
    total = 0
    stack = [alive]
    w = _words(alive.bit_length())
    while stack:
        alive = stack.pop()
        v = alive.bit_count()
        left -= v * w
        if left < 0:
            raise SizeGuardError(f"ind_count guard: more than {STEP_BUDGET} steps")
        if v < FOREST_MIN_VERTICES:
            total += _ind_small(nbr, alive)
            continue
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
        if degs < 2 * v:
            forest = _ind_forest(nbr, alive)
            if forest:
                total += forest
                continue
        b = 1 << best
        stack += (alive ^ b, alive & ~(nbr[best] | b))
    return total, left


def ind_count(g: Graph, constraint: Optional[ListConstraint] = None) -> int:
    """Number of independent sets compatible with the constraint (targets
    are subsets of {IND_OUT, IND_IN} of the hard-core target).  A
    constraint removes its forced-out vertices and the closed
    neighbourhoods of its forced-in ones.  Fewer than FOREST_MIN_VERTICES
    vertices left go to _ind_small whole; otherwise _ind_branch counts each
    connected component of the rest, all within one STEP_BUDGET.  Equals
    hom_count against the hard-core target."""
    masks = g.neighbor_masks
    alive = (1 << g.n) - 1
    if constraint is not None:
        constraint.validate(g.n, 2)
        forced_in = [v for v, ts in constraint.allowed.items() if IND_OUT not in ts]
        in_mask = dead = sum(1 << v for v in forced_in)
        for v, ts in constraint.allowed.items():
            if IND_IN not in ts:
                dead |= 1 << v
        for v in forced_in:
            if masks[v] & in_mask:
                return 0  # two adjacent vertices forced into the set
            dead |= masks[v]
        alive &= ~dead

    if alive.bit_count() < FOREST_MIN_VERTICES:
        return _ind_small(masks, alive)
    total = 1
    left = STEP_BUDGET
    for comp in mask_components(masks, alive):
        part, left = _ind_branch(masks, comp, left)
        total *= part
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

def wr_count(g: Graph, constraint: Optional[ListConstraint] = None) -> int:
    """Red/white/blue colorings where red and blue are never adjacent,
    restricted by the constraint (targets WR_A red, WR_B white, WR_C blue).

    Counts by summing over red sets R, per component: N(R) - R must be
    white and every other vertex is white or blue, so R adds 2 to the
    power of the number of those free vertices that allow both, or 0 when
    a vertex of N(R) - R may not be white or a free vertex allows neither.
    A red set is a step, so past STEP_BUDGET the call is refused before
    any is summed.  Independent of (and checked against) hom_count."""
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
    not_b = full & ~allow_b
    neither = full & ~(allow_b | allow_c)
    both = allow_b & allow_c

    masks = g.neighbor_masks
    if _words(g.n) << g.n > STEP_BUDGET:  # the cost is at most that
        cost = sum(_words(comp.bit_length()) << (comp & allow_a).bit_count()
                   for comp in mask_components(masks, full))
        if cost > STEP_BUDGET:
            raise SizeGuardError(f"wr_count guard: more than {STEP_BUDGET} steps")
    total = 1
    for comp in mask_components(masks, full):
        reds = mask_vertices(comp & allow_a)
        # (R, N[R]) for every red set R of the first 12 red vertices; the
        # red sets of the other ones are walked, so the table stays small
        table = [(0, 0)]
        for v in reds[:12]:
            b = 1 << v
            table += [(r | b, nr | b | masks[v]) for r, nr in table]
        rest = sum(1 << v for v in reds[12:])
        hi = part = 0
        while True:
            near = hi
            for v in mask_vertices(hi):
                near |= masks[v]
            free = comp & both & ~near
            wall = not_b & ~hi              # no white: red or outside N[R]
            lone = neither & comp & ~near   # no white or blue: inside N[R]
            part += sum(1 << (free & ~nr).bit_count() for r, nr in table
                        if not (wall and (nr | near) & wall & ~r or lone and lone & ~nr))
            if hi == rest:
                break
            hi = (hi - rest) & rest
        total *= part
        if not total:
            return 0
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


__all__ = [
    "ChromPoly",
    "EMPTY_CONSTRAINT",
    "IND_IN",
    "IND_OUT",
    "ListConstraint",
    "SizeGuardError",
    "SpectralData",
    "WR_A",
    "WR_B",
    "WR_C",
    "chrom_eval",
    "chrom_poly",
    "cycle_chrom_formula",
    "cycle_hom_spectral",
    "hom_batch",
    "hom_count",
    "ind_count",
    "path_ind_fib",
    "spectral_data",
    "tree_hom_lower_bound",
    "wr_count",
]
