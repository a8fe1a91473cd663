"""Simple graphs, weighted targets, and the structural utilities everything
else builds on.

Vertices are always 0..n-1.  ``Graph`` is a finite simple graph (no loops, no
parallel edges); ``TargetGraph`` is a symmetric matrix of nonnegative exact
rationals, diagonal entries being loop weights.  Both are immutable values:
edge deletion, contraction etc. return new objects, so any number of
operations may run concurrently on shared inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

Edge = tuple[int, int]


class ParseError(ValueError):
    """Malformed graph or target text; names the offending line or byte."""


# an edgelist header may name at most this many vertices: a Graph builds one
# neighbour mask per vertex, before any counter's size guard runs
EDGELIST_MAX_VERTICES = 1 << 16


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, init=False)
class Graph:
    """Finite simple graph on vertices 0..n-1, stored as its neighbour
    masks: bit u of neighbor_masks[v] is set when uv is an edge.  The
    normalized edge set (every pair as (min, max)) is derived from the
    masks on first read and cached.  Equality, hashing, repr and pickling
    are those of the value (n, edges), which the masks determine."""

    n: int
    neighbor_masks: tuple[int, ...]

    def __init__(self, n: int, edges: frozenset[Edge]):
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        masks, edges = [0] * n, frozenset(edges)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u},{v}) out of range or not normalized for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.__dict__.update(n=n, neighbor_masks=tuple(masks), edges=edges)

    @staticmethod
    def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return Graph(n, frozenset(_norm(u, v) for u, v in pairs))

    @staticmethod
    def trusted(n: int, neighbor_masks: tuple[int, ...]) -> "Graph":
        """The graph with these neighbour masks, without validation, for
        callers whose masks are symmetric and loop-free by construction
        (``classes.mask_graphs``)."""
        g = object.__new__(Graph)
        fields = g.__dict__
        fields["n"], fields["neighbor_masks"] = n, neighbor_masks
        return g

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def __repr__(self) -> str:
        # the edges sorted: a frozenset prints in an order that depends on
        # how it was built, so equal graphs could print differently
        edges = ", ".join(map(repr, self.sorted_edges))
        return f"Graph(n={self.n}, edges=frozenset({'{' + edges + '}' if edges else ''}))"

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.neighbor_masks)) >> 1

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, mask in enumerate(self.neighbor_masks)
                         for v in mask_vertices(mask >> u + 1 << u + 1))

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.neighbor_masks), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm(u, v) in self.edges

    def add_edge(self, u: int, v: int) -> "Graph":
        e = _norm(u, v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if e in self.edges:
            raise ValueError(f"edge {e} already present")
        return Graph(self.n, self.edges | {e})

    def delete_edge(self, u: int, v: int) -> "Graph":
        e = _norm(u, v)
        if e not in self.edges:
            raise ValueError(f"edge {e} not present")
        return Graph(self.n, self.edges - {e})

    def delete_vertices(self, vs: Iterable[int]) -> "Graph":
        """Induced subgraph on the remaining vertices, ids renumbered to
        0..n-k-1 preserving relative order."""
        dead = set(vs)
        for v in dead:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
        keep = [v for v in range(self.n) if v not in dead]
        remap = {v: i for i, v in enumerate(keep)}
        new_edges = [
            (remap[u], remap[v]) for u, v in self.edges if u not in dead and v not in dead
        ]
        return Graph.from_edges(len(keep), new_edges)

    def is_connected(self) -> bool:
        return _spans(self.neighbor_masks)


@dataclass(frozen=True)
class Bipartition:
    """A proper 2-coloring: every edge crosses left-right."""

    left: frozenset[int]
    right: frozenset[int]


@dataclass(frozen=True)
class TargetGraph:
    """Symmetric k x k matrix of nonnegative exact rationals; diagonal
    entries are loop weights.  A simple target has entries in {0,1}.  The
    cached properties are functions of w alone, and no counter writes to
    a target."""

    w: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.w)
        for i, row in enumerate(self.w):
            if len(row) != k:
                raise ValueError(f"row {i} has length {len(row)}, expected {k}")
            for j, x in enumerate(row):
                if x < 0:
                    raise ValueError(f"negative weight at ({i},{j})")
                if self.w[j][i] != x:
                    raise ValueError(f"asymmetric weights at ({i},{j})")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "TargetGraph":
        return TargetGraph(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def k(self) -> int:
        return len(self.w)

    @cached_property
    def edge_weight_sum(self) -> Fraction:
        """Sum over ordered pairs: loops count once, other edges twice.
        Equals hom(K_2, .)"""
        return sum((x for row in self.w for x in row), Fraction(0))

    @cached_property
    def is_simple(self) -> bool:
        return all(x == 0 or x == 1 for row in self.w for x in row)

    @cached_property
    def integer_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, D): every entry times D, the lcm of all denominators, as
        an integer.  D is 1 for a target with integer entries."""
        d = math.lcm(*(x.denominator for row in self.w for x in row))
        return tuple(tuple(int(x * d) for x in row) for row in self.w), d

    @cached_property
    def support_masks(self) -> tuple[int, ...]:
        """Bit j of entry t is set when the entry (t, j) is nonzero."""
        return tuple(sum(1 << j for j, x in enumerate(row) if x) for row in self.w)

    def is_connected(self) -> bool:
        """Connectivity of the support graph (loops join nothing)."""
        return _spans([sum(1 << j for j, x in enumerate(row) if x and j != i)
                       for i, row in enumerate(self.w)])

    def describe(self) -> str:
        if self.is_simple:
            loops = sum(1 for i in range(self.k) if self.w[i][i] == 1)
            return f"simple k={self.k} loops={loops} S={self.edge_weight_sum}"
        return f"weighted k={self.k} S={self.edge_weight_sum}"


# ---------------------------------------------------------------------------
# Standard graphs and targets
# ---------------------------------------------------------------------------

def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cube_graph() -> Graph:
    """Q_3: vertices are 3-bit strings, edges flip one bit."""
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            if v < v ^ b:
                edges.append((v, v ^ b))
    return Graph.from_edges(8, edges)


def complete_target(q: int) -> TargetGraph:
    """K_q as a 0/1 target (no loops); hom(H, K_q) counts proper q-colorings.
    Built without re-validation and with is_simple, support_masks and
    edge_weight_sum set: the entries are 0/1 and symmetric by construction,
    and scans of the q^2 Fraction entries would dominate the cost of a
    large K_q."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    ones = (Fraction(1),) * q
    zero = (Fraction(0),)
    full = (1 << q) - 1
    t = object.__new__(TargetGraph)
    t.__dict__.update(w=tuple(ones[:i] + zero + ones[i + 1:] for i in range(q)), is_simple=True,
                      support_masks=tuple(full ^ 1 << i for i in range(q)),
                      edge_weight_sum=Fraction(q * (q - 1)))
    return t


# Hard-core target: K_2 with a loop at vertex 0.  A map hits an independent
# set exactly where it takes the loopless vertex 1.
IND_OUT = 0
IND_IN = 1


def hard_core_target() -> TargetGraph:
    return TargetGraph.from_rows([[1, 1], [1, 0]])


# Widom-Rowlinson target: path a-b-c with a loop at every vertex.  a and c
# (red/blue) are the non-adjacent end colors, b (white) the middle.
WR_A = 0
WR_B = 1
WR_C = 2


def widom_rowlinson_target() -> TargetGraph:
    return TargetGraph.from_rows([[1, 1, 0], [1, 1, 1], [0, 1, 1]])


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def _content_lines(text: str, empty: str) -> list[tuple[int, str]]:
    """(line number, text) of each line left once '#' comments and blank
    lines are cut; ParseError(empty) when none is left."""
    cut = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    rows = [(lineno, line) for lineno, line in enumerate(cut, start=1) if line]
    if not rows:
        raise ParseError(empty)
    return rows


def parse_edgelist(text: str) -> Graph:
    """Parse the "n m" header format: m lines "u v", 0-based ids,
    '#' starts a comment."""
    rows = _content_lines(text, "empty input, expected 'n m' header")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header must be two integers, got {header!r}") from None
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative count in header")
    if n > EDGELIST_MAX_VERTICES:
        raise ParseError(f"line {lineno}: header names {n} vertices, "
                         f"more than {EDGELIST_MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(rows) - 1} edge lines")
    edges = set()
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: edge line must be 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: edge line must be two integers, got {line!r}") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex id out of range 0..{n - 1}")
        e = _norm(u, v)
        if e in edges:
            raise ParseError(f"line {lineno}: duplicate edge {e}")
        edges.add(e)
    return Graph(n, frozenset(edges))


def to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges]
    return "\n".join(lines) + "\n"


def _g6_encode_n(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126]) + bytes(((n >> (6 * i)) & 63) + 63 for i in range(5, -1, -1))
    raise ValueError("graph too large for graph6")


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Returns (n, bytes consumed)."""
    if not data:
        raise ParseError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise ParseError("truncated graph6 vertex count")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        return n, 4
    if len(data) < 8:
        raise ParseError("truncated graph6 vertex count")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, 8


def parse_graph6(text: str) -> Graph:
    """Header-free graph6: bytes 63..126, upper triangle packed column-wise
    in 6-bit groups."""
    s = text.strip()
    data = s.encode("ascii", errors="replace")
    for pos, b in enumerate(data):
        if not (63 <= b <= 126):
            raise ParseError(f"byte {pos}: value {b} outside graph6 range 63..126")
    n, used = _g6_decode_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[used:]
    if len(body) != nbytes:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {nbytes} for n={n}")
    bits = []
    for b in body:
        x = b - 63
        bits.extend((x >> shift) & 1 for shift in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


def to_graph6(g: Graph) -> str:
    out = bytearray(_g6_encode_n(g.n))
    masks = g.neighbor_masks
    bits = [masks[j] >> i & 1 for j in range(1, g.n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    for p in range(0, len(bits), 6):
        x = 0
        for b in bits[p:p + 6]:
            x = (x << 1) | b
        out.append(x + 63)
    return out.decode("ascii")


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "edgelist":
        return parse_edgelist(text)
    if fmt == "graph6":
        return parse_graph6(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def parse_target(text: str) -> TargetGraph:
    """Target file: first a vertex count k, then k rows of k entries, each an
    integer or 'p/q' rational; whitespace separated, '#' comments allowed."""
    rows = _content_lines(text, "empty target input")
    lineno, header = rows[0]
    try:
        k = int(header)
    except ValueError:
        raise ParseError(f"line {lineno}: expected vertex count, got {header!r}") from None
    if k < 0:
        raise ParseError(f"line {lineno}: negative vertex count")
    if len(rows) - 1 != k:
        raise ParseError(f"expected {k} matrix rows, found {len(rows) - 1}")
    mat = []
    for i, (lineno, line) in enumerate(rows[1:]):
        parts = line.split()
        if len(parts) != k:
            raise ParseError(f"line {lineno}: expected {k} entries, got {len(parts)}")
        row = []
        for tok in parts:
            try:  # integers and p/q only: Fraction would also take 1e30000000
                if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", tok):
                    raise ValueError(tok)
                row.append(Fraction(tok))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {lineno}: bad rational {tok!r}") from None
        mat.append(row)
    try:
        return TargetGraph.from_rows(mat)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def to_target_text(t: TargetGraph) -> str:
    lines = [str(t.k)]
    for row in t.w:
        lines.append(" ".join(str(x) if x.denominator > 1 else str(x.numerator) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

def mask_components(masks: Sequence[int], alive: int) -> Iterator[int]:
    """The components of the subgraph induced on the vertex mask `alive`,
    as vertex masks, lowest vertex first; masks[v] is v's neighbour mask."""
    while alive:
        comp = frontier = alive & -alive
        alive ^= comp
        while frontier:
            grow = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grow |= masks[b.bit_length() - 1]
            frontier = grow & alive
            alive ^= frontier
            comp |= frontier
        yield comp


def mask_vertices(mask: int) -> list[int]:
    """The set bits of a vertex mask, ascending."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def _spans(masks: Sequence[int]) -> bool:
    """Whether the graph with these neighbour masks is connected (the
    empty graph is)."""
    full = (1 << len(masks)) - 1
    return next(mask_components(masks, full), full) == full


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by minimum."""
    return [mask_vertices(c) for c in mask_components(g.neighbor_masks, (1 << g.n) - 1)]


def bipartition(g: Graph) -> Optional[Bipartition]:
    """Deterministic bipartition: the smallest vertex of each component goes
    left and BFS layers alternate sides.  None when the graph has an odd
    cycle, which is exactly an edge inside one layer."""
    masks = g.neighbor_masks
    sides = [0, 0]
    for comp in mask_components(masks, (1 << g.n) - 1):
        layer, side = comp & -comp, 0
        while layer:
            sides[side] |= layer
            comp ^= layer
            grow = 0
            for v in mask_vertices(layer):
                if masks[v] & layer:
                    return None
                grow |= masks[v]
            layer, side = grow & comp, 1 - side
    return Bipartition(frozenset(mask_vertices(sides[0])), frozenset(mask_vertices(sides[1])))


def identified_edges(edges: Iterable[Edge], u: int, v: int) -> tuple[Edge, ...]:
    """The sorted edges of H/uv for u < v: v merges into u, ids above v
    move down by one, the loop uv would become is dropped and parallels
    collapse."""
    merged = set()
    for a, b in edges:
        a2 = u if a == v else (a - 1 if a > v else a)
        b2 = u if b == v else (b - 1 if b > v else b)
        if a2 != b2:
            merged.add((a2, b2) if a2 < b2 else (b2, a2))
    return tuple(sorted(merged))


def identify_vertices(g: Graph, u: int, v: int) -> Graph:
    """Merge the larger of u, v into the smaller (any loop this creates is
    dropped, parallels collapse), then renumber preserving order.  The
    chromatic identification H/uv."""
    if u == v:
        raise ValueError("cannot identify a vertex with itself")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"vertex pair ({u},{v}) out of range")
    return Graph(g.n - 1, frozenset(identified_edges(g.edges, min(u, v), max(u, v))))


def _find_even_cycle(masks: Sequence[int], alive: int, max_len: int) -> Optional[tuple[int, ...]]:
    """Shortest even cycle of length <= max_len inside the vertex mask
    `alive`, then the lexicographically least traversal from its least
    vertex s: the first cycle met by a depth-first walk without recursion
    that takes ascending choices, one choice iterator per depth, among the
    vertices above s that are `free` (not on the path).  No length past
    the number of vertices in `alive` is tried."""
    for t in range(4, min(max_len, alive.bit_count()) + 1, 2):
        for s in mask_vertices(alive):
            path = [s] * t
            free = alive & -(2 << s)
            its = [iter(mask_vertices(masks[s] & free))]
            while its:
                for v in its[-1]:
                    p = len(its)
                    path[p] = v
                    if p < t - 2:
                        free ^= 1 << v
                        its.append(iter(mask_vertices(masks[v] & free)))
                        break
                    close = masks[v] & masks[s] & free
                    if close:
                        path[-1] = (close & -close).bit_length() - 1
                        return tuple(path)
                else:
                    its.pop()
                    free |= 1 << path[len(its)]
    return None


def greedy_cycle_packing(g: Graph, max_len: int) -> list[tuple[int, ...]]:
    """Vertex-disjoint even cycles of length <= max_len: repeatedly take a
    shortest even cycle among the remaining vertices and remove it.  Not a
    maximum packing, but any valid packing is enough for the bounds built
    on it."""
    if max_len < 4:
        raise ValueError("even cycles need max_len >= 4")
    alive = (1 << g.n) - 1
    cycles = []
    while True:
        c = _find_even_cycle(g.neighbor_masks, alive, max_len)
        if c is None:
            return cycles
        cycles.append(c)
        alive ^= sum(1 << v for v in c)


def cycle_edges(cycle: tuple[int, ...]) -> list[Edge]:
    return [_norm(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, None if acyclic.  Around every root, an
    edge inside BFS layer d closes a cycle of length at most 2d+1, and a
    vertex of layer d+1 with two neighbours in layer d one of at most 2d+2;
    a root on a shortest cycle attains the bound."""
    masks = g.neighbor_masks
    best: Optional[int] = None
    for s in range(g.n):
        seen = layer = 1 << s
        d = 0
        while layer and (best is None or 2 * d + 1 < best):
            inside = twice = grow = 0
            for v in mask_vertices(layer):
                inside |= masks[v] & layer
                twice |= masks[v] & grow
                grow |= masks[v]
            if inside:
                best = 2 * d + 1
            elif twice & ~seen:
                best = 2 * d + 2
            layer = grow & ~seen
            seen |= layer
            d += 1
    return best
