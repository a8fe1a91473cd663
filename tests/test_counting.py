import itertools
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homverify.graphs import (
    Graph,
    TargetGraph,
    complete_graph,
    complete_target,
    cycle_graph,
    empty_graph,
    hard_core_target,
    path_graph,
    widom_rowlinson_target,
)
from homverify import counting
from homverify.counting import (
    FOREST_MIN_VERTICES,
    IND_IN,
    IND_OUT,
    WR_A,
    WR_B,
    WR_C,
    ListConstraint,
    SizeGuardError,
    chrom_eval,
    chrom_poly,
    cycle_chrom_formula,
    cycle_hom_spectral,
    hom_batch,
    hom_count,
    ind_count,
    path_ind_fib,
    spectral_data,
    tree_hom_lower_bound,
    wr_count,
)

from conftest import (
    all_graphs,
    brute_chrom,
    brute_hom,
    brute_ind,
    brute_wr,
    graphs,
    graphs_with_edge,
    weighted_targets,
)

HC = hard_core_target()
WR = widom_rowlinson_target()


# ---------------------------------------------------------------------------
# hom_count
# ---------------------------------------------------------------------------

def test_hom_anchor_values():
    assert hom_count(Graph(1, frozenset()), complete_target(5)) == 5
    assert hom_count(path_graph(2), WR) == 7
    assert hom_count(cycle_graph(4), complete_target(3)) == 18 == brute_hom(cycle_graph(4), complete_target(3))
    # closed form for even cycles into K_q: (q-1)^l + (q-1)
    assert 18 == 2 ** 4 + 2


def test_hom_exhaustive_small():
    targets = [complete_target(2), complete_target(3), HC, WR]
    for n in range(5):
        for g in all_graphs(n):
            for t in targets:
                assert hom_count(g, t) == brute_hom(g, t)


@given(graphs(max_n=5), weighted_targets())
@settings(max_examples=120, deadline=None)
def test_hom_weighted_matches_brute(g, t):
    assert hom_count(g, t) == brute_hom(g, t)


@given(graphs(max_n=6), weighted_targets(max_k=2))
@settings(max_examples=80, deadline=None)
def test_hom_factorized_matches_naive_six_vertices(g, t):
    # component factorization against the single-pass full enumeration
    assert hom_count(g, t) == brute_hom(g, t)


@given(graphs_with_edge(max_n=5))
@settings(max_examples=60, deadline=None)
def test_hom_constraint_matches_brute(ge):
    g, (u, v) = ge
    c = ListConstraint({u: {0}, v: {0, 2}})
    assert hom_count(g, WR, c) == brute_hom(g, WR, c)


@st.composite
def scaled_targets(draw, integers: bool):
    """Targets on 2 or 3 vertices whose entries have denominators 1, 3 and
    7 (D up to 21), or, with `integers`, are integers up to 5: D = 1 but
    not a 0/1 target."""
    k = draw(st.integers(2, 3))
    dens = (1,) if integers else (1, 3, 7)
    entry = st.builds(Fraction, st.integers(0, 5), st.sampled_from(dens))
    mat = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            mat[i][j] = mat[j][i] = draw(entry)
    return TargetGraph(tuple(tuple(row) for row in mat))


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("integers", [False, True])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hom_integer_scaling_matches_brute(integers, constrained, data):
    g = data.draw(graphs(max_n=5))
    t = data.draw(scaled_targets(integers))
    c = None
    if constrained and g.n:
        v = data.draw(st.integers(0, g.n - 1))
        c = ListConstraint({v: data.draw(st.sets(st.integers(0, t.k - 1), min_size=1))})
    assert hom_count(g, t, c) == brute_hom(g, t, c)


def test_hom_integer_scaling_anchor():
    # entries 1/3, 2/7 and 3: D = 21, and the path P3 has two edges
    t = TargetGraph.from_rows([[Fraction(1, 3), Fraction(2, 7)], [Fraction(2, 7), 3]])
    assert t.integer_rows == (((7, 6), (6, 63)), 21)
    want = sum(t.w[a][b] * t.w[b][c] for a in range(2) for b in range(2) for c in range(2))
    assert hom_count(path_graph(3), t) == want


def test_support_masks():
    assert HC.support_masks == (0b11, 0b01)
    assert WR.support_masks == (0b011, 0b111, 0b110)
    half = TargetGraph.from_rows([[0, Fraction(1, 2)], [Fraction(1, 2), 3]])
    assert half.support_masks == (0b10, 0b11)


def _doubled(t: TargetGraph) -> TargetGraph:
    return TargetGraph(tuple(tuple(2 * x for x in row) for row in t.w))


def _random_graph(seed: int, min_n: int, max_n: int, max_m: int) -> Graph:
    # n vertices in min_n..max_n and between n - 2 and max_m edges
    rng = random.Random(seed)
    n = rng.randint(min_n, max_n)
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, rng.sample(pairs, rng.randint(n - 2, min(max_m, len(pairs)))))


@pytest.mark.parametrize("name,t", [("hard_core", HC), ("widom_rowlinson", WR),
                                    ("k3", complete_target(3))])
def test_hom_doubled_target_scales_by_edges(name, t):
    # 2T has entries 0 and 2, so hom(g, 2T) = 2^m hom(g, T).  It is also a
    # cross-route check: T takes the map bits or the walk, 2T elimination
    t2 = _doubled(t)
    assert t.is_simple and not t2.is_simple
    gs = [g for n in range(6) for g in all_graphs(n)]
    for g in gs + [_random_graph(seed, 8, 12, 20) for seed in range(24)]:
        assert hom_count(g, t2) == 2 ** g.m * hom_count(g, t), (name, g)


def test_hom_support_anchors():
    both_in = ListConstraint({0: {IND_IN}, 1: {IND_IN}})
    assert hom_count(path_graph(2), HC, both_in) == 0
    assert hom_count(path_graph(2), HC, ListConstraint({0: {IND_IN}})) == 1
    none = TargetGraph.from_rows([])
    for g in (empty_graph(1), path_graph(3), cycle_graph(4)):
        assert hom_count(g, none) == 0
    assert none.map_tables == {}  # vacuously 0/1, but k = 0 has no map bits


ROUTE_CASES = {  # target, largest n, and whether the ends are constrained
    "hard_core": (HC, 6, False),
    "widom_rowlinson": (WR, 5, False),
    "widom_rowlinson_list": (WR, 5, True),
    "k2": (complete_target(2), 5, False),
    "k3": (complete_target(3), 5, False),
}


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_hom_routes_agree(name, monkeypatch):
    # every labelled graph: these 0/1 targets take the map bits, and a cap
    # of 0 sends the same calls to the walk
    t, max_n, ends = ROUTE_CASES[name]
    calls = [(g, ListConstraint({0: {WR_B, WR_C}, n - 1: {WR_A}}) if ends and n > 1 else None)
             for n in range(max_n + 1) for g in all_graphs(n)]
    bits = [hom_count(g, t, c) for g, c in calls]
    monkeypatch.setattr(counting, "MAP_BITS", 0)
    assert [hom_count(g, t, c) for g, c in calls] == bits


@pytest.mark.parametrize("name,n,bits", [("hard_core", 12, True), ("hard_core", 13, False),
                                         ("k3", 7, True), ("k3", 8, False)])
def test_hom_map_bits_boundary(name, n, bits, monkeypatch):
    # the last n with k**n <= MAP_BITS takes the bits, one vertex more the
    # walk; each route forced on a fresh target agrees with the closed forms
    make = {"hard_core": hard_core_target, "k3": lambda: complete_target(3)}[name]
    want = {"hard_core": [path_ind_fib(n), path_ind_fib(n - 3) + path_ind_fib(n - 1)],
            "k3": [3 * 2 ** (n - 1), cycle_chrom_formula(n, 3)]}[name]
    gs = (path_graph(n), cycle_graph(n))
    t = make()
    assert [hom_count(g, t) for g in gs] == want
    assert (n in t.map_tables) == bits
    assert all(t.k ** m <= counting.MAP_BITS for m in t.map_tables)
    for cap in (t.k ** n, 0):
        monkeypatch.setattr(counting, "MAP_BITS", cap)
        assert [hom_count(g, make()) for g in gs] == want, cap


def _batch(*targets: TargetGraph, dtype=np.int64) -> np.ndarray:
    return np.array([t.integer_rows[0] for t in targets], dtype=dtype)


def _transfer_count(n: int, t: TargetGraph) -> Fraction:
    # hom(P_n, T) = 1^T W^(n-1) 1, in Fractions
    vec = [Fraction(1)] * t.k
    for _ in range(n - 1):
        vec = [sum(x * y for x, y in zip(row, vec)) for row in t.w]
    return sum(vec)


def _dense_tenths(k: int, seed: int) -> TargetGraph:
    rng = random.Random(seed)
    mat = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            mat[i][j] = mat[j][i] = Fraction(rng.randint(1, 10), 10)
    return TargetGraph(tuple(tuple(row) for row in mat))


@pytest.mark.parametrize("seed", range(16))
def test_hom_batch_differential(seed, monkeypatch):
    # 8-16 vertices: the elimination itself against the specialised
    # counters and both 0/1 routes of hom_count, with list constraints
    g = _random_graph(seed, 8, 16, 24)
    rng = random.Random(seed)
    u, v = rng.sample(range(g.n), 2)
    ind_c = ListConstraint({u: {IND_IN}, v: {IND_OUT}})
    wr_c = ListConstraint({u: {WR_A, WR_B}, v: {WR_C}})
    k3_c = ListConstraint({u: {0}, v: {1, 2}})
    assert hom_batch(g, _batch(HC)).tolist() == [ind_count(g)]
    assert hom_batch(g, _batch(HC), ind_c).tolist() == [ind_count(g, ind_c)]
    assert hom_batch(g, _batch(WR)).tolist() == [wr_count(g)]
    assert hom_batch(g, _batch(WR), wr_c).tolist() == [wr_count(g, wr_c)]
    assert hom_batch(g, _batch(complete_target(3))).tolist() == [chrom_poly(g)(3)]
    # a batch of Python ints holding both doubled and plain targets
    got = hom_batch(g, _batch(_doubled(WR), WR, dtype=object), wr_c)
    assert got.tolist() == [2 ** g.m * wr_count(g, wr_c), wr_count(g, wr_c)]
    calls = [(HC, ind_c), (WR, wr_c), (complete_target(3), k3_c), (complete_target(3), None)]
    for cap in (1 << 16, 0):  # the map bits up to 2^16 maps, then the walk
        monkeypatch.setattr(counting, "MAP_BITS", cap)
        for t, c in calls:
            assert hom_count(g, t, c) == hom_batch(g, _batch(t), c)[0], (cap, t, c)


@pytest.mark.parametrize("seed", range(8))
def test_hom_weighted_eight_vertices_matches_brute(seed):
    g = _random_graph(seed, 6, 8, 14)
    rng = random.Random(seed)
    mat = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            mat[i][j] = mat[j][i] = Fraction(rng.randrange(11), 10)
    t = TargetGraph(tuple(tuple(row[:2 + seed % 2]) for row in mat[:2 + seed % 2]))
    c = ListConstraint({rng.randrange(g.n): {rng.randrange(t.k)}})
    assert hom_count(g, t) == brute_hom(g, t)
    assert hom_count(g, t, c) == brute_hom(g, t, c)


@pytest.mark.parametrize("n,k", [(2, 2), (9, 5), (22, 5), (40, 3), (200, 5)])
def test_hom_weighted_path_matches_transfer_matrix(n, k):
    # P_22 into a dense 5-vertex target visited 5^22 maps on the weighted
    # walk; elimination takes one step per vertex
    t = _dense_tenths(k, n)
    start = time.perf_counter()
    assert hom_count(path_graph(n), t) == _transfer_count(n, t)
    assert time.perf_counter() - start < 0.5


def test_hom_weighted_guard_refuses_at_once():
    # eliminating any vertex of K_12 sums over 5^12 entries, past the cap
    start = time.perf_counter()
    with pytest.raises(SizeGuardError, match="elimination"):
        hom_count(complete_graph(12), _dense_tenths(5, 1))
    assert time.perf_counter() - start < 0.5
    # K_9 sums over 5^9, under it
    assert 5 ** 9 <= counting.STEP_BUDGET < 5 ** 10
    assert hom_count(empty_graph(28), _doubled(complete_target(5))) == 5 ** 28


def test_hom_batch_slices_and_chunks(monkeypatch):
    # slices of the batch and chunks of a bucket past einsum's operand
    # limit give the same counts.  Vertex 0 is eliminated with 63 factors:
    # one from each vertex joined to it and to a distinct subset of 1..6
    subsets = [sub for r in range(1, 7) for sub in itertools.combinations(range(1, 7), r)]
    edges = [(0, x) for x in range(1, 7)]
    for y, sub in enumerate(subsets, 7):
        edges += [(0, y)] + [(x, y) for x in sub]
    g = Graph.from_edges(7 + len(subsets), edges)
    sizes = []
    contract = counting._contract
    monkeypatch.setattr(counting, "_contract",
                        lambda ops, out: sizes.append(len(ops)) or contract(ops, out))
    assert hom_batch(g, _batch(_doubled(HC), dtype=object)).tolist() == [
        2 ** g.m * ind_count(g, override_guard=True)]
    assert max(sizes) == 31
    ts = [_dense_tenths(3, seed) for seed in range(10)]
    k5 = complete_graph(5)
    whole = hom_batch(k5, _batch(*ts))
    monkeypatch.setattr(counting, "STEP_BUDGET", 3 ** 5 * 3)
    assert hom_batch(k5, _batch(*ts)).tolist() == whole.tolist()
    assert whole.tolist() == [hom_count(k5, t) * 10 ** k5.m for t in ts]


def test_hom_batch_into_empty_target():
    # no map from a source with vertices into a 0-vertex target, and the
    # empty map from the 0-vertex source: hom_count's answers
    w, empty = np.zeros((2, 0, 0), dtype=np.int64), TargetGraph(())
    for g, want in ((path_graph(3), 0), (empty_graph(1), 0), (Graph(0, frozenset()), 1)):
        assert hom_batch(g, w).tolist() == [hom_count(g, empty)] * 2 == [want] * 2


def test_hom_type_follows_target(monkeypatch):
    # an int when every entry of the target is an integer, on each route,
    # and a Fraction otherwise, whatever the source and the value
    integral = [HC, complete_target(3),  # 0/1: the map bits, or the walk at MAP_BITS 0
                TargetGraph.from_rows([[2, 1], [1, 0]]),  # hom_batch, D = 1
                TargetGraph.from_rows([[3]])]  # k = 1, hom_batch, D = 1
    weighted = TargetGraph.from_rows([[Fraction(1, 3), 2], [2, 0]])
    for bits in (counting.MAP_BITS, 0):
        monkeypatch.setattr(counting, "MAP_BITS", bits)
        for g in (path_graph(3), empty_graph(2), Graph(0, frozenset())):
            for t in integral:
                got = hom_count(g, t)
                assert type(got) is int and got == brute_hom(g, t), (bits, t.describe(), g)
            got = hom_count(g, weighted)
            assert type(got) is Fraction and got == brute_hom(g, weighted), (bits, g)


def test_hom_multiplies_components():
    # 12 disjoint edges: 6 proper 3-colourings each; one walk over all 24
    # vertices would visit 3^24 maps
    g = Graph.from_edges(24, [(2 * i, 2 * i + 1) for i in range(12)])
    assert hom_count(g, complete_target(3)) == 6 ** 12


def _triangle_chain(t: int) -> Graph:
    """t triangles, each joined to the next by one edge."""
    return Graph.from_edges(3 * t, [e for i in range(0, 3 * t, 3)
                                    for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2), (i - 1, i))
                                    if e[0] >= 0])


def _tree41() -> Graph:
    # 42 vertices, each joined to one of the earlier ones: 41 edges
    rng = random.Random(41)
    return Graph.from_edges(42, [(rng.randrange(v), v) for v in range(1, 42)])


# The guard tests lower STEP_BUDGET by monkeypatch, so that an input that
# counts in milliseconds spends it: the call is refused with a message
# naming the counter, and counts with the override.  Each then counts,
# at the real budget, an input that an old size guard refused.

def _refused_then_counted(monkeypatch, budget, name, count, g, want):
    monkeypatch.setattr(counting, "STEP_BUDGET", budget)
    with pytest.raises(SizeGuardError, match=f"^{name} guard: more than {budget} steps$"):
        count(g)
    assert count(g, override_guard=True) == want
    monkeypatch.undo()


def test_hom_guard(monkeypatch):
    _refused_then_counted(monkeypatch, 12, "hom_count",
                          lambda g, **kw: hom_count(g, complete_target(3), **kw),
                          path_graph(12), 3 * 2 ** 11)
    # isolated vertices walk nothing; 70 of them were past n*log2(k) = 64
    assert hom_count(empty_graph(70), complete_target(2)) == 2 ** 70
    assert hom_count(empty_graph(100), complete_target(1)) == 1  # k=1 exempt


def test_ind_wr_guards(monkeypatch):
    _refused_then_counted(monkeypatch, 12, "ind_count", ind_count, _triangle_chain(5),
                          780)  # by brute_ind
    # P_8 on vertices 1092..1099, the others forced out: its masks are
    # 1,100 bits wide, three words, so its one pop costs 24 steps, not 8
    g = Graph.from_edges(1100, [(v, v + 1) for v in range(1092, 1099)])
    out = ListConstraint({v: {IND_OUT} for v in range(1092)})
    _refused_then_counted(monkeypatch, 23, "ind_count", lambda g, **kw: ind_count(g, out, **kw),
                          g, path_ind_fib(8))
    # wr_count is refused before it sums: P_3 has 2^3 red sets in one
    # component, 25 isolated vertices 2 each
    monkeypatch.setattr(counting, "STEP_BUDGET", 7)
    with pytest.raises(SizeGuardError, match="^wr_count guard: 8 steps, more than 7$"):
        wr_count(path_graph(3))
    assert wr_count(path_graph(3), override_guard=True) == 17
    monkeypatch.setattr(counting, "STEP_BUDGET", 49)
    with pytest.raises(SizeGuardError, match="^wr_count guard: 50 steps, more than 49$"):
        wr_count(empty_graph(25))
    monkeypatch.undo()
    # past the old 40- and 24-vertex guards
    assert ind_count(path_graph(41)) == path_ind_fib(41)
    assert wr_count(empty_graph(25)) == 3 ** 25


def test_chrom_poly_guard(monkeypatch):
    # relabelling the 2 x 6 ladder costs 33 steps, so at 40 it is refused
    # in deletion-contraction; relabelling C_5 costs 12, so at 11 it is
    # refused before that
    stack = counting._chrom_stack
    ladder = Graph.from_edges(12, [(i, i + 1) for i in range(5)] + [(6 + i, 7 + i) for i in range(5)]
                              + [(i, 6 + i) for i in range(6)])
    for g, budget, want, deep in ((ladder, 40, 6 * 3 ** 5, True), (cycle_graph(5), 11, 30, False)):
        entered = []
        monkeypatch.setattr(counting, "_chrom_stack", lambda *a: entered.append(a) or stack(*a))
        monkeypatch.setattr(counting, "STEP_BUDGET", budget)
        with pytest.raises(SizeGuardError, match=f"^chrom_poly guard: more than {budget} steps$"):
            chrom_poly(g)
        assert bool(entered) == deep
        assert chrom_poly(g, override_guard=True)(3) == want
    monkeypatch.undo()
    # a 41-edge tree, past the old 40-edge guard, is simplicial vertices
    assert chrom_poly(_tree41()).coeffs == chrom_poly(path_graph(42)).coeffs


def test_chrom_eval_override_guard(monkeypatch):
    # chrom_eval has one route, the polynomial, under its budget
    _refused_then_counted(monkeypatch, 11, "chrom_poly", lambda g, **kw: chrom_eval(g, 3, **kw),
                          cycle_graph(5), 30)


def test_chrom_eval_guard_before_building_kq(monkeypatch):
    # no K_q is built, so nothing quadratic in q needs a guard: K_10
    # (45 edges) at q = 10^9 is simplicial vertices and counts at once
    monkeypatch.setattr("homverify.graphs.complete_target", lambda q: pytest.fail("K_q was built"))
    start = time.perf_counter()
    assert chrom_eval(complete_graph(10), 10 ** 9) == math.perm(10 ** 9, 10)
    assert time.perf_counter() - start < 0.5


def test_hom_one_vertex_target_closed_form():
    from homverify.graphs import TargetGraph

    long_path = path_graph(3000)  # deeper than the recursion limit
    loop = TargetGraph.from_rows([[Fraction(1, 2)]])
    assert hom_count(long_path, loop) == Fraction(1, 2) ** 2999
    assert hom_count(long_path, complete_target(1)) == 0
    assert hom_count(empty_graph(5), complete_target(1)) == 1
    assert hom_count(Graph(0, frozenset()), loop) == 1
    only = ListConstraint({0: {0}})
    assert hom_count(path_graph(3), loop, only) == Fraction(1, 4)
    with pytest.raises(ValueError):
        hom_count(path_graph(3), loop, ListConstraint({0: {1}}))


def test_hom_long_path_without_recursion():
    # 3000 planned vertices: deeper than the recursion limit
    assert hom_count(path_graph(3000), complete_target(2), override_guard=True) == 2


def test_constraint_validation():
    with pytest.raises(ValueError, match="empty allowed"):
        ListConstraint({0: set()})
    c = ListConstraint({5: {0}})
    with pytest.raises(ValueError, match="out of range"):
        hom_count(path_graph(2), HC, c)
    c = ListConstraint({0: {7}})
    with pytest.raises(ValueError, match="out of range"):
        hom_count(path_graph(2), HC, c)


# ---------------------------------------------------------------------------
# Chromatic polynomial
# ---------------------------------------------------------------------------

def test_chrom_poly_anchors():
    assert chrom_poly(empty_graph(3)).coeffs == (0, 0, 0, 1)
    assert chrom_poly(path_graph(2)).coeffs == (0, -1, 1)
    assert chrom_poly(cycle_graph(4)).coeffs == (0, -3, 6, -4, 1)
    assert chrom_eval(cycle_graph(4), 2) == 2 == brute_chrom(cycle_graph(4), 2)
    assert chrom_eval(cycle_graph(4), 3) == 18 == brute_chrom(cycle_graph(4), 3)


def test_chrom_eval_anchors():
    assert chrom_eval(path_graph(2), 3) == 6
    assert chrom_eval(cycle_graph(3), 3) == 6 == brute_chrom(cycle_graph(3), 3)
    assert chrom_eval(empty_graph(0), 5) == 1
    with pytest.raises(ValueError):
        chrom_eval(path_graph(2), -1)


@given(graphs(max_n=5))
@settings(max_examples=120, deadline=None)
def test_chrom_poly_invariants_and_values(g):
    p = chrom_poly(g)
    assert p.degree == g.n
    assert p.coeffs[-1] == 1
    if g.n >= 1:
        assert p.coeffs[0] == 0
    for i, a in enumerate(p.coeffs):
        if a:
            assert (a > 0) == ((g.n - i) % 2 == 0)
    for q in (0, 1, 2, 3):
        v = p(q)
        assert v >= 0
        assert v == brute_chrom(g, q)


def test_chrom_eval_matches_poly():
    g = cycle_graph(5)
    p = chrom_poly(g)
    assert p(3) == chrom_eval(g, 3)


def test_chrom_poly_long_inputs_without_recursion():
    # 3000 vertices: far deeper than the recursion limit if reduced one
    # vertex per call; a path is removed leaf by leaf, a cycle is the
    # closed form, and K_12 is simplicial vertices alone
    q_minus_1 = [(-1) ** (2999 - i) * math.comb(2999, i) for i in range(3000)]
    assert chrom_poly(path_graph(3000), override_guard=True).coeffs == (0, *q_minus_1)
    # (q-1)^3000 + (q-1)
    want = [(-1) ** (3000 - i) * math.comb(3000, i) for i in range(3001)]
    want[0] -= 1
    want[1] += 1
    cyc = chrom_poly(cycle_graph(3000), override_guard=True)
    assert cyc.coeffs == tuple(want)
    assert cyc(7) == cycle_chrom_formula(3000, 7)
    assert chrom_poly(complete_graph(12), override_guard=True)(12) == math.factorial(12)


def _near_recursion_limit(fn):
    """fn() called from within 60 frames of the recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return fn() if depth >= sys.getrecursionlimit() - 60 else _near_recursion_limit(fn)


def test_chrom_poly_ladder_from_deep_caller():
    # the 2 x 300 ladder, 299 deletion-contraction steps deep, called from
    # within 60 frames of the recursion limit
    k = 300
    ladder = Graph.from_edges(2 * k, [(i, i + 1) for i in range(k - 1)]
                              + [(k + i, k + i + 1) for i in range(k - 1)]
                              + [(i, k + i) for i in range(k)])
    poly = _near_recursion_limit(lambda: chrom_poly(ladder, override_guard=True))
    assert poly(3) == 6 * 3 ** (k - 1)


def test_ind_count_clique_from_deep_caller():
    # K_100 branches 93 times down its first-vertex side before fewer than
    # FOREST_MIN_VERTICES vertices are left, called from within 60 frames
    # of the recursion limit
    assert _near_recursion_limit(lambda: ind_count(complete_graph(100), override_guard=True)) == 101


def _dense_graph(seed: int) -> Graph:
    # 8-16 vertices and at most 40 edges, enough of them that the proper
    # 4-colourings stay few for hom_count's walk
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    pairs = list(itertools.combinations(range(n), 2))
    low = max(0, math.ceil(math.log(4 ** n / 10 ** 5) / math.log(4 / 3)))
    return Graph.from_edges(n, rng.sample(pairs, rng.randint(min(low, 40), min(40, len(pairs)))))


def test_chrom_poly_matches_hom_past_seven():
    # the roadmap's slow 40-edge graph first: deletion-contraction on
    # edge tuples took about a minute on it
    slow = Graph.from_edges(16, random.Random(1).sample(list(itertools.combinations(range(16), 2)), 40))
    start = time.perf_counter()
    p = chrom_poly(slow)
    assert time.perf_counter() - start < 5
    for g, poly in [(slow, p)] + [(g, chrom_poly(g)) for g in map(_dense_graph, range(48))]:
        assert poly.degree == g.n
        for q in (2, 3, 4):
            assert poly(q) == hom_count(g, complete_target(q)), (g, q)


# ---------------------------------------------------------------------------
# Independent sets
# ---------------------------------------------------------------------------

def test_ind_anchors():
    for n in range(5):
        assert ind_count(empty_graph(n)) == 2 ** n
    assert ind_count(path_graph(2)) == 3
    assert ind_count(cycle_graph(4)) == 7 == brute_ind(cycle_graph(4))
    # k triangles on one hub: branching on the hub leaves a matching on 2k
    # >= FOREST_MIN_VERTICES vertices, which _ind_forest counts as 3^k
    for k in range(FOREST_MIN_VERTICES // 2, 7):
        g = Graph.from_edges(2 * k + 1, [e for i in range(1, 2 * k, 2)
                                         for e in ((0, i), (0, i + 1), (i, i + 1))])
        assert ind_count(g) == 3 ** k + 1 == brute_ind(g)


def test_ind_exhaustive_small():
    for n in range(6):
        for g in all_graphs(n):
            i = ind_count(g)
            assert i == brute_ind(g)
            assert i == hom_count(g, HC)


@given(graphs_with_edge(max_n=6))
@settings(max_examples=100, deadline=None)
def test_ind_partition_identity(ge):
    """Independent sets of H split by how they meet an edge (u,v); each
    conditional count is a vertex-deleted unconditional count."""
    g, (u, v) = ge
    nu = {x for e in g.edges if u in e for x in e} | {u, v}
    nv = {x for e in g.edges if v in e for x in e} | {u, v}
    both_out = ind_count(g, ListConstraint({u: {IND_OUT}, v: {IND_OUT}}))
    u_in = ind_count(g, ListConstraint({u: {IND_IN}, v: {IND_OUT}}))
    v_in = ind_count(g, ListConstraint({u: {IND_OUT}, v: {IND_IN}}))
    both_in = ind_count(g, ListConstraint({u: {IND_IN}, v: {IND_IN}}))
    assert both_in == 0
    assert ind_count(g) == both_out + u_in + v_in
    assert both_out == ind_count(g.delete_vertices({u, v}))
    assert u_in == ind_count(g.delete_vertices(nu))
    assert v_in == ind_count(g.delete_vertices(nv))
    # after deleting the edge, the both-in class is the doubly-deleted count
    h = g.delete_edge(u, v)
    assert ind_count(h, ListConstraint({u: {IND_IN}, v: {IND_IN}})) == \
        ind_count(g.delete_vertices(nu | nv))
    assert ind_count(h) == ind_count(g) + ind_count(g.delete_vertices(nu | nv))


@given(graphs(max_n=6))
@settings(max_examples=80, deadline=None)
def test_ind_constraint_matches_hom(g):
    if g.n < 2:
        return
    c = ListConstraint({0: {IND_IN}, g.n - 1: {IND_OUT, IND_IN}})
    assert ind_count(g, c) == hom_count(g, HC, c)


def test_ind_long_path_and_cycle():
    # 3000 vertices: far deeper than the recursion limit if branched
    assert ind_count(path_graph(3000), override_guard=True) == path_ind_fib(3000)
    # the Lucas number L_3000 = F_2999 + F_3001
    lucas = path_ind_fib(2997) + path_ind_fib(2999)
    assert ind_count(cycle_graph(3000), override_guard=True) == lucas


@st.composite
def sparse_graphs(draw):
    """Forests on FOREST_MIN_VERTICES to 11 vertices (each vertex joins an
    earlier one or starts a tree), plus up to two extra edges that may
    close cycles."""
    n = draw(st.integers(FOREST_MIN_VERTICES, 11))
    edges = [(draw(st.integers(-1, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    return Graph.from_edges(n, [(u, v) for u, v in edges + extra if 0 <= u != v])


@given(sparse_graphs())
@settings(max_examples=80, deadline=None)
def test_ind_sparse_matches_brute(g):
    assert ind_count(g) == brute_ind(g)


@pytest.mark.parametrize("n", [FOREST_MIN_VERTICES - 1, FOREST_MIN_VERTICES,
                               FOREST_MIN_VERTICES + 1])
def test_ind_around_whole_graph_threshold(n):
    # below FOREST_MIN_VERTICES live vertices the whole graph is branched
    # at once, from it up per component; constraints that force vertices
    # in or out move the live count across the threshold
    sides = set()
    for seed in range(30):
        rng = random.Random(seed)
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, rng.randint(0, 2 * n)))
        assert ind_count(g) == brute_ind(g) == hom_count(g, HC), g
        for _ in range(4):
            allowed = {v: rng.choice(({IND_IN}, {IND_OUT}, {IND_IN, IND_OUT}))
                       for v in rng.sample(range(n), rng.randint(1, 3))}
            c = ListConstraint(allowed)
            assert ind_count(g, c) == brute_hom(g, HC, c) == hom_count(g, HC, c), (g, c)
            dead = set()
            for v, ts in allowed.items():
                if ts == {IND_IN}:
                    dead |= {v} | {w for w in range(n) if g.neighbor_masks[v] >> w & 1}
                elif ts == {IND_OUT}:
                    dead.add(v)
            sides.add(n - len(dead) < FOREST_MIN_VERTICES)
    assert sides == ({True} if n < FOREST_MIN_VERTICES else {True, False})


def test_hom_map_bits_without_constraint():
    # the map-bit route without a constraint and with an empty one, on
    # fresh targets whose map tables show the route was taken
    for t in (hard_core_target(), widom_rowlinson_target(), complete_target(3)):
        for n in range(5):
            for g in all_graphs(n):
                got = hom_count(g, t)
                assert got == hom_count(g, t, counting.EMPTY_CONSTRAINT) == brute_hom(g, t)
        assert sorted(t.map_tables) == list(range(5))


def test_path_ind_fib():
    assert path_ind_fib(1) == 2
    assert path_ind_fib(2) == 3
    assert path_ind_fib(4) == 8 == brute_ind(path_graph(4))
    for n in range(1, 26):
        assert path_ind_fib(n) == ind_count(path_graph(n))
    with pytest.raises(ValueError):
        path_ind_fib(0)


# ---------------------------------------------------------------------------
# Widom-Rowlinson counts
# ---------------------------------------------------------------------------

def test_wr_anchors():
    assert wr_count(Graph(1, frozenset())) == 3
    assert wr_count(path_graph(2)) == 7
    assert wr_count(path_graph(3)) == 17 == brute_wr(path_graph(3))


def test_wr_exhaustive_small():
    for n in range(6):
        for g in all_graphs(n):
            w = wr_count(g)
            assert w == brute_wr(g)
            assert w == hom_count(g, WR)


_WR_SETS = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations((WR_A, WR_B, WR_C), r)]


def _disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph.from_edges(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)])


def _split_graphs() -> list[Graph]:
    # seeded 8-16 vertex graphs, every other one a union of two parts
    gs = []
    for seed in range(10):
        if seed % 2:
            gs.append(_disjoint_union(_random_graph(seed, 4, 8, 10),
                                      _random_graph(seed + 50, 4, 8, 10)))
        else:
            gs.append(_random_graph(seed, 12, 16, 20))
    assert sum(not g.is_connected() for g in gs) >= 5
    return gs


@pytest.mark.parametrize("cap", ["map_bits", 0])
def test_wr_constraint_coverage(cap, monkeypatch):
    # every nonempty allowed set at every vertex, alone and with the other
    # vertices constrained too, against both 0/1 routes of hom_count
    if cap == 0:
        monkeypatch.setattr(counting, "MAP_BITS", 0)
    for n in range(1, 5):
        for g in all_graphs(n):
            cs = [ListConstraint({v: s}) for v in range(n) for s in _WR_SETS]
            cs += [ListConstraint({v: _WR_SETS[(i + 2 * v) % 7] for v in range(n)})
                   for i in range(7)]
            for c in cs:
                assert wr_count(g, c) == hom_count(g, WR, c), (g, c)
    for seed, g in enumerate(_split_graphs()):
        rng = random.Random(seed)
        for s in _WR_SETS:
            # the last vertex is past the red-set table when 13 or more are red
            c = ListConstraint({v: rng.choice(_WR_SETS) for v in rng.sample(range(g.n - 1), 3)}
                               | {g.n - 1: s})
            assert wr_count(g, c) == hom_batch(g, _batch(WR), c)[0], (g, c)
            assert wr_count(g, c) == hom_count(g, WR, c), (g, c)


@pytest.mark.parametrize("cap", ["map_bits", 0])
def test_ind_constraint_coverage_disconnected(cap, monkeypatch):
    if cap == 0:
        monkeypatch.setattr(counting, "MAP_BITS", 0)
    small = [g for n in range(2, 6) for g in all_graphs(n) if not g.is_connected()]
    for seed, g in enumerate(small + _split_graphs()):
        rng = random.Random(seed)
        for _ in range(4):
            c = ListConstraint({v: rng.choice(({IND_IN}, {IND_OUT}, {IND_IN, IND_OUT}))
                                for v in rng.sample(range(g.n), 2)})
            assert ind_count(g, c) == hom_count(g, HC, c), (g, c)


def test_wr_long_path_transfer_count():
    # the red-set sum walks past its table here: 20 red vertices, 2^12
    # tabulated; hom(P_20, WR) = 1^T W^19 1
    start = time.perf_counter()
    got = wr_count(path_graph(20))
    assert time.perf_counter() - start < 1.0
    assert got == _transfer_count(20, WR)


@given(graphs_with_edge(max_n=6))
@settings(max_examples=60, deadline=None)
def test_wr_partition_identity(ge):
    """wr(H) splits into the nine ordered end-color conditionals; the two
    red-blue terms vanish on an edge."""
    g, (u, v) = ge
    colors = (WR_A, WR_B, WR_C)
    parts = {}
    for x in colors:
        for y in colors:
            parts[x, y] = wr_count(g, ListConstraint({u: {x}, v: {y}}))
    assert sum(parts.values()) == wr_count(g)
    assert parts[WR_A, WR_C] == 0 and parts[WR_C, WR_A] == 0
    # red/blue swap symmetry
    assert wr_count(g, ListConstraint({u: {WR_A}})) == wr_count(g, ListConstraint({u: {WR_C}}))
    assert parts[WR_A, WR_B] == parts[WR_C, WR_B]


@given(graphs(max_n=5), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_wr_constraint_matches_hom(g, color):
    if g.n == 0:
        return
    c = ListConstraint({0: {color}})
    assert wr_count(g, c) == hom_count(g, WR, c)


@given(graphs_with_edge(max_n=6))
@settings(max_examples=80, deadline=None)
def test_edge_deletion_monotone(ge):
    g, e = ge
    h = g.delete_edge(*e)
    assert ind_count(g) <= ind_count(h)
    assert wr_count(g) <= wr_count(h)


# ---------------------------------------------------------------------------
# Closed forms and spectral data
# ---------------------------------------------------------------------------

def test_cycle_chrom_formula():
    assert cycle_chrom_formula(4, 3) == 18
    assert cycle_chrom_formula(3, 2) == 0
    assert cycle_chrom_formula(4, 2) == 2 == brute_chrom(cycle_graph(4), 2)
    for length in range(3, 11):
        for q in range(7):
            assert cycle_chrom_formula(length, q) == chrom_eval(cycle_graph(length), q)
    with pytest.raises(ValueError):
        cycle_chrom_formula(2, 3)


def test_spectral_anchors():
    sd = spectral_data(complete_target(3))
    assert abs(sd.eigenvalues[0] - 2) < 1e-9
    assert abs(sd.eigenvalues[1] + 1) < 1e-9 and abs(sd.eigenvalues[2] + 1) < 1e-9

    sd = spectral_data(WR)
    assert abs(sd.eigenvalues[0] - (1 + math.sqrt(2))) < 1e-9
    want = (0.5, 1 / math.sqrt(2), 0.5)
    assert all(abs(a - b) < 1e-9 for a, b in zip(sd.top_eigenvector, want))
    assert abs(sd.entropy - 1.5 * math.log(2)) < 1e-9

    sd = spectral_data(HC)
    assert abs(sd.eigenvalues[0] - (1 + math.sqrt(5)) / 2) < 1e-9


@given(weighted_targets(max_k=3))
@settings(max_examples=60, deadline=None)
def test_spectral_invariants(t):
    sd = spectral_data(t)
    assert len(sd.eigenvalues) == t.k
    assert abs(sum(sd.eigenvalues) - float(sum(t.w[i][i] for i in range(t.k)))) < 1e-9
    assert abs(sum(y * y for y in sd.top_eigenvector) - 1) < 1e-9
    assert sorted(sd.eigenvalues, reverse=True) == list(sd.eigenvalues)


def test_cycle_hom_spectral():
    assert abs(cycle_hom_spectral(4, complete_target(3)) - 18) < 1e-6
    assert abs(cycle_hom_spectral(3, complete_target(2))) < 1e-9
    assert hom_count(cycle_graph(4), WR) == 35
    assert abs(cycle_hom_spectral(4, WR) - 35) < 1e-6 * 35
    for length in (3, 4, 5, 6):
        for t in (complete_target(2), complete_target(4), HC, WR):
            exact = float(hom_count(cycle_graph(length), t))
            got = cycle_hom_spectral(length, t)
            assert abs(got - exact) <= 1e-6 * max(1.0, exact)


def test_tree_hom_lower_bound():
    from homverify.graphs import TargetGraph

    val = tree_hom_lower_bound(2, WR)
    assert abs(val - 2 * math.sqrt(2) * (1 + math.sqrt(2))) < 1e-9
    assert val <= 7  # wr(K_2)
    assert tree_hom_lower_bound(1, WR) <= 3
    assert abs(tree_hom_lower_bound(3, complete_target(3)) - 12) < 1e-9
    assert hom_count(path_graph(3), complete_target(3)) == 12
    with pytest.raises(ValueError):
        tree_hom_lower_bound(3, TargetGraph.from_rows([[1, 0], [0, 1]]))


@pytest.mark.parametrize("call", [
    spectral_data,
    lambda t: tree_hom_lower_bound(3, t),
    lambda t: cycle_hom_spectral(4, t),
], ids=["spectral_data", "tree_hom_lower_bound", "cycle_hom_spectral"])
def test_spectral_rejects_empty_target(call):
    from homverify.graphs import TargetGraph

    with pytest.raises(ValueError, match="needs a target with at least one vertex"):
        call(TargetGraph.from_rows([]))


@given(st.integers(1, 8), st.sampled_from(["k2", "k3", "hc", "wr"]))
@settings(max_examples=40, deadline=None)
def test_tree_bound_below_path_count(n, tname):
    t = {"k2": complete_target(2), "k3": complete_target(3), "hc": HC, "wr": WR}[tname]
    bound = tree_hom_lower_bound(n, t)
    assert float(hom_count(path_graph(n), t)) >= bound - 1e-9


# ---------------------------------------------------------------------------
# Relabelling invariance: every counter is an invariant of the isomorphism
# class of its source, which the class tables of the sweeps rely on
# ---------------------------------------------------------------------------

def _relabelled(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@given(graphs(max_n=6), weighted_targets(max_k=3), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_counters_invariant_under_relabelling(g, t, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = _relabelled(g, perm)
    assert ind_count(h) == ind_count(g)
    assert wr_count(h) == wr_count(g)
    assert chrom_poly(h) == chrom_poly(g)
    assert hom_count(h, t) == hom_count(g, t)
