import math
from fractions import Fraction

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
from homverify.counting import (
    FOREST_MIN_VERTICES,
    IND_GUARD_VERTICES,
    IND_IN,
    IND_OUT,
    WR_A,
    WR_B,
    WR_C,
    WR_GUARD_VERTICES,
    ListConstraint,
    SizeGuardError,
    chrom_eval,
    chrom_poly,
    cycle_chrom_formula,
    cycle_hom_spectral,
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


def test_hom_returns_fraction():
    weighted = TargetGraph.from_rows([[Fraction(1, 3), 2], [2, 0]])
    for t in (HC, complete_target(3), weighted, TargetGraph.from_rows([[2, 1], [1, 0]])):
        for g in (path_graph(3), empty_graph(2), Graph(0, frozenset())):
            assert isinstance(hom_count(g, t), Fraction)


def test_hom_multiplies_components():
    # 12 disjoint edges: 6 proper 3-colourings each; one walk over all 24
    # vertices would visit 3^24 maps
    g = Graph.from_edges(24, [(2 * i, 2 * i + 1) for i in range(12)])
    assert hom_count(g, complete_target(3)) == 6 ** 12


def test_hom_guard():
    big = empty_graph(70)
    with pytest.raises(SizeGuardError):
        hom_count(big, complete_target(2))
    assert hom_count(big, complete_target(2), override_guard=True) == 2 ** 70
    assert hom_count(empty_graph(100), complete_target(1)) == 1  # k=1 exempt


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


def test_ind_wr_guards():
    big = empty_graph(IND_GUARD_VERTICES + 1)
    with pytest.raises(SizeGuardError):
        ind_count(big)
    assert ind_count(big, override_guard=True) == 2 ** big.n
    with pytest.raises(SizeGuardError):
        ind_count(path_graph(3000))  # past the vertex guard
    # wr_count visits 2^n white sets: only ever run guarded past the bound
    with pytest.raises(SizeGuardError):
        wr_count(empty_graph(WR_GUARD_VERTICES + 1))
    with pytest.raises(SizeGuardError):
        wr_count(complete_graph(40))
    assert wr_count(path_graph(3), override_guard=True) == 17


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


def test_chrom_poly_guard():
    g = complete_graph(10)  # 45 edges
    with pytest.raises(SizeGuardError):
        chrom_poly(g)
    p = chrom_poly(g, override_guard=True)
    assert p(10) == math.factorial(10)


def test_chrom_eval_override_guard(monkeypatch):
    from homverify import counting

    long_path = path_graph(50)
    with pytest.raises(SizeGuardError):
        chrom_eval(long_path, 3)  # the hom_count fallback is guarded too
    assert chrom_eval(long_path, 3, override_guard=True) == 3 * 2 ** 49
    monkeypatch.setattr(counting, "CHROM_POLY_EDGE_GUARD", 2)
    with pytest.raises(SizeGuardError):
        chrom_poly(cycle_graph(4))
    assert chrom_eval(cycle_graph(4), 3) == 18  # counted by hom_count
    assert chrom_eval(cycle_graph(4), 3, override_guard=True) == 18


def test_chrom_eval_uses_given_poly():
    g = cycle_graph(5)
    p = chrom_poly(g)
    assert chrom_eval(g, 3, poly=p) == p(3) == chrom_eval(g, 3)


# ---------------------------------------------------------------------------
# Independent sets
# ---------------------------------------------------------------------------

def test_ind_anchors():
    for n in range(5):
        assert ind_count(empty_graph(n)) == 2 ** n
    assert ind_count(path_graph(2)) == 3
    assert ind_count(cycle_graph(4)) == 7 == brute_ind(cycle_graph(4))


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
    nu = set(g.adjacency[u]) | {u, v}
    nv = set(g.adjacency[v]) | {u, v}
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
