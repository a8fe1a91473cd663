import hashlib
import itertools
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homverify.classes import class_table, mask_graphs
from homverify.counting import chrom_poly, ind_count, wr_count
from homverify.graphs import (
    EDGELIST_MAX_VERTICES,
    Graph,
    ParseError,
    TargetGraph,
    bipartition,
    complete_bipartite,
    complete_graph,
    complete_target,
    connected_components,
    cycle_graph,
    empty_graph,
    girth,
    greedy_cycle_packing,
    cycle_edges,
    identify_vertices,
    mask_components,
    parse_edgelist,
    parse_graph,
    parse_graph6,
    parse_target,
    path_graph,
    to_edgelist,
    to_graph6,
    to_target_text,
)

from conftest import all_graphs, graphs


# ---------------------------------------------------------------------------
# Graph type invariants
# ---------------------------------------------------------------------------

def test_graph_rejects_loops_and_bad_ids():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, frozenset({(1, 0)}))  # not normalized


def test_graph_value_semantics():
    g = Graph.from_edges(4, [(2, 1), (0, 1), (3, 1)])
    # the neighbour masks are set when the graph is built, not on first read
    assert vars(g)["neighbor_masks"] == (0b10, 0b1101, 0b10, 0b10)
    assert Graph(0, frozenset()).neighbor_masks == ()
    h = Graph.from_edges(4, iter([(1, 3), (1, 0), (1, 2)]))
    assert g == h and hash(g) == hash(h)
    assert g != Graph.from_edges(5, g.edges)
    # edges given as another iterable are taken as a set, as from_edges does
    twice = Graph(4, [(0, 1), (1, 2), (1, 2), (1, 3)])
    assert twice == g and hash(twice) == hash(g) and twice.m == 3 and twice.edges == g.edges
    assert repr(g) == "Graph(n=4, edges=frozenset({(0, 1), (1, 2), (1, 3)}))"
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g) and back.neighbor_masks == g.neighbor_masks
    with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match=r"^edge \(0,2\) out of range or not normalized for n=2$"):
        Graph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError, match=r"^negative vertex count -1$"):
        Graph(-1, frozenset())


@pytest.mark.parametrize("n", range(6))
def test_graphs_from_masks_are_graph_values(n):
    """Graph.trusted, through both mask paths (classes.mask_graphs for a
    batch, ClassTable.graph for one mask), gives the value Graph(n, edges)
    gives, for every labelled graph on n <= 5 vertices, before and after a
    pickle round trip of a graph whose edges were never read."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = np.arange(1 << len(pairs), dtype=np.int32)
    table = class_table(n)
    for mask, batched in zip(masks.tolist(), mask_graphs(n, masks)):
        want = Graph(n, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1))
        for got in (batched, table.graph(mask)):
            assert "edges" not in vars(got)
            for g in (pickle.loads(pickle.dumps(got)), got):
                assert g == want and hash(g) == hash(want) and repr(g) == repr(want)
                assert g.neighbor_masks == want.neighbor_masks
                assert g.edges == want.edges and g.sorted_edges == want.sorted_edges
                assert g.m == want.m == len(want.edges)
            assert type(got.neighbor_masks) is tuple


def test_mask_graphs_derive_edges_only_when_read():
    """The counters that read neighbour masks, and graph6 naming, build no
    edge set on a graph from masks; the first read of edges builds the
    validated graph's edge set and caches it."""
    pairs = list(itertools.combinations(range(5), 2))
    masks = np.arange(1 << len(pairs), dtype=np.int32)
    for mask, g in zip(masks.tolist(), mask_graphs(5, masks)):
        ind_count(g), wr_count(g), chrom_poly(g), to_graph6(g)
        assert "edges" not in vars(g) and "sorted_edges" not in vars(g)
        assert g.edges == Graph(5, frozenset(e for i, e in enumerate(pairs) if mask >> i & 1)).edges
        assert vars(g)["edges"] is g.edges


def test_equal_graphs_print_alike():
    """repr is a function of the value: the sorted edges, however the edge
    set was built.  A frozenset's own order depends on insertion order and
    on the table size it grew through."""
    pairs = list(itertools.combinations(range(7), 2))
    rng = random.Random(0)
    table = class_table(7)
    for _ in range(200):
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        g = Graph.from_edges(7, edges)
        want = "Graph(n=7, edges=frozenset(" + (
            "{" + ", ".join(map(repr, sorted(edges))) + "}" if edges else "") + "))"
        mask = sum(1 << table.index[e] for e in edges)
        built = [Graph.from_edges(7, reversed(edges)),
                 Graph.from_edges(7, [(v, u) for u, v in sorted(edges, reverse=True)]),
                 pickle.loads(pickle.dumps(g)),
                 next(mask_graphs(7, np.array([mask], dtype=np.int32))),
                 table.graph(mask)]
        for h in [g, *built]:
            assert h == g and repr(h) == want


def test_edge_ops():
    g = path_graph(3)
    assert g.has_edge(1, 0)
    assert g.add_edge(0, 2).m == 3
    with pytest.raises(ValueError):
        g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.delete_edge(0, 2)
    assert g.delete_edge(0, 1).m == 1
    h = g.delete_vertices([1])
    assert h.n == 2 and h.m == 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_edgelist_k2():
    g = parse_edgelist("2 1\n0 1\n")
    assert g == path_graph(2)


def test_parse_edgelist_comments_and_errors():
    g = parse_edgelist("# a triangle\n3 3\n0 1\n1 2\n0 2  # last\n")
    assert g == complete_graph(3)
    with pytest.raises(ParseError, match="self-loop"):
        parse_edgelist("3 4\n0 1\n1 2\n0 2\n0 0\n")
    with pytest.raises(ParseError, match="line 3.*out of range"):
        parse_edgelist("2 2\n0 1\n0 5\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_edgelist("2 2\n0 1\n1 0\n")
    with pytest.raises(ParseError, match="header"):
        parse_edgelist("two one\n")
    with pytest.raises(ParseError, match="promises"):
        parse_edgelist("3 2\n0 1\n")


def test_parse_edgelist_vertex_bound():
    # the bound admits the 3000-vertex CLI inputs and refuses a header one past it
    assert parse_edgelist(f"{EDGELIST_MAX_VERTICES} 1\n0 1\n").n == EDGELIST_MAX_VERTICES
    with pytest.raises(ParseError, match=f"line 2: header names {EDGELIST_MAX_VERTICES + 1} "
                                         f"vertices, more than {EDGELIST_MAX_VERTICES}"):
        parse_edgelist(f"# big\n{EDGELIST_MAX_VERTICES + 1} 0\n")


def test_graph6_k4():
    # 'C' encodes n=4 and '~' all six upper-triangle bits
    g = parse_graph6("C~")
    assert g == complete_graph(4)
    assert to_graph6(complete_graph(4)) == "C~"


def test_graph6_errors():
    with pytest.raises(ParseError, match="outside graph6"):
        parse_graph6("C \x05")
    with pytest.raises(ParseError, match="expected"):
        parse_graph6("C")  # missing body


@given(graphs(max_n=7))
@settings(max_examples=150, deadline=None)
def test_roundtrip_both_formats(g):
    assert parse_graph(to_graph6(g), "graph6") == g
    assert parse_graph(to_edgelist(g), "edgelist") == g


def test_parse_target_roundtrip():
    text = "2\n1 1/2\n1/2 0\n"
    t = parse_target(text)
    assert t.k == 2 and t.w[0][1].numerator == 1 and t.w[0][1].denominator == 2
    assert parse_target(to_target_text(t)) == t
    with pytest.raises(ParseError, match="asymmetric"):
        parse_target("2\n0 1\n0 0\n")
    for tok in ("x", "1e30000000", "1.5", "1_000", "1/-2", "1/0", "+-1", "1/2/3"):
        with pytest.raises(ParseError, match="bad rational"):
            parse_target(f"1\n{tok}\n")
    assert parse_target("1\n+3/2\n").w[0][0] == Fraction(3, 2)
    with pytest.raises(ParseError, match="negative"):
        parse_target("1\n-1/2\n")
    with pytest.raises(ValueError, match="negative"):
        TargetGraph.from_rows([[-1]])


# ---------------------------------------------------------------------------
# Bipartition
# ---------------------------------------------------------------------------

def test_bipartition_examples():
    b = bipartition(cycle_graph(4))
    assert b.left == frozenset({0, 2}) and b.right == frozenset({1, 3})
    assert bipartition(cycle_graph(3)) is None
    b = bipartition(empty_graph(3))
    assert b.left == frozenset({0, 1, 2}) and b.right == frozenset()


@given(graphs(max_n=7))
@settings(max_examples=200, deadline=None)
def test_bipartition_or_odd_walk(g):
    # independent oracle: some assignment of the 2^n side masks splits every edge
    two_colorable = any(all((side >> u & 1) != (side >> v & 1) for u, v in g.edges)
                        for side in range(1 << g.n))
    b = bipartition(g)
    assert (b is not None) == two_colorable
    if b is not None:
        assert b.left | b.right == frozenset(range(g.n))
        assert not (b.left & b.right)
        for u, v in g.edges:
            assert (u in b.left) != (v in b.left)
        # component minima go left
        for comp in connected_components(g):
            assert comp[0] in b.left


# ---------------------------------------------------------------------------
# Identification
# ---------------------------------------------------------------------------

def test_identify_nonadjacent():
    p3 = path_graph(3)
    h = identify_vertices(p3, 0, 2)
    assert h == path_graph(2)
    with pytest.raises(ValueError):
        identify_vertices(p3, 1, 1)


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------

def test_components_examples():
    assert connected_components(path_graph(3)) == [[0, 1, 2]]
    assert connected_components(Graph.from_edges(4, [(0, 1), (2, 3)])) == [[0, 1], [2, 3]]
    assert connected_components(empty_graph(3)) == [[0], [1], [2]]


@given(graphs(max_n=8), st.data())
@settings(max_examples=200, deadline=None)
def test_mask_components_match_union_find(g, data):
    alive = data.draw(st.integers(0, (1 << g.n) - 1))
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges:
        if alive >> u & 1 and alive >> v & 1:
            parent[find(u)] = find(v)
    expected: dict[int, int] = {}
    for v in range(g.n):
        if alive >> v & 1:
            expected[find(v)] = expected.get(find(v), 0) | 1 << v

    comps = list(mask_components(g.neighbor_masks, alive))
    assert sorted(comps) == sorted(expected.values())
    covered = 0
    for c in comps:
        assert c and not c & covered
        covered |= c
    assert covered == alive
    lowest = [c & -c for c in comps]
    assert lowest == sorted(lowest)


# ---------------------------------------------------------------------------
# Cycle packing / girth
# ---------------------------------------------------------------------------

def _max_even_cycle_packing(g, max_len):
    """Brute-force maximum number of vertex-disjoint even cycles <= max_len."""
    def simple_cycles():
        out = []
        for t in range(4, max_len + 1, 2):
            for verts in itertools.permutations(range(g.n), t):
                if verts[0] != min(verts) or verts[1] > verts[-1]:
                    continue
                if all(g.has_edge(verts[i], verts[(i + 1) % t]) for i in range(t)):
                    out.append(frozenset(verts))
        return list(set(out))

    cycles = simple_cycles()

    best = 0
    def rec(chosen, used, rest):
        nonlocal best
        best = max(best, len(chosen))
        for i, c in enumerate(rest):
            if not (c & used):
                rec(chosen + [c], used | c, rest[i + 1:])

    rec([], frozenset(), cycles)
    return best


def _disjoint_union(g, h):
    return Graph.from_edges(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)])


def test_packing_examples():
    assert greedy_cycle_packing(cycle_graph(4), 4) == [(0, 1, 2, 3)]
    assert greedy_cycle_packing(cycle_graph(3), 4) == []
    two = _disjoint_union(cycle_graph(4), cycle_graph(4))
    pk = greedy_cycle_packing(two, 6)
    assert len(pk) == 2
    assert len({v for c in pk for v in c}) == 8
    assert _max_even_cycle_packing(two, 6) == 2


@given(graphs(max_n=7))
@settings(max_examples=100, deadline=None)
def test_packing_properties(g):
    pk = greedy_cycle_packing(g, 6)
    seen = set()
    for cyc in pk:
        assert len(cyc) % 2 == 0 and 4 <= len(cyc) <= 6
        assert not (set(cyc) & seen)
        seen |= set(cyc)
        for u, v in cycle_edges(cyc):
            assert g.has_edge(u, v)
        assert len(set(cyc)) == len(cyc)
    # no even cycle on at most 7 vertices is longer than 6
    assert greedy_cycle_packing(g, 10 ** 7) == greedy_cycle_packing(g, 8)


def test_girth():
    assert girth(cycle_graph(5)) == 5
    assert girth(complete_graph(4)) == 3
    assert girth(path_graph(4)) is None
    assert girth(empty_graph(3)) is None


def _brute_girth(g):
    """Shortest t such that some t vertices, the first the least, close a
    cycle in this order; None when no cycle exists."""
    for t in range(3, g.n + 1):
        for vs in itertools.permutations(range(g.n), t):
            if vs[0] == min(vs) and all(g.has_edge(vs[i - 1], vs[i]) for i in range(t)):
                return t
    return None


@given(graphs(max_n=7))
@settings(max_examples=200, deadline=None)
def test_girth_matches_brute_force(g):
    assert girth(g) == _brute_girth(g)


STRUCTURE_DIGEST_N6 = "3192ffd554a88e58a846cf32436b182c63d0e5555ee2906cbc1613da63b8e85d"


def test_structure_pinned_exhaustive():
    """girth and the greedy packings at l = 4, 6, 8 of every labelled graph
    with n <= 6, one repr line per graph in mask order, against a SHA-256
    recorded before the spanning tree left the package (the earlier digest
    also covered the tree, and was recorded with the adjacency-list girth,
    BFS tree and recursive cycle search)."""
    h = hashlib.sha256()
    for n in range(7):
        for g in all_graphs(n):
            packs = [greedy_cycle_packing(g, ell) for ell in (4, 6, 8)]
            h.update(f"{girth(g)!r} {packs!r}\n".encode())
    assert h.hexdigest() == STRUCTURE_DIGEST_N6


def test_target_properties():
    t = parse_target("3\n1 1 0\n1 1 1\n0 1 1\n")
    assert t.edge_weight_sum == 7 and t.is_simple and t.is_connected()
    t2 = parse_target("2\n1 0\n0 1\n")
    assert not t2.is_connected()


@pytest.mark.parametrize("q", range(7))
def test_complete_target_matches_validated_build(q):
    # complete_target skips TargetGraph's validation and sets is_simple,
    # support_masks and edge_weight_sum itself: all must match the
    # validated build's
    got = complete_target(q)
    want = TargetGraph.from_rows([[int(i != j) for j in range(q)] for i in range(q)])
    assert got == want and hash(got) == hash(want)
    assert {type(x) for row in got.w for x in row} <= {Fraction}
    assert (got.is_simple, got.support_masks) == (want.is_simple, want.support_masks)
    assert type(got.edge_weight_sum) is Fraction and got.edge_weight_sum == want.edge_weight_sum
    assert got.describe() == want.describe()


def test_target_connectivity_anchors():
    assert TargetGraph.from_rows([]).is_connected()
    assert TargetGraph.from_rows([[0]]).is_connected()
    assert TargetGraph.from_rows([[3]]).is_connected()
    # two looped weighted blocks with no entry between them: loops join nothing
    blocks = [[2, "1/2", 0, 0], ["1/2", 3, 0, 0], [0, 0, "1/3", 1], [0, 0, 1, 5]]
    assert not TargetGraph.from_rows(blocks).is_connected()
    blocks[1][2] = blocks[2][1] = "1/7"
    assert TargetGraph.from_rows(blocks).is_connected()
