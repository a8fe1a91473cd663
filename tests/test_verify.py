import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homverify.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    complete_target,
    cycle_graph,
    empty_graph,
    hard_core_target,
    identify_vertices,
    path_graph,
    widom_rowlinson_target,
)
from homverify.counting import chrom_eval
from homverify.verify import (
    HOLDS,
    INAPPLICABLE,
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
    equal_color_probability,
    free_energy_gap,
    is_balanced_bipartite,
)

from conftest import brute_chrom, graphs, graphs_with_edge


# ---------------------------------------------------------------------------
# Theorem: color correlation at vertex pairs
# ---------------------------------------------------------------------------

def test_correlation_isolated_pair_tight():
    rs = check_correlation_coloring(empty_graph(2), 3)
    assert len(rs) == 1
    r = rs[0]
    assert r.lhs == Fraction(1, 3) and r.margin == 0 and r.verdict == HOLDS


def test_correlation_adjacent_pair():
    rs = check_correlation_coloring(path_graph(2), 3)
    assert rs[0].claim == "thm1_1_cross"
    assert rs[0].lhs == 0 and rs[0].verdict == HOLDS


def test_correlation_path_endpoints():
    # both proper 2-colorings of the 3-path give the endpoints equal colors
    assert brute_chrom(path_graph(3), 2) == 2
    rs = check_correlation_coloring(path_graph(3), 2)
    r = [x for x in rs if "pair=(0,2)" in x.instance][0]
    assert r.claim == "thm1_1_same" and r.lhs == 1 and r.verdict == HOLDS


def test_correlation_inapplicable():
    for q in (1, 3):
        rs = check_correlation_coloring(cycle_graph(3), q)
        assert len(rs) == 1 and rs[0].verdict == INAPPLICABLE and "bipartite" in rs[0].reason
    # a bipartite graph with no proper q-coloring: one report per pair
    rs = check_correlation_coloring(path_graph(3), 1)
    assert [r.instance.split(" ", 1)[1] for r in rs] == [
        "q=1 pair=(0,1) cross", "q=1 pair=(0,2) same", "q=1 pair=(1,2) cross"]
    assert [r.claim for r in rs] == ["thm1_1_cross", "thm1_1_same", "thm1_1_cross"]
    assert all(r.verdict == INAPPLICABLE and r.reason == "no proper 1-colorings" for r in rs)


def test_no_coloring_cases_are_inapplicable_or_raise():
    # P_4 has no proper 1-coloring, so neither the ratio nor the probability
    # is defined
    r = check_edge_ratio(path_graph(4), "coloring", (0, 3), 1)
    assert r.verdict == INAPPLICABLE and r.reason == "no proper 1-colorings of the base graph"
    with pytest.raises(ValueError, match="no proper colorings"):
        equal_color_probability(path_graph(2), 0, 1, 1)


def test_wr_ratio_needs_a_present_edge():
    r = check_edge_ratio(path_graph(3), "wr", (0, 2))
    assert r.verdict == INAPPLICABLE and r.reason == "edge not present"


def _brute_equal_prob(g, u, v, q):
    import itertools

    same = total = 0
    for phi in itertools.product(range(q), repeat=g.n):
        if all(phi[a] != phi[b] for a, b in g.edges):
            total += 1
            same += phi[u] == phi[v]
    return Fraction(same, total)


@given(graphs(min_n=2, max_n=5), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_equal_color_probability_matches_brute(g, q):
    if brute_chrom(g, q) == 0:
        return
    for u in range(g.n):
        for v in range(u + 1, g.n):
            p = equal_color_probability(g, u, v, q)
            assert 0 <= p <= 1
            assert p == _brute_equal_prob(g, u, v, q)


@given(graphs(min_n=2, max_n=5), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_identification_consistency(g, q):
    """Colorings split at a non-edge: identified + with-edge = all."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            assert chrom_eval(identify_vertices(g, u, v), q) + \
                chrom_eval(g.add_edge(u, v), q) == chrom_eval(g, q)


# ---------------------------------------------------------------------------
# Edge ratios
# ---------------------------------------------------------------------------

def test_edge_ratio_tight_at_k2():
    r = check_edge_ratio(path_graph(2), "independent", (0, 1))
    assert r.lhs == Fraction(3, 4) and r.rhs == Fraction(3, 4) and r.margin == 0
    r = check_edge_ratio(path_graph(2), "wr", (0, 1))
    assert r.lhs == Fraction(7, 9) and r.margin == 0


def test_edge_ratio_coloring_example():
    # edge 0-1 plus isolated vertex 2; the missing edge (1,2) splits counts 2 vs 4
    h = Graph.from_edges(3, [(0, 1)])
    r = check_edge_ratio(h, "coloring", (1, 2), 2)
    assert r.lhs == Fraction(1, 2) and r.rhs == Fraction(1, 2) and r.margin == 0


def test_edge_ratio_inapplicable_cases():
    r = check_edge_ratio(path_graph(3), "coloring", (0, 1), 3)
    assert r.verdict == INAPPLICABLE  # edge already present
    tri_minus = Graph.from_edges(3, [(0, 1), (1, 2)])
    r = check_edge_ratio(tri_minus, "coloring", (0, 2), 3)
    assert r.verdict == INAPPLICABLE  # closing the triangle is not bipartite
    r = check_edge_ratio(path_graph(3), "independent", (0, 2))
    assert r.verdict == INAPPLICABLE


def test_edge_ratio_model_validation():
    with pytest.raises(ValueError):
        check_edge_ratio(path_graph(2), "nosuch", (0, 1))
    with pytest.raises(ValueError):
        check_edge_ratio(empty_graph(3), "coloring", (0, 1))


# ---------------------------------------------------------------------------
# Sidorenko bounds
# ---------------------------------------------------------------------------

def test_sidorenko_examples():
    r = check_sidorenko_bound(empty_graph(3), complete_target(4))
    assert r.lhs == r.rhs == 64 and r.margin == 0
    r = check_sidorenko_bound(cycle_graph(4), complete_target(3))
    assert r.lhs == 18 and r.rhs == 16 and r.verdict == HOLDS
    r = check_sidorenko_bound(cycle_graph(3), hard_core_target())
    assert r.lhs == 4 and r.rhs == Fraction(27, 8)
    r = check_sidorenko_bound(cycle_graph(3), widom_rowlinson_target())
    assert r.lhs == 15 and r.verdict == HOLDS
    r = check_sidorenko_bound(cycle_graph(3), complete_target(3))
    assert r.verdict == INAPPLICABLE  # odd cycle into a generic target


# ---------------------------------------------------------------------------
# Cycle packing bound
# ---------------------------------------------------------------------------

def test_cycle_packing_examples():
    r = check_cycle_packing_bound(cycle_graph(4), 3, 4)
    assert r.lhs == 18 and r.rhs == 18 and r.margin == 0
    r = check_cycle_packing_bound(cycle_graph(6), 3, 6)
    assert r.lhs == 66 and r.rhs == 66
    pend = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    r = check_cycle_packing_bound(pend, 3, 4)
    # S is the 4-cycle plus the isolated pendant vertex: 18 * 3 * (2/3)
    assert r.lhs == 36 and r.rhs == 36
    r = check_cycle_packing_bound(cycle_graph(3), 3, 4)
    assert r.verdict == INAPPLICABLE


def test_cycle_packing_headline():
    r = check_cycle_packing_headline(cycle_graph(4), 3, 4)
    assert r.lhs == 18 and r.rhs == 18 and r.margin == 0
    r = check_cycle_packing_headline(cycle_graph(4), 2, 4)
    assert r.lhs == 2 and r.rhs == 2
    # packing-free graphs reduce to the plain coloring floor
    r = check_cycle_packing_headline(path_graph(4), 3, 6)
    assert r.rhs == Fraction(3 ** 4) * Fraction(2, 3) ** 3 and r.verdict == HOLDS


# ---------------------------------------------------------------------------
# Connected floors
# ---------------------------------------------------------------------------

def test_connected_ind_bound_examples():
    r = check_connected_ind_bound(path_graph(4))
    assert r.lhs == 8 and r.rhs == 8 and r.margin == 0
    r = check_connected_ind_bound(cycle_graph(4))
    assert r.lhs == 7 and r.rhs == 6
    r = check_connected_ind_bound(complete_graph(3))
    assert r.lhs == 4 and r.rhs == Fraction(15, 4)
    r = check_connected_ind_bound(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert r.verdict == INAPPLICABLE


def test_connected_ind_bound_no_vertices():
    # the graph with no vertices is connected and has one independent set:
    # F_2 = 1, so the bound is 1 >= 3/4 (e - n + 1 = 1)
    r = check_connected_ind_bound(Graph.from_edges(0, []))
    assert (r.lhs, r.rhs, r.margin) == (1, Fraction(3, 4), Fraction(1, 4))
    assert r.advisory_float == (1.0, 0.75)


def test_connected_ind_bound_closed_form_advisory():
    for g in (path_graph(4), cycle_graph(4), complete_graph(4), path_graph(7)):
        r = check_connected_ind_bound(g)
        f_lhs, f_rhs = r.advisory_float
        assert f_lhs > f_rhs - 1e-9  # published strict closed form


def test_connected_wr_bound_examples():
    r = check_connected_wr_bound(path_graph(2))
    assert r.lhs == 7
    assert abs(r.advisory_float[0] - 7) < 1e-12
    bound = 2 * math.sqrt(2) * (1 + math.sqrt(2))
    assert float(r.rhs) == pytest.approx(bound, abs=2e-9)
    r = check_connected_wr_bound(path_graph(3))
    assert r.lhs == 17 and r.verdict == HOLDS
    r = check_connected_wr_bound(complete_graph(3))
    assert r.lhs == 15 and r.verdict == HOLDS
    r = check_connected_wr_bound(Graph.from_edges(3, [(0, 1)]))
    assert r.verdict == INAPPLICABLE


def test_connected_wr_bound_closed_form_advisory():
    for g in (path_graph(2), path_graph(5), cycle_graph(5), complete_graph(4)):
        r = check_connected_wr_bound(g)
        f_lhs, f_rhs = r.advisory_float
        assert f_lhs > f_rhs - 1e-9


# ---------------------------------------------------------------------------
# The conditional lemma behind the Widom-Rowlinson ratio
# ---------------------------------------------------------------------------

def _brute_wr_conditionals(h, u, v):
    import itertools

    aa = ac = 0
    for phi in itertools.product("abc", repeat=h.n):
        if any({phi[x], phi[y]} == {"a", "c"} for x, y in h.edges):
            continue
        aa += phi[u] == "a" and phi[v] == "a"
        ac += phi[u] == "a" and phi[v] == "c"
    return aa, ac


def test_wr_lemma_examples():
    r = check_wr_lemma(path_graph(2), (0, 1))
    assert r.lhs == 1 and r.rhs == 1 and r.margin == 0
    # 3-path, first edge removed: remainder is an isolated vertex plus an edge
    h = path_graph(3).delete_edge(0, 1)
    aa, ac = _brute_wr_conditionals(h, 0, 1)
    r = check_wr_lemma(path_graph(3), (0, 1))
    assert (r.lhs, r.rhs) == (aa, ac) == (2, 2)
    # triangle edge: remainder is the 3-path with constrained endpoints
    aa, ac = _brute_wr_conditionals(cycle_graph(3).delete_edge(0, 1), 0, 1)
    r = check_wr_lemma(cycle_graph(3), (0, 1))
    assert (r.lhs, r.rhs) == (aa, ac) == (2, 1)
    with pytest.raises(ValueError):
        check_wr_lemma(path_graph(3), (0, 2))


@given(graphs_with_edge(max_n=5))
@settings(max_examples=60, deadline=None)
def test_wr_lemma_matches_brute(ge):
    g, (u, v) = ge
    aa, ac = _brute_wr_conditionals(g.delete_edge(u, v), u, v)
    r = check_wr_lemma(g, (u, v))
    assert r.lhs == aa and r.rhs == ac and r.verdict == HOLDS


# ---------------------------------------------------------------------------
# Free-energy envelope
# ---------------------------------------------------------------------------

def test_free_energy_cycle_anchor():
    gap, env, within = free_energy_gap(cycle_graph(4), 17)
    exact = math.log(16 ** 4 + 16) / 4 - (math.log(17) + math.log(16 / 17))
    assert abs(gap - exact) < 1e-12
    assert env == pytest.approx(2 * (16 / 17) ** 3 / (1 - 16 / 17))
    assert within


def test_free_energy_girth_shrinks_gap_and_envelope():
    g4, e4, _ = free_energy_gap(cycle_graph(4), 17)
    g6, e6, _ = free_energy_gap(cycle_graph(6), 17)
    assert abs(g6) < abs(g4) and e6 < e4


def test_free_energy_inapplicable():
    with pytest.raises(ValueError, match="girth"):
        free_energy_gap(path_graph(4), 17)
    with pytest.raises(ValueError, match="q > 8d"):
        free_energy_gap(cycle_graph(4), 16)
    r = check_free_energy_envelope(path_graph(4), 17)
    assert r.verdict == INAPPLICABLE
    r = check_free_energy_envelope(cycle_graph(4), 17)
    assert r.verdict == HOLDS


# ---------------------------------------------------------------------------
# Balanced bipartite floor
# ---------------------------------------------------------------------------

def test_balanced_examples():
    r = check_balanced_bipartite_bound(cycle_graph(4), 4)
    assert r.lhs == 84 and r.rhs == 16 and r.verdict == HOLDS
    r = check_balanced_bipartite_bound(complete_bipartite(2, 2), 3)
    assert r.lhs == 18 and r.rhs == 4
    r = check_balanced_bipartite_bound(empty_graph(4), 2)
    assert r.lhs == 16 and r.rhs == 1
    r = check_balanced_bipartite_bound(path_graph(3), 2)
    assert r.verdict == INAPPLICABLE
    r = check_balanced_bipartite_bound(cycle_graph(3), 2)
    assert r.verdict == INAPPLICABLE


def test_balanced_rebalancing_components():
    # one K_1,2 star plus one isolated vertex: sides 1+2 can re-balance to 2+2
    g = Graph.from_edges(4, [(0, 1), (0, 2)])
    assert is_balanced_bipartite(g)
    # a 1+3 star cannot
    assert not is_balanced_bipartite(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))


@given(graphs(max_n=6), st.integers(2, 4))
@settings(max_examples=80, deadline=None)
def test_balanced_never_violated(g, q):
    r = check_balanced_bipartite_bound(g, q)
    assert r.verdict in (HOLDS, INAPPLICABLE)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def test_report_json_shape():
    r = check_edge_ratio(path_graph(2), "independent", (0, 1))
    d = r.to_json_dict()
    assert set(d) == {"instance", "claim", "lhs", "rhs", "verdict", "margin",
                      "advisory_float", "reason"}
    assert d["lhs"] == "3/4" and d["margin"] == "0/1" and d["reason"] is None
    d = check_edge_ratio(path_graph(3), "independent", (0, 2)).to_json_dict()
    assert d["verdict"] == "inapplicable" and d["lhs"] is None and d["reason"]
