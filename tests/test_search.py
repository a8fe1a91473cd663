import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from homverify import search
from homverify.graphs import (
    Graph,
    complete_graph,
    complete_target,
    hard_core_target,
    parse_edgelist,
    parse_target,
    path_graph,
    to_graph6,
    widom_rowlinson_target,
)
from homverify.counting import hom_count
from homverify.search import (
    edge_mono_scan,
    enumerate_graphs,
    find_counterexample,
    iter_edge_sets,
)

from conftest import weighted_targets

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    assert len(list(enumerate_graphs(2))) == 2
    assert len(list(enumerate_graphs(3))) == 8
    for n in range(1, 6):
        assert len(list(enumerate_graphs(n))) == 2 ** (n * (n - 1) // 2)


def test_enumeration_connected_filter():
    # independent connectivity oracle over all 64 labeled graphs on 4 vertices
    def connected(g):
        if g.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.n

    want = sum(1 for g in enumerate_graphs(4) if connected(g))
    assert want == 38
    assert len(list(enumerate_graphs(4, connected=True))) == 38


def test_enumeration_lex_order():
    first = [g.sorted_edges for g in enumerate_graphs(3)]
    assert first[:4] == [
        (),
        ((0, 1),),
        ((0, 1), (0, 2)),
        ((0, 1), (0, 2), (1, 2)),
    ]
    # lexicographic on the sorted edge tuples
    assert first == sorted(first)


def test_enumeration_range():
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        next(enumerate_graphs(8))
    with pytest.raises(ValueError):
        list(enumerate_graphs(9))


def test_iter_edge_sets_matches_enumeration():
    assert sum(1 for _ in iter_edge_sets(4)) == 64


# ---------------------------------------------------------------------------
# Edge-monotonicity scans
# ---------------------------------------------------------------------------

def test_scan_hard_core():
    res = edge_mono_scan(hard_core_target(), 4)
    assert res.threshold == Fraction(3, 4)
    assert res.satisfies_all
    assert res.worst_ratio == Fraction(3, 4)  # tight exactly at a single edge
    assert res.skipped_zero_denominator == 0


def test_scan_wr():
    res = edge_mono_scan(widom_rowlinson_target(), 4)
    assert res.threshold == Fraction(7, 9)
    assert res.satisfies_all and res.worst_ratio == Fraction(7, 9)


def test_scan_k3_bipartite():
    res = edge_mono_scan(complete_target(3), 4, bipartite_only=True)
    assert res.threshold == Fraction(2, 3)
    assert res.satisfies_all and res.worst_ratio >= Fraction(2, 3)


def test_scan_result_consistency():
    res = edge_mono_scan(hard_core_target(), 3)
    d = res.to_json_dict()
    assert d["satisfies_all"] == (res.worst_ratio >= res.threshold)
    assert d["worst"]["ratio"] == "3/4"
    # worst witness re-verifies
    from homverify.graphs import parse_graph6

    g = parse_graph6(res.worst_h)
    num = hom_count(g, hard_core_target())
    den = hom_count(g.delete_edge(*res.worst_edge), hard_core_target())
    assert num / den == res.worst_ratio


def _scan_per_labelled_graph(target, max_n, bipartite_only):
    """The scan as one hom_count per labelled graph and edge, in
    enumeration order, keeping the first minimum."""
    tested_h = tested_edges = skipped = 0
    worst = None
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n, bipartite=bipartite_only):
            tested_h += 1
            for e in g.sorted_edges:
                den = hom_count(g.delete_edge(*e), target)
                if den == 0:
                    skipped += 1
                    continue
                tested_edges += 1
                ratio = hom_count(g, target) / den
                if worst is None or ratio < worst[0]:
                    worst = (ratio, to_graph6(g), e)
    return tested_h, tested_edges, skipped, worst


@given(weighted_targets(max_k=3), st.booleans())
@settings(max_examples=25, deadline=None)
def test_scan_matches_per_labelled_graph_scan(target, bipartite_only):
    res = edge_mono_scan(target, 4, bipartite_only=bipartite_only)
    tested_h, tested_edges, skipped, worst = _scan_per_labelled_graph(target, 4, bipartite_only)
    assert (res.tested_h, res.tested_edges, res.skipped_zero_denominator) == \
        (tested_h, tested_edges, skipped)
    if worst is None:
        assert res.worst_h is None and res.satisfies_all
    else:
        assert (res.worst_ratio, res.worst_h, res.worst_edge) == worst
        assert res.satisfies_all == (worst[0] >= res.threshold)


def test_scan_guard():
    with pytest.raises(ValueError):
        edge_mono_scan(hard_core_target(), 8)
    with pytest.raises(ValueError):
        edge_mono_scan(hard_core_target(), 0)


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------

def test_single_edge_never_violates():
    # for H = K_2 the ratio equals the threshold by definition
    assert find_counterexample(path_graph(2), 3, samples=500, seed=7) is None


def test_one_vertex_target_never_violates():
    assert find_counterexample(path_graph(4), 1, samples=200, seed=7) is None


def test_search_validation():
    with pytest.raises(ValueError):
        find_counterexample(path_graph(4), 6, samples=10, seed=0)
    with pytest.raises(ValueError):
        find_counterexample(path_graph(4), 3, samples=0, seed=0)


def test_pinned_fork_counterexample():
    """Regression fixture: 5-vertex fork tree, k=3, found by this search."""
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    fork = parse_edgelist((DATA / manifest["H_file"]).read_text())
    assert to_graph6(fork) == manifest["H"]
    ce = find_counterexample(fork, manifest["k"], samples=manifest["sample_index"] + 1,
                             seed=manifest["seed"])
    assert ce is not None
    assert ce.sample_index == manifest["sample_index"]
    assert list(ce.edge) == manifest["edge"]
    assert f"{ce.ratio.numerator}/{ce.ratio.denominator}" == manifest["ratio"]
    assert f"{ce.threshold.numerator}/{ce.threshold.denominator}" == manifest["threshold"]
    # the pinned target file holds the same matrix
    pinned = parse_target((DATA / "fork_k3_counterexample.tg").read_text())
    assert pinned == ce.target


def test_pinned_counterexample_reverifies_from_scratch():
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    fork = parse_edgelist((DATA / manifest["H_file"]).read_text())
    target = parse_target((DATA / "fork_k3_counterexample.tg").read_text())
    e = tuple(manifest["edge"])
    num = hom_count(fork, target)
    den = hom_count(fork.delete_edge(*e), target)
    assert den > 0
    ratio = num / den
    threshold = target.edge_weight_sum / target.k ** 2
    assert ratio < threshold
    assert f"{ratio.numerator}/{ratio.denominator}" == manifest["ratio"]


def test_screen_flags_only_violations(monkeypatch):
    # the integer screen is exact: on P4, whose grid margins bottom out at
    # 0, no tie is flagged, and on the fork only the witness is
    flagged = []
    confirm = search._entries_to_target
    monkeypatch.setattr(search, "_entries_to_target",
                        lambda entries, k: flagged.append(entries) or confirm(entries, k))
    assert find_counterexample(path_graph(4), 3, samples=20000, seed=1) is None
    assert flagged == []
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    fork = parse_edgelist((DATA / manifest["H_file"]).read_text())
    ce = find_counterexample(fork, 3, samples=20000, seed=manifest["seed"])
    assert ce.sample_index == manifest["sample_index"] and len(flagged) == 1


def test_unconfirmed_candidate_raises(monkeypatch):
    # a screen that flags what hom_count does not confirm is a defect
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    fork = parse_edgelist((DATA / manifest["H_file"]).read_text())
    monkeypatch.setattr(search, "hom_count", lambda g, target: Fraction(1))
    with pytest.raises(RuntimeError, match="does not confirm"):
        find_counterexample(fork, 3, samples=manifest["sample_index"] + 1,
                            seed=manifest["seed"])


_TRIU5 = [(i, j) for i in range(5) for j in range(i, 5)]


@pytest.mark.parametrize("g,diagonal", [(complete_graph(6), False), (path_graph(22), True)])
def test_hom_batch_past_int64_is_exact(g, diagonal):
    # k^(n+2) * 10^m passes 2^63, so the batch holds Python ints; the
    # all-tens matrix has hom(g, E) past 2^63.  hom_count walks P_22 only
    # on diagonal targets, one choice per vertex after the first.
    k = 5
    rng = random.Random(11)
    rows = [search._draw_entries(rng, k) for _ in range(12)] + [[10] * 15]
    if diagonal:
        rows = [[x if i == j else 0 for (i, j), x in zip(_TRIU5, r)] for r in rows]
    w = search._weight_batch(rows, k, g)
    assert w.dtype == object
    got = search._hom_floats(g, w)
    assert got[-1] > 2 ** 63
    for row, x in zip(rows, got):
        assert x == hom_count(g, search._entries_to_target(row, k)) * 10 ** g.m


def test_search_determinism():
    fork = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    a = find_counterexample(fork, 3, samples=5000, seed=123)
    b = find_counterexample(fork, 3, samples=5000, seed=123)
    assert a == b
    c = find_counterexample(fork, 3, samples=5000, seed=124)
    # different stream; may or may not find the same witness
    if c is not None and a is not None:
        assert c.ratio < c.threshold
