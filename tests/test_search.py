import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homverify import classes, search
from homverify.graphs import (
    Graph,
    bipartition,
    complete_graph,
    complete_target,
    cycle_graph,
    hard_core_target,
    parse_edgelist,
    parse_target,
    path_graph,
    to_graph6,
    widom_rowlinson_target,
)
from homverify.counting import hom_batch, hom_count
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
            for w in (x for e in g.edges if u in e for x in e):  # u's neighbours and u
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == g.n

    want = sum(1 for g in enumerate_graphs(4) if connected(g))
    assert want == 38
    assert sum(1 for g in enumerate_graphs(4) if g.is_connected()) == 38


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
    assert Fraction(num, den) == res.worst_ratio


def _scan_per_labelled_graph(target, max_n, bipartite_only):
    """The scan as one hom_count per labelled graph and edge, in
    enumeration order, keeping the first minimum."""
    tested_h = tested_edges = skipped = 0
    worst = None
    for n in range(1, max_n + 1):
        for g in enumerate_graphs(n):
            if bipartite_only and bipartition(g) is None:
                continue
            tested_h += 1
            for e in g.sorted_edges:
                den = hom_count(g.delete_edge(*e), target)
                if den == 0:
                    skipped += 1
                    continue
                tested_edges += 1
                ratio = Fraction(hom_count(g, target), den)
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


def _transfer_counts(n: int, w: np.ndarray) -> list[int]:
    # hom(P_n, W) = 1^T W^(n-1) 1 for each integer matrix of the batch
    out = []
    for mat in w.tolist():
        vec = [1] * len(mat)
        for _ in range(n - 1):
            vec = [sum(x * y for x, y in zip(row, vec)) for row in mat]
        out.append(sum(vec))
    return out


def test_hom_floats_long_path_matches_transfer_matrix():
    # 60 vertices, past the 51 of an einsum with one letter per vertex
    g = path_graph(60)
    rows = search._draw_entries(search._bit_generator(random.Random(3)), 4, 6)
    rows[-1] = 10
    w = search._weight_batch(rows, 4, g)
    assert w.dtype == object
    assert search._hom_floats(g, w).tolist() == _transfer_counts(60, w)


def test_search_long_path_finishes(monkeypatch):
    # P_22 at k = 5: the weighted walk visited up to 5^22 maps per
    # hom_count, so the first flagged sample hung; a screen forced to flag
    # every sample now has its first one refuted at once
    assert find_counterexample(path_graph(22), 5, samples=300, seed=1) is None
    screen = search._hom_floats
    monkeypatch.setattr(search, "_hom_floats", lambda g, w: screen(g, w) * (g.m < 21))
    with pytest.raises(RuntimeError, match="sample 0: .* does not confirm"):
        find_counterexample(path_graph(22), 5, samples=300, seed=1)


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


@pytest.mark.parametrize("batch", [1, 7, 1000])
def test_pinned_fork_counterexample_across_batch_sizes(monkeypatch, batch):
    # batch boundaries cut the entry stream anywhere without moving it; the
    # witness holds Python ints, not the draw's numpy scalars
    monkeypatch.setattr(search, "_BATCH", batch)
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    fork = parse_edgelist((DATA / manifest["H_file"]).read_text())
    ce = find_counterexample(fork, manifest["k"], samples=manifest["sample_index"] + 1,
                             seed=manifest["seed"])
    assert ce.sample_index == manifest["sample_index"]
    assert ce.target == parse_target((DATA / "fork_k3_counterexample.tg").read_text())
    assert {type(y) for row in ce.target.w for x in row
            for y in (x.numerator, x.denominator)} == {int}


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


def test_witness_ratio_stays_exact_on_integer_counts(monkeypatch):
    # a sample of 0s and 10/10s is an integer target, whose counts hom_count
    # returns as ints; here the confirm step gets ints for the fork's flagged
    # sample, 1 over 2, below its threshold 8/15
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    fork = parse_edgelist((DATA / manifest["H_file"]).read_text())
    monkeypatch.setattr(search, "hom_count", lambda g, target: 1 if g == fork else 2)
    ce = find_counterexample(fork, 3, samples=manifest["sample_index"] + 1,
                             seed=manifest["seed"])
    assert type(ce.ratio) is Fraction and ce.ratio == Fraction(1, 2)
    assert ce.to_json_dict()["ratio"] == "1/2"


def _key_and_pos(bits) -> tuple:
    """The generator's key and position, as Random.getstate()[1] holds them."""
    state = bits.state["state"]
    return (*state["key"].tolist(), state["pos"])


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("seed", [0, 1, 20250809, 2 ** 64 + 12345])
def test_draw_entries_is_the_randrange_stream(seed, k):
    # the bulk draw reads CPython's randrange(11) word by word: the same
    # values, and the generator at the key and position the calls leave,
    # batch after batch on one generator
    bits, calls = search._bit_generator(random.Random(seed)), random.Random(seed)
    for count in (1, 7, 16384):
        got = search._draw_entries(bits, k, count)
        want = [[calls.randrange(11) for _ in range(k * (k + 1) // 2)]
                for _ in range(count)]
        assert got.dtype == np.uint8 and got.tolist() == want
        assert _key_and_pos(bits) == calls.getstate()[1]


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("prefix", ["gauss", "odd_words", "gauss_odd_words"])
def test_draw_entries_hands_back_the_whole_state(prefix, k):
    # gauss() leaves gauss_next set, and an odd number of 32-bit words moves
    # the position off 624; the loaded generator must start at that position,
    # go on as the calls would, and hold, with the untouched Random's
    # gauss_next, the whole state the calls leave
    loaded, calls = random.Random(7), random.Random(7)
    for rng in (loaded, calls):
        if "gauss" in prefix:
            rng.gauss(0, 1)
        if "odd_words" in prefix:
            for _ in range(3):
                rng.getrandbits(32)
    bits = search._bit_generator(loaded)
    assert _key_and_pos(bits) == calls.getstate()[1]
    assert (calls.getstate()[1][-1] % 2 == 1) == ("odd_words" in prefix)
    assert loaded.getstate() == calls.getstate()  # loading leaves the Random as it was
    if "gauss" in prefix:
        assert loaded.getstate()[2] is not None
    for count in (1, 5, 1000, 16384):
        got = search._draw_entries(bits, k, count)
        want = [[calls.randrange(11) for _ in range(k * (k + 1) // 2)]
                for _ in range(count)]
        assert got.tolist() == want
        assert _key_and_pos(bits) == calls.getstate()[1]
    # the generator's key and position, with gauss_next, are the whole state
    handed = random.Random()
    handed.setstate((3, _key_and_pos(bits), loaded.getstate()[2]))
    assert handed.getstate() == calls.getstate()
    # and everything goes on alike from there
    assert int(bits.random_raw()) == handed.getrandbits(32) == calls.getrandbits(32)
    assert handed.gauss(0, 1) == calls.gauss(0, 1)


def test_setup_does_not_import_numpy_random():
    # numpy.random is imported at the first draw, so the CLI's set-up stays
    # lean; numpy 1.x loads it with numpy itself, where there is nothing to test
    src = str(Path(search.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def loaded(modules: str) -> bool:
        code = f"import sys, {modules}; print('numpy.random' in sys.modules)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, env=env, timeout=60)
        assert r.returncode == 0, r.stderr
        return r.stdout.strip() == "True"

    if loaded("numpy"):
        pytest.skip("importing numpy alone loads numpy.random")
    assert not loaded("homverify.cli, homverify.search, homverify.sweeps")


_TRIU5 = [(i, j) for i in range(5) for j in range(i, 5)]


@pytest.mark.parametrize("g,diagonal", [(complete_graph(6), False), (path_graph(22), True),
                                        (path_graph(22), False)])
def test_hom_batch_past_int64_is_exact(g, diagonal):
    # k^(n+2) * 10^m passes 2^63, so the batch holds Python ints; the last
    # matrix has hom(g, E) past 2^63.  One entry 9 keeps its Fraction
    # target off the 0/1 walk, which would visit all 5^22 maps of P_22.
    # Diagonal targets, whose support is only loops, are checked too.
    k = 5
    rows = search._draw_entries(search._bit_generator(random.Random(11)), k, 13)
    rows[-1] = 10
    rows[-1, 0] = 9
    if diagonal:
        rows[:, [i != j for i, j in _TRIU5]] = 0
    w = search._weight_batch(rows, k, g)
    assert w.dtype == object
    assert {type(x) for x in w.flat} == {int}
    got = search._hom_floats(g, w)
    assert got[-1] > 2 ** 63
    for row, x in zip(rows.tolist(), got):
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


# sources, their deletions H - e and how many isomorphism classes those fall
# into; P_9 is past MAX_N, where every deletion is screened on its own
_FORK = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
_TREE7 = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6)])
_SCREENED_SOURCES = {
    "P4": (path_graph(4), 2),
    "C4": (cycle_graph(4), 1),
    "K13": (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1),
    "fork": (_FORK, 3),
    "tree7": (_TREE7, 5),
    "P9": (path_graph(9), 8),
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", sorted(_SCREENED_SOURCES))
def test_screening_one_deletion_per_class_loses_nothing(name, k):
    g, n_classes = _SCREENED_SOURCES[name]
    deletions = [(e, g.delete_edge(*e)) for e in g.sorted_edges]
    screens = search._screens(g, deletions)
    # deletions themselves, in edge order, the first of them among them
    assert len(screens) == n_classes and screens[0] is deletions[0][1]
    in_order = iter(h for _e, h in deletions)
    assert all(any(h is x for x in in_order) for h in screens)
    rows = search._draw_entries(search._bit_generator(random.Random(k)), k, 4000)
    w = search._weight_batch(rows, k, g)
    s = w.sum(axis=(1, 2))
    lhs = k * k * hom_batch(g, w)
    want = np.zeros(len(w), dtype=bool)
    for _e, h_minus in deletions:
        want |= lhs < s * hom_batch(h_minus, w)
    assert search._flag(g, screens, w).tolist() == want.tolist()
    assert want.any() == (name in ("fork", "tree7"))


@pytest.mark.parametrize("seed", [1, 2, 20250809])
def test_grouped_search_matches_per_deletion_search(monkeypatch, seed):
    got = find_counterexample(_FORK, 3, samples=20000, seed=seed)
    assert got is not None
    monkeypatch.setattr(search, "_screens", lambda g, deletions: [h for _e, h in deletions])
    assert find_counterexample(_FORK, 3, samples=20000, seed=seed) == got


def test_search_on_seven_vertices_builds_no_class_table(monkeypatch):
    # the class key of H - e is read from the permutation images alone: the
    # table on 7 vertices takes a tenth of a second or more and about 16 MB
    def refuse(n):
        if n == 7:
            raise AssertionError("class_table(7) was called")
        return real(n)

    real = classes.class_table
    for module in list(sys.modules.values()):
        if module.__name__.startswith("homverify") and hasattr(module, "class_table"):
            monkeypatch.setattr(module, "class_table", refuse)
    deletions = [(e, _TREE7.delete_edge(*e)) for e in _TREE7.sorted_edges]
    assert len(search._screens(_TREE7, deletions)) == 5
    ce = find_counterexample(_TREE7, 3, samples=2000, seed=1)
    assert ce is not None and ce.ratio < ce.threshold
