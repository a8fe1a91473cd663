"""The isomorphism-class tables: class counts, orbit sizes, relabelling
invariance, the class of every mask against a brute-force canonical form,
enumeration order, the bit maps the sweeps gather through, the chromatic
polynomials derived over the tables, and the vectorised graph6 namer."""

import math
import random
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homverify.classes import (
    canonical_masks,
    class_table,
    enumeration_order,
    graph6_names,
    iter_edge_sets,
    remap,
    vertex_pairs,
)
from homverify.counting import chrom_poly
from homverify.graphs import Graph, identify_vertices, to_graph6
from homverify.sweeps import _class_polys, _delete_map, _identify_map

# OEIS A000088: graphs on n unlabelled vertices
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def _mask(n, edges):
    index = {p: i for i, p in enumerate(vertex_pairs(n))}
    return sum(1 << index[e] for e in edges)


def _relabel(n, mask, perm):
    pairs = vertex_pairs(n)
    return _mask(n, [tuple(sorted((perm[a], perm[b])))
                     for i, (a, b) in enumerate(pairs) if mask >> i & 1])


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_class_counts_and_orbit_sizes(n):
    t = class_table(n)
    assert len(t.reps) == CLASS_COUNTS[n]
    # orbit sizes n!/|Aut| cover every labelled graph exactly once
    assert int(t.size.sum()) == 2 ** (n * (n - 1) // 2)
    assert all(math.factorial(n) % int(s) == 0 for s in t.size)


@pytest.mark.parametrize("n", range(7))
def test_classes_are_orbits_of_the_minimum_relabelled_mask(n):
    # canonical form of every mask: its minimum over all n! relabellings,
    # each relabelling moving the mask's bits one pair at a time; two masks
    # share a class exactly when they share this form
    pairs = vertex_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    canon = masks.copy()
    for perm in permutations(range(n)):
        moved = np.zeros_like(masks)
        for i, (a, b) in enumerate(pairs):
            moved |= ((masks >> i) & 1) << index[tuple(sorted((perm[a], perm[b])))]
        np.minimum(canon, moved, out=canon)
    t = class_table(n)
    assert len(np.unique(canon)) == len(t.reps)
    assert len(np.unique(t.cls.astype(np.int64) << 32 | canon)) == len(t.reps)


@pytest.mark.parametrize("n", range(7))
def test_canonical_masks_split_masks_as_the_class_table(n):
    # every mask for n <= 5, a seeded sample at n = 6 (all 2^15 at once
    # would hold 2^15 x 720 images); each key is the least mask of its
    # mask's class, so keys and class ids split the masks alike
    t = class_table(n)
    p = len(t.pairs)
    if n <= 5:
        masks = np.arange(1 << p, dtype=np.int64)
    else:
        masks = np.random.default_rng(6).choice(1 << p, 3000, replace=False)
    least = np.full(len(t.reps), 1 << p, dtype=np.int64)
    np.minimum.at(least, t.cls, np.arange(1 << p))
    keys = canonical_masks(n, masks)
    assert keys.tolist() == least[t.cls[masks]].tolist()
    pairs = set(zip(keys.tolist(), t.cls[masks].tolist()))
    assert len(pairs) == len(set(keys.tolist())) == len(set(t.cls[masks].tolist()))


@pytest.mark.parametrize("n", range(7))
def test_class_polys_match_chrom_poly(n):
    # the recurrence over the tables against deletion-contraction on each
    # representative
    t = class_table(n)
    assert _class_polys(t) == [chrom_poly(g) for g in t.reps]


def test_class_polys_match_chrom_poly_on_every_labelled_graph():
    # chrom_poly on every labelled graph, each against its class's
    # polynomial from the recurrence over the tables
    for n in range(7):
        t = class_table(n)
        polys = _class_polys(t)
        for mask in range(1 << len(t.pairs)):
            assert chrom_poly(t.graph(mask)) == polys[t.cls[mask]], (n, mask)


@pytest.mark.parametrize("n", range(1, 7))
def test_order_is_enumeration_order(n):
    t = class_table(n)
    assert t.order.tolist() == [_mask(n, es) for es in iter_edge_sets(n)]


def test_order_at_seven_is_lexicographic_on_sorted_bits():
    """iter_edge_sets' order at n = 7, which the oracle sweep's batches
    follow, without its 2^21 tuples: every mask once, and each consecutive
    pair in lexicographic order of the sorted bit lists.  Below the lowest
    bit where a and b differ they agree; if a has that bit, a < b iff b
    has a higher bit, and otherwise a < b iff a has none."""
    start = time.perf_counter()
    order = enumeration_order(21).astype(np.int64)
    assert order[0] == 0 and (np.sort(order) == np.arange(1 << 21)).all()
    a, b = order[:-1], order[1:]
    low = (a ^ b) & -(a ^ b)
    assert np.where(a & low, b >= 2 * low, a < low).all()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", range(1, 6))
def test_representative_is_first_of_its_class(n):
    t = class_table(n)
    seen = {}
    for rank, m in enumerate(t.order.tolist()):
        seen.setdefault(int(t.cls[m]), rank)
    assert [seen[c] for c in range(len(t.reps))] == t.first_rank.tolist()
    assert [t.graph(int(t.order[r])) for r in t.first_rank] == t.reps


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 21 - 1), st.randoms(use_true_random=False))
def test_class_invariant_under_relabelling(n, raw, rnd):
    t = class_table(n)
    mask = raw % (1 << len(t.pairs))
    perm = list(range(n))
    rnd.shuffle(perm)
    assert t.cls[_relabel(n, mask, perm)] == t.cls[mask]


def test_classes_separate_non_isomorphic_graphs():
    # at n = 5 every class has a distinct minimum graph6 name over all relabellings
    t = class_table(5)
    canon = [min(to_graph6(t.graph(_relabel(5, _mask(5, g.edges), p)))
                 for p in permutations(range(5))) for g in t.reps]
    assert len(set(canon)) == len(canon)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bit_maps_match_graph_operations(n):
    t = class_table(n)
    rng = random.Random(n)
    p = len(t.pairs)
    masks = np.array(rng.sample(range(1 << p), min(20, 1 << p)), dtype=np.int32)
    t1, t2 = class_table(n - 1), class_table(n - 2)
    for u, v in t.pairs:
        ident = remap(masks, _identify_map(t, u, v))
        dele = remap(masks, _delete_map(t, u, v))
        for m, mi, md in zip(masks.tolist(), ident.tolist(), dele.tolist()):
            g = t.graph(m)
            assert t1.graph(mi) == identify_vertices(g, u, v)
            assert t2.graph(md) == g.delete_vertices((u, v))


@pytest.mark.parametrize("n", range(1, 7))
def test_graph6_names_match_to_graph6(n):
    pairs = vertex_pairs(n)
    masks = np.arange(1 << len(pairs), dtype=np.int32)
    want = [to_graph6(Graph(n, frozenset(e for i, e in enumerate(pairs) if m >> i & 1)))
            for m in masks.tolist()]
    assert graph6_names(n, masks) == want
    # any int dtype, any order
    assert graph6_names(n, masks[::-1].astype(np.int64)) == want[::-1]
    # '\\' (92) is a graph6 character that JSON escapes; names with it
    # occur from n = 4 on
    assert (n >= 4) == any("\\" in name for name in want)
