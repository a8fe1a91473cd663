"""An all-masks counter as an independent leg of the counter cross-checks.

For a 0/1 target T, a map phi of the n vertices is a homomorphism from the
graph of edge mask M exactly when bad(phi), the set of pairs that phi sends
onto a zero entry, misses M.  So hom(G_M, T) is the number of maps whose
bad set lies inside the complement of M: a histogram of bad over the k^n
maps followed by a subset-sum (zeta) transform over the 2^p masks (Yates
1937; Bjorklund, Husfeldt, Kaski & Koivisto, "Fourier meets Mobius", STOC
2007) gives it for every mask at once.  It shares no code with the
library's counters or class tables.
"""

import itertools

import numpy as np
import pytest

from homverify import counting
from homverify.classes import class_table, vertex_pairs
from homverify.counting import chrom_poly, hom_count, ind_count, wr_count
from homverify.graphs import complete_target, hard_core_target, widom_rowlinson_target


def all_masks_hom(n: int, target) -> np.ndarray:
    """hom(G_M, target) for every edge mask M on n vertices (bit i stands
    for vertex_pairs(n)[i]), for a target with 0/1 entries."""
    pairs = vertex_pairs(n)
    p = len(pairs)
    zero = np.array([[x == 0 for x in row] for row in target.w], dtype=np.int64)
    maps = np.array(list(itertools.product(range(target.k), repeat=n)),
                    dtype=np.int64).reshape(target.k ** n, n)
    bad = np.zeros(len(maps), dtype=np.int64)
    for i, (u, v) in enumerate(pairs):
        bad |= zero[maps[:, u], maps[:, v]] << i
    f = np.bincount(bad, minlength=1 << p)
    for i in range(p):
        view = f.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return f[((1 << p) - 1) ^ np.arange(1 << p)]


@pytest.mark.parametrize("n", range(8))
def test_all_masks_hard_core_matches_class_tables(n):
    # every labelled mask against its class's ind_count, gathered through
    # the class map: a mask in the wrong class shows here
    t = class_table(n)
    per_class = np.array(t.values("ind", ind_count), dtype=np.int64)
    assert np.array_equal(all_masks_hom(n, hard_core_target()), per_class[t.cls])


HOM_TARGETS = [
    ("hard_core", hard_core_target()),
    ("widom_rowlinson", widom_rowlinson_target()),
    ("k2", complete_target(2)),
    ("k3", complete_target(3)),
]


@pytest.mark.parametrize("name,target,route", [
    pytest.param(name, target, route, id=f"{name}-target{i}" + ("-walk" if route == "walk" else ""))
    for route in ("bits", "walk") for i, (name, target) in enumerate(HOM_TARGETS)
])
def test_all_masks_match_hom_count(name, target, route, monkeypatch):
    # these targets take the map bits at n <= 5; a cap of 0 sends every
    # call to the walk, so the zeta counter checks both routes
    if route == "walk":
        monkeypatch.setattr(counting, "MAP_BITS", 0)
    for n in range(6):
        t = class_table(n)
        got = all_masks_hom(n, target)
        for mask in range(1 << len(t.pairs)):
            assert hom_count(t.graph(mask), target) == got[mask], (name, n, mask)


def test_all_masks_match_class_tables_at_seven():
    # every labelled 7-vertex mask against its class's wr_count and
    # chromatic polynomial at q = 2 and 3, gathered through the class map
    t = class_table(7)
    wr = np.array(t.values("wr", wr_count), dtype=np.int64)
    assert np.array_equal(all_masks_hom(7, widom_rowlinson_target()), wr[t.cls])
    polys = t.values("poly", chrom_poly)
    for q in (2, 3):
        per_class = np.array([p(q) for p in polys], dtype=np.int64)
        assert np.array_equal(all_masks_hom(7, complete_target(q)), per_class[t.cls]), q
