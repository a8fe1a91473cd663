"""classes.all_masks_hom, the oracle sweep's generic side, against brute
force, and as an independent leg of the counter cross-checks.

For a 0/1 target T, a map phi of the n vertices is a homomorphism from the
graph of edge mask M exactly when bad(phi), the set of pairs that phi sends
onto a zero entry, misses M; a histogram of bad over the k^n maps followed
by a subset-sum (zeta) transform over the 2^p masks gives hom(G_M, T) for
every mask at once.  It shares no code with the library's counters or
class tables.
"""

import itertools
import math

import numpy as np
import pytest

from homverify import classes, counting
from homverify.classes import all_masks_hom, class_table, vertex_pairs
from homverify.counting import SizeGuardError, chrom_poly, hom_batch, hom_count, ind_count, wr_count
from homverify.graphs import TargetGraph, complete_target, hard_core_target, widom_rowlinson_target
from homverify.sweeps import _class_polys

HOM_TARGETS = [
    ("hard_core", hard_core_target()),
    ("widom_rowlinson", widom_rowlinson_target()),
    ("k2", complete_target(2)),
    ("k3", complete_target(3)),
]


@pytest.mark.parametrize("name,target", HOM_TARGETS, ids=[name for name, _ in HOM_TARGETS])
def test_all_masks_match_brute_force(name, target):
    # each map's weight, the product of the target's entries over the
    # mask's edges, summed straight from the matrix
    for n in range(5):
        pairs = vertex_pairs(n)
        assert all_masks_hom(n, target).tolist() == [
            sum(math.prod(target.w[f[u]][f[v]] for i, (u, v) in enumerate(pairs) if m >> i & 1)
                for f in itertools.product(range(target.k), repeat=n))
            for m in range(1 << len(pairs))], n


def test_all_masks_refusals(monkeypatch):
    with pytest.raises(ValueError, match="0/1 entries"):
        all_masks_hom(3, TargetGraph.from_rows([[1, 2], [2, 0]]))
    # past STEP_BUDGET, lowered to 80 by monkeypatch, before np.indices
    # (made uncallable) builds the maps: 3^4 maps into K_3, 2^10 masks at n = 5
    monkeypatch.setattr(counting, "STEP_BUDGET", 80)
    assert all_masks_hom(4, complete_target(2))[0] == 16  # 2^4 maps, 2^6 masks
    monkeypatch.setattr(classes.np, "indices", None)
    for n, q in ((4, 3), (5, 2)):
        with pytest.raises(SizeGuardError, match=f"all_masks_hom guard: {q}\\^{n} maps"):
            all_masks_hom(n, complete_target(q))


@pytest.mark.parametrize("n", range(8))
def test_all_masks_hard_core_matches_class_tables(n):
    # every labelled mask against its class's ind_count, gathered through
    # the class map: a mask in the wrong class shows here
    t = class_table(n)
    per_class = np.array(t.values("ind", ind_count), dtype=np.int64)
    assert np.array_equal(all_masks_hom(n, hard_core_target()), per_class[t.cls])


@pytest.mark.parametrize("name,target,route", [
    pytest.param(name, target, route, id=f"{name}-target{i}" + ("-walk" if route == "walk" else ""))
    for route in ("elimination", "walk") for i, (name, target) in enumerate(HOM_TARGETS)
])
def test_all_masks_match_hom_count(name, target, route):
    # every labelled graph up to 5 vertices against the zeta counter, on
    # each of hom_count's routes: the walk, which it takes for these 0/1
    # targets (hard-core up to 6 vertices), and hom_batch's elimination,
    # which it takes for a weighted target
    w = np.array([target.integer_rows[0]], dtype=np.int64)
    for n in range(7 if name == "hard_core" and route == "walk" else 6):
        t = class_table(n)
        got = all_masks_hom(n, target)
        for mask in range(1 << len(t.pairs)):
            g = t.graph(mask)
            want = hom_count(g, target) if route == "walk" else hom_batch(g, w)[0]
            assert want == got[mask], (name, n, mask)


def test_all_masks_match_class_tables_at_seven():
    # every labelled 7-vertex mask against its class's wr_count and
    # chromatic polynomial at q = 2 and 3, gathered through the class map;
    # the table's polynomials, derived by deletion-contraction over the
    # class tables, against chrom_poly on each representative
    t = class_table(7)
    wr = np.array(t.values("wr", wr_count), dtype=np.int64)
    assert np.array_equal(all_masks_hom(7, widom_rowlinson_target()), wr[t.cls])
    polys = [chrom_poly(g) for g in t.reps]
    assert _class_polys(t) == polys
    for q in (2, 3):
        per_class = np.array([p(q) for p in polys], dtype=np.int64)
        assert np.array_equal(all_masks_hom(7, complete_target(q)), per_class[t.cls]), q
