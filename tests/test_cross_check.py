"""The four counters cross-checked past n = 7, where criterion 1's
exhaustive sweep never reaches their large-input paths: _ind_branch,
_ind_forest and the component split, wr_count's walk past its 12-vertex
table, chrom_poly's deletion-contraction and hom_count's 0/1 walk.

Seeded G(n, p) graphs for n = 8..16 are counted by each counter and by
hom_batch's variable elimination on the matching target, P_a x P_b grids
by a column-state transfer matrix, and two families are checked against
closed forms.  Everything compares exact integers, and a mismatch names
the seed or the size, and the graph6 of the graph.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from homverify import counting
from homverify.counting import (
    SizeGuardError,
    chrom_poly,
    hom_batch,
    hom_count,
    ind_count,
    wr_count,
)
from homverify.graphs import (
    Graph,
    complete_bipartite,
    complete_target,
    hard_core_target,
    to_graph6,
    widom_rowlinson_target,
)

HC = hard_core_target()
WR = widom_rowlinson_target()
KQ = {q: complete_target(q) for q in (2, 3, 4)}
DENSITIES = (0.15, 0.3, 0.5)
WALK_CAP = 200_000  # the walk visits about as many nodes as it counts maps


def _gnp(seed: int, n: int, p: float) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def _elim(g: Graph, target) -> int:
    """hom(g, target) for a 0/1 target by variable elimination in Python ints."""
    rows, _ = target.integer_rows
    return int(hom_batch(g, np.array([rows], dtype=object))[0])


@pytest.mark.parametrize("n", range(8, 17))
def test_counters_match_elimination_on_gnp(n):
    # hom_count's walk is checked only where the count, and so its node
    # count, stays below WALK_CAP
    for seed in range(100 * n, 100 * n + 9):
        p = DENSITIES[seed % 3]
        g = _gnp(seed, n, p)
        name = f"seed {seed}, G({n}, {p}), graph6 {to_graph6(g)}"
        want = {"hardcore": _elim(g, HC), "wr": _elim(g, WR)}
        want.update((f"k{q}", _elim(g, t)) for q, t in KQ.items())
        assert ind_count(g) == want["hardcore"], name
        assert wr_count(g) == want["wr"], name
        poly = chrom_poly(g)
        for q in KQ:
            assert poly(q) == want[f"k{q}"], (name, q)
        for token, t in [("hardcore", HC), ("wr", WR)] + [(f"k{q}", t) for q, t in KQ.items()]:
            if want[token] <= WALK_CAP:
                assert hom_count(g, t) == want[token], (name, token)


def _grid(a: int, b: int) -> Graph:
    """P_a x P_b: b columns of a vertices, vertex r of column c being c * a + r."""
    cells = [(r, c) for c in range(b) for r in range(a)]
    return Graph.from_edges(a * b, [(c * a + r, c * a + r + 1) for r, c in cells if r + 1 < a]
                            + [(c * a + r, c * a + r + a) for r, c in cells if c + 1 < b])


def _grid_transfer(a: int, b: int, target) -> int:
    """hom(P_a x P_b, target) for an integer target, column by column: a
    column state maps the a vertices of a column, weighs its a - 1 vertical
    edges and, from the state of the column before, its a horizontal ones."""
    rows, _ = target.integer_rows
    states = list(itertools.product(range(target.k), repeat=a))

    def weight(s, t):
        return math.prod(rows[x][y] for x, y in zip(s, t))

    column = [weight(s[:-1], s[1:]) for s in states]
    counts = column
    for _ in range(b - 1):
        counts = [col * sum(x * weight(s, t) for x, s in zip(counts, states))
                  for t, col in zip(states, column)]
    return sum(counts)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_grids_match_transfer_matrix(a):
    # the walk only under WALK_CAP, as above; wr_count where its up-front
    # cost passes STEP_BUDGET, and refused past it
    targets = [("hardcore", HC), ("wr", WR), ("k3", KQ[3])]
    for b in range(1, 9):
        g = _grid(a, b)
        name = f"P_{a} x P_{b}, graph6 {to_graph6(g)}"
        want = {token: _grid_transfer(a, b, t) for token, t in targets}
        assert ind_count(g) == want["hardcore"], name
        if counting._words(g.n) << g.n <= counting.STEP_BUDGET:
            assert wr_count(g) == want["wr"], name
        else:
            with pytest.raises(SizeGuardError):
                wr_count(g)
        assert chrom_poly(g)(3) == want["k3"], name
        for token, t in targets:
            if want[token] <= WALK_CAP:
                got = hom_count(g, t)
                assert type(got) is int and got == want[token], (name, token)


def _ladder(k: int) -> Graph:
    return Graph.from_edges(2 * k, [(i, i + 1) for i in range(k - 1)]
                            + [(k + i, k + i + 1) for i in range(k - 1)]
                            + [(i, k + i) for i in range(k)])


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("k", [4, 5, 8, 13, 30])
def test_ladder_chromatic_polynomial(k):
    # P(L_k, q) = q (q - 1) (q^2 - 3q + 3)^(k - 1), coefficient by coefficient
    want = [0, -1, 1]
    for _ in range(k - 1):
        want = _pmul(want, [3, -3, 1])
    assert chrom_poly(_ladder(k)).coeffs == tuple(want), to_graph6(_ladder(k))


def test_complete_bipartite_independent_sets():
    # an independent set of K_{a,b} lies within one side: 2^a + 2^b - 1
    for a in range(1, 13):
        for b in range(a, 13):
            g = complete_bipartite(a, b)
            assert ind_count(g) == 2 ** a + 2 ** b - 1, to_graph6(g)
