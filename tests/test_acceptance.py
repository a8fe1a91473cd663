"""Acceptance suite: one test per exit criterion, run at the full stated
sizes.  Each test prints a PASS/FAIL line with instance counts and timing
(visible with -s; the test id itself carries the verdict under -v).

Heads-up on runtime: criterion 1 (every counter on every labelled graph)
takes about two minutes with two workers on a 2-core host; every other
sweep, criterion 6's cycle packing included, runs on class tables and takes
seconds.  The whole module takes about three minutes there.

Known-red criterion: test_criterion_09 asserts that the random search finds
a tenth-grid weighted 3-vertex target violating the 4-path edge ratio.  The
companion test_criterion_09_supporting_* tests prove by exhaustive exact
scan that no such target exists (the minimum margin over the entire grid is
exactly zero), and pin a genuine 5-vertex counterexample showing the search
machinery itself works.  The required assertion is retained unweakened and
fails by design.
"""

import json
import math
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from homverify.graphs import (
    complete_target,
    cube_graph,
    cycle_graph,
    hard_core_target,
    parse_edgelist,
    parse_target,
    path_graph,
    widom_rowlinson_target,
)
from homverify.counting import (
    chrom_eval,
    cycle_chrom_formula,
    cycle_hom_spectral,
    hom_count,
    ind_count,
    path_ind_fib,
    spectral_data,
)
from homverify.verify import check_edge_ratio, free_energy_gap
from homverify.search import edge_mono_scan, find_counterexample
from homverify.sweeps import (
    SweepConfig,
    corollary_bundle_summary,
    oracle_equivalence_sweep,
    sweep_summary,
)

DATA = Path(__file__).parent / "data"
WORKERS = max(1, int(os.environ.get("HOMVERIFY_WORKERS", os.cpu_count() or 1)))


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)


def timed(fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    return out, time.perf_counter() - t0


def test_criterion_01_oracle_equivalence():
    s, dt = timed(oracle_equivalence_sweep, max_n=7, wr_chrom_max_n=6,
                  chrom_qs=(2, 3), workers=WORKERS)
    expected_graphs = sum(2 ** (n * (n - 1) // 2) for n in range(1, 8))
    ok = not s.mismatches and s.checked_ind == expected_graphs
    announce("criterion 1 oracle equivalence", ok,
             f"ind={s.checked_ind} wr={s.checked_wr} chrom={s.checked_chrom} "
             f"mismatches={len(s.mismatches)} in {dt:.0f}s")
    assert s.checked_ind == expected_graphs == 2131019
    assert s.checked_wr == sum(2 ** (n * (n - 1) // 2) for n in range(1, 7))
    assert not s.mismatches


def test_criterion_02_pair_correlation_sweep():
    cfg = SweepConfig("thm1_1", 7, qs=(2, 3, 4, 5))
    s, dt = timed(sweep_summary, cfg, workers=WORKERS)
    ok = s.violated == 0 and s.inapplicable == 0 and s.instances > 0
    announce("criterion 2 pair correlation sweep", ok,
             f"instances={s.instances} violated={s.violated} "
             f"min_margin={s.min_margin} in {dt:.0f}s")
    assert s.violated == 0
    assert s.inapplicable == 0  # connected bipartite always q-colorable for q >= 2
    assert s.instances == 5840248  # all pairs of all connected bipartite n <= 7, 4 q values


def test_criterion_03_edge_ratio_sweeps():
    s_ind, dt_i = timed(sweep_summary, SweepConfig("eq_ind", 7), workers=WORKERS)
    s_wr, dt_w = timed(sweep_summary, SweepConfig("eq_wr", 6), workers=WORKERS)
    ok = (s_ind.violated == 0 and s_wr.violated == 0
          and s_ind.min_margin == 0 and s_wr.min_margin == 0)
    announce("criterion 3 edge-ratio sweeps", ok,
             f"ind: {s_ind.instances} instances ({dt_i:.0f}s); "
             f"wr: {s_wr.instances} instances ({dt_w:.0f}s); "
             f"tight at {s_ind.first_tight_instance!r} / {s_wr.first_tight_instance!r}")
    assert s_ind.violated == 0 and s_wr.violated == 0
    # tightness witnessed exactly at the single-edge graph (graph6 "A_")
    assert s_ind.min_margin == 0 and s_ind.first_tight_instance == "A_ e=(0,1)"
    assert s_wr.min_margin == 0 and s_wr.first_tight_instance == "A_ e=(0,1)"
    r = check_edge_ratio(path_graph(2), "independent", (0, 1))
    assert r.margin == 0
    r = check_edge_ratio(path_graph(2), "wr", (0, 1))
    assert r.margin == 0


def test_criterion_04_wr_lemma_sweep():
    s, dt = timed(sweep_summary, SweepConfig("wr_lemma", 6), workers=WORKERS)
    ok = s.violated == 0
    announce("criterion 4 conditional-color lemma sweep", ok,
             f"instances={s.instances} violated={s.violated} in {dt:.0f}s")
    assert s.violated == 0 and s.instances > 0


def test_criterion_05_closed_forms():
    for length in range(3, 11):
        for q in range(7):
            assert cycle_chrom_formula(length, q) == chrom_eval(cycle_graph(length), q)
    for n in range(1, 26):
        assert path_ind_fib(n) == ind_count(path_graph(n))
    targets = [complete_target(q) for q in range(2, 6)]
    targets += [hard_core_target(), widom_rowlinson_target()]
    checked = 0
    for length in range(3, 9):
        c = cycle_graph(length)
        for t in targets:
            exact = float(hom_count(c, t))
            got = cycle_hom_spectral(length, t)
            assert abs(got - exact) <= 1e-6 * max(1.0, abs(exact)), (length, t.describe())
            checked += 1
    announce("criterion 5 closed forms", True,
             f"cycle-chromatic 8x7, Fibonacci n<=25, spectral walks {checked} cases")


def test_criterion_06_corollary_bounds():
    bundle, dt = timed(corollary_bundle_summary, 7, workers=WORKERS)
    parts = {c: (s.instances, s.violated) for c, s in bundle.items()}
    ok = all(s.violated == 0 for s in bundle.values())
    packing, dt2 = timed(sweep_summary, SweepConfig("cor1_2", 7, qs=(2, 3), ell=6),
                         workers=WORKERS)
    ok = ok and packing.violated == 0
    announce("criterion 6 corollary bounds", ok,
             f"{parts} packing={packing.instances} ({dt:.0f}s+{dt2:.0f}s)")
    for claim, s in bundle.items():
        assert s.violated == 0, claim
    assert packing.violated == 0 and packing.instances > 0
    # extremal tree: the path is tight for the independent-set floor
    assert bundle["cor1_4"].min_margin == 0


def test_criterion_07_spectral_anchors():
    sd = spectral_data(widom_rowlinson_target())
    lam = 1 + math.sqrt(2)
    vec = (0.5, 1 / math.sqrt(2), 0.5)
    ent = 1.5 * math.log(2)
    ok = (abs(sd.eigenvalues[0] - lam) < 1e-9
          and all(abs(a - b) < 1e-9 for a, b in zip(sd.top_eigenvector, vec))
          and abs(sd.entropy - ent) < 1e-9)
    announce("criterion 7 spectral anchors", ok,
             f"lambda={sd.eigenvalues[0]:.12f} entropy={sd.entropy:.12f}")
    assert ok


def test_criterion_08_free_energy_envelope():
    t0 = time.perf_counter()
    results = {}
    for length in (4, 6, 8):
        gap, env, within = free_energy_gap(cycle_graph(length), 17)
        results[f"C{length}"] = (gap, env, within)
        assert within
    # Q_3 has max degree 3, so q=17 sits outside the q > 8d envelope domain;
    # the check is inapplicable there and runs at the smallest admissible q.
    with pytest.raises(ValueError, match="q > 8d"):
        free_energy_gap(cube_graph(), 17)
    gap, env, within = free_energy_gap(cube_graph(), 25)
    results["Q3@25"] = (gap, env, within)
    assert within
    dt = time.perf_counter() - t0
    announce("criterion 8 free-energy envelope", True,
             "; ".join(f"{k}: |gap|={abs(g):.2e}<=env={e:.2e}" for k, (g, e, _) in results.items())
             + f" in {dt:.1f}s (cube at q=17 inapplicable: needs q>24)")
    assert dt < 60


P4_SEARCH_SEED = 20250809


def test_criterion_09_p4_weighted_counterexample():
    """Required: the seeded search returns a tenth-grid weighted 3-vertex
    target violating the 4-path edge ratio within 10^6 samples.

    Expected to FAIL: the companion supporting tests prove exhaustively
    that the minimum margin over the complete grid is exactly zero, so no
    witness exists at k=3 for the 4-path and no seed or budget can find
    one.  The assertion is retained unweakened."""
    ce, dt = timed(find_counterexample, path_graph(4), 3, 10 ** 6, P4_SEARCH_SEED)
    announce("criterion 9 P4 weighted counterexample", ce is not None,
             f"search returned {ce!r} over 10^6 samples in {dt:.0f}s")
    assert ce is not None, (
        "no witness exists: exhaustive scan of all 11^6 grid targets shows "
        "min margin exactly 0 (see test_criterion_09_supporting_grid_proof)"
    )


def test_criterion_09_supporting_grid_proof():
    """Exhaustive exact proof over the full tenths grid at k=3: for H = P_4
    the edge ratio never drops below the threshold; the minimum margin is
    exactly zero on both edge orbits (attained, e.g., by constant
    matrices)."""
    vals = np.arange(11, dtype=np.int64)
    g = np.meshgrid(*[vals] * 6, indexing="ij")
    d0, d1, d2, a01, a02, a12 = [x.ravel() for x in g]
    s = d0 + d1 + d2 + 2 * (a01 + a02 + a12)
    x0 = d0 + a01 + a02
    x1 = a01 + d1 + a12
    x2 = a02 + a12 + d2
    p3 = x0 * x0 + x1 * x1 + x2 * x2
    p4 = (d0 * x0 * x0 + d1 * x1 * x1 + d2 * x2 * x2
          + 2 * (a01 * x0 * x1 + a02 * x0 * x2 + a12 * x1 * x2))
    # end edge: hom(P4 - e) = 3 * p3 ; middle edge: hom(P4 - e) = s^2.
    # violation <=> 9 * p4 < s * hom(P4 - e), all exact int64
    end_margin = 9 * p4 - 3 * s * p3
    mid_margin = 9 * p4 - s * s * s
    n_end = int((end_margin[p3 > 0] < 0).sum())
    n_mid = int((mid_margin[s > 0] < 0).sum())
    min_end = int(end_margin[p3 > 0].min())
    min_mid = int(mid_margin[s > 0].min())
    announce("criterion 9 supporting grid proof", n_end == 0 and n_mid == 0,
             f"{d0.size} grid targets; violations end={n_end} mid={n_mid}; "
             f"min margins end={min_end} mid={min_mid}")
    assert d0.size == 11 ** 6
    assert n_end == 0 and n_mid == 0
    assert min_end == 0 and min_mid == 0


def test_criterion_09_supporting_search_machinery():
    """The identical search pipeline does find and exactly re-verify real
    violations one vertex up: the pinned 5-vertex fork tree witness."""
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    fork = parse_edgelist((DATA / manifest["H_file"]).read_text())
    ce, dt = timed(find_counterexample, fork, 3,
                   manifest["sample_index"] + 1, manifest["seed"])
    assert ce is not None and ce.sample_index == manifest["sample_index"]
    target = parse_target((DATA / "fork_k3_counterexample.tg").read_text())
    assert ce.target == target
    num = hom_count(fork, target)
    den = hom_count(fork.delete_edge(*ce.edge), target)
    assert num / den == ce.ratio < ce.threshold
    announce("criterion 9 supporting search machinery", True,
             f"fork witness at sample {ce.sample_index}, ratio {ce.ratio} < {ce.threshold} "
             f"({dt:.1f}s)")


def test_criterion_10_edge_mono_scans():
    t0 = time.perf_counter()
    res_k3 = edge_mono_scan(complete_target(3), 6, bipartite_only=True)
    res_hc = edge_mono_scan(hard_core_target(), 6)
    res_wr = edge_mono_scan(widom_rowlinson_target(), 6)
    dt = time.perf_counter() - t0
    ok = res_k3.satisfies_all and res_hc.satisfies_all and res_wr.satisfies_all
    announce("criterion 10 edge-monotonicity scans", ok,
             f"K3(bip): worst={res_k3.worst_ratio} thr={res_k3.threshold}; "
             f"hard-core: worst={res_hc.worst_ratio} thr={res_hc.threshold}; "
             f"WR: worst={res_wr.worst_ratio} thr={res_wr.threshold} in {dt:.0f}s")
    assert res_k3.satisfies_all and res_k3.threshold == Fraction(2, 3)
    assert res_hc.satisfies_all and res_hc.threshold == Fraction(3, 4)
    assert res_wr.satisfies_all and res_wr.threshold == Fraction(7, 9)
    assert res_hc.worst_ratio == Fraction(3, 4)
    assert res_wr.worst_ratio == Fraction(7, 9)
