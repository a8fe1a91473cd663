"""Cross-checks of both sweep modes against an independent per-labelled-
graph reference stream, the oracle sweep, and output digests."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from homverify import cli, sweeps
from homverify.classes import class_table, iter_edge_sets
from homverify.graphs import (
    Graph,
    TargetGraph,
    bipartition,
    complete_target,
    hard_core_target,
    widom_rowlinson_target,
)
from homverify.search import edge_mono_scan
from homverify.verify import check_correlation_coloring, check_edge_ratio, check_wr_lemma
from homverify.sweeps import (
    SweepConfig,
    SweepSummary,
    corollary_bundle_summary,
    oracle_equivalence_sweep,
    sweep_reports,
    sweep_summary,
)

CASES = [
    ("eq_ind", {}),
    ("eq_wr", {}),
    ("wr_lemma", {}),
    ("thm1_1", {"qs": (2, 3)}),
    ("eq_col", {"qs": (2, 3)}),
    ("cor1_4", {}),
    ("cor1_6", {}),
    ("cor1_2", {"qs": (3,)}),
    ("balanced", {"qs": (3,)}),
    ("sidorenko", {"target": hard_core_target()}),
    ("sidorenko", {"target": widom_rowlinson_target()}),
]


def _sweep_thm1_1(g, cfg):
    if not g.is_connected() or bipartition(g) is None:
        return []
    return [r for q in cfg.qs for r in check_correlation_coloring(g, q)]


def _sweep_eq_col(g, cfg):
    if bipartition(g) is None:
        return []
    return [check_edge_ratio(g.delete_edge(*e), "coloring", e, q)
            for q in cfg.qs for e in g.sorted_edges]


# The per-labelled-graph sweeps of the pair claims, which the package
# defines only as slots: each applies the sweep filter and builds the
# reports of every instance of one graph, in stream order
_PAIR_SWEEPS = {
    "thm1_1": _sweep_thm1_1,
    "eq_col": _sweep_eq_col,
    "eq_ind": lambda g, cfg: [check_edge_ratio(g, "independent", e) for e in g.sorted_edges],
    "eq_wr": lambda g, cfg: [check_edge_ratio(g, "wr", e) for e in g.sorted_edges],
    "wr_lemma": lambda g, cfg: [check_wr_lemma(g, e) for e in g.sorted_edges],
}


def _slot_groups(t, slots):
    """Per slot, its groups over every labelled graph as (key, count, lowest
    rank) rows, keys ascending, and their margins per q index: the
    per-labelled reference that the one row per class representative of
    sweeps._rep_groups, and report mode's checker calls, are checked
    against."""
    for slot in slots:
        ranks = np.flatnonzero(slot.keep[t.cls[t.order]])
        if slot.bit:
            ranks = ranks[t.order[ranks] & slot.bit != 0]
        m = t.order[ranks]
        keys = slot.keys(m)
        distinct, first, count = np.unique(keys, return_index=True, return_counts=True)
        yield (list(zip(distinct.tolist(), count.tolist(), ranks[first].tolist())),
               slot.margins(distinct.tolist()))


# The per-labelled-graph test of each ClassTable flag a class-level claim
# names
_FLAG_TESTS = {"connected": Graph.is_connected, "bipartite": lambda g: bipartition(g) is not None}


def _reference_stream(cfg):
    """The report stream computed the slow way, independently of the class
    tables: every labelled graph of iter_edge_sets built as a Graph, the
    claim's per-graph sweep run on it (a class-level claim's only where the
    graph has the claim's flag), each Report written with json.dumps and
    folded in stream order.  Returns (text, summary)."""
    claim = sweeps.CLAIMS[cfg.claim]
    sweep = _PAIR_SWEEPS.get(cfg.claim) or (
        lambda g, cfg: claim.sweep(g, cfg) if _FLAG_TESTS[claim.flag](g) else [])
    lines = []
    s = SweepSummary(cfg.claim)
    for n in range(1, cfg.max_n + 1):
        for edges in iter_edge_sets(n):
            for r in sweep(Graph(n, frozenset(edges)), cfg):
                lines.append(json.dumps(r.to_json_dict()) + "\n")
                s.record(r.instance, r.verdict, r.margin)
    return "".join(lines), s


def test_each_claim_defined_once():
    # the pair claims are their slots alone; a class-level claim's slots
    # run its sweep on each class representative with the claim's flag
    assert {name: c.flag for name, c in sweeps.CLAIMS.items() if c.sweep} == {
        "sidorenko": "connected", "cor1_2": "bipartite", "cor1_4": "connected",
        "cor1_6": "connected", "balanced": "bipartite"}
    assert not any(c.flag for c in sweeps.CLAIMS.values() if not c.sweep)
    assert {name for name, c in sweeps.CLAIMS.items() if c.slots is None} == {"remark2_2"}


def _stream(cfg):
    """(text, summary) of sweep_reports."""
    buf = io.StringIO()
    s = sweep_reports(cfg, buf.write)
    return buf.getvalue(), s


@pytest.mark.parametrize("claim,kw", CASES)
def test_fast_summary_matches_streamed_reports(claim, kw):
    cfg = SweepConfig(claim, 4, **kw)
    slow = _reference_stream(cfg)[1]
    fast = sweep_summary(cfg)
    assert (slow.instances, slow.holds, slow.violated, slow.inapplicable) == \
        (fast.instances, fast.holds, fast.violated, fast.inapplicable)
    assert slow.min_margin == fast.min_margin
    assert slow.tight_count == fast.tight_count


@pytest.mark.parametrize("claim,kw", [
    ("eq_ind", {}), ("eq_wr", {}), ("wr_lemma", {}), ("thm1_1", {"qs": (3,)}),
    ("thm1_1", {"qs": (1, 3)}),
    ("cor1_2", {"qs": (2, 3), "ell": 4}), ("cor1_2", {"qs": (2, 3), "ell": 6}),
    ("cor1_2", {"qs": (2, 3), "ell": 4, "max_n": 6}),
    ("cor1_2", {"qs": (2, 3), "ell": 6, "max_n": 6}),
    ("cor1_4", {}), ("cor1_6", {}), ("balanced", {"qs": (2, 3)}),
    ("sidorenko", {"target": hard_core_target()}),
    ("sidorenko", {"target": widom_rowlinson_target()}),
    ("sidorenko", {"target": complete_target(3)}),
    # several qs, given in either order
    ("thm1_1", {"qs": (2, 3)}), ("thm1_1", {"qs": (3, 2)}), ("eq_col", {"qs": (2, 3)}),
])
def test_table_fold_matches_streamed_reports_exactly(claim, kw):
    # here both modes list the instances of a graph in the same order, so
    # the per-graph checkers fix every field, instance strings included.
    # The per-class folds rely on every margin being invariant under
    # relabelling; these cases check that over every labelled graph (at
    # n = 6, cor1_2 packs 6-cycles as well as 4-cycles)
    cfg = SweepConfig(claim, **{"max_n": 5, **kw})
    want, got = _reference_stream(cfg)[1].to_json_dict(), sweep_summary(cfg).to_json_dict()
    if claim == "eq_col":
        # summary mode names G, the stream G-e: compare what follows the name
        for d in (want, got):
            for f in ("min_margin_instance", "first_tight_instance", "first_violation"):
                d[f] = d[f] and d[f].split(" ", 1)[1]
    assert got == want


@pytest.mark.parametrize("claim,kw", [
    *((c, {"max_n": 5, **kw}) for c, kw in CASES),
    ("thm1_1", {"qs": (2, 3), "max_n": 5}),
    ("eq_col", {"qs": (2, 3), "max_n": 5}),
    # cor1_2's cycle packing is the one labelling-dependent step; at n = 6
    # it packs 6-cycles as well as 4-cycles
    ("cor1_2", {"qs": (2, 3), "ell": 4, "max_n": 6}),
    ("cor1_2", {"qs": (2, 3), "ell": 6, "max_n": 6}),
])
def test_report_stream_matches_reference(claim, kw):
    # every report line, byte for byte, and the summary of the stream
    cfg = SweepConfig(claim, **kw)
    text, summary = _stream(cfg)
    ref_text, ref_summary = _reference_stream(cfg)
    assert text == ref_text
    assert summary.to_json_dict() == ref_summary.to_json_dict()


@pytest.mark.parametrize("claim,kw", [
    ("eq_ind", {}), ("eq_wr", {}), ("wr_lemma", {}), ("eq_col", {"qs": (2, 3)}),
])
def test_report_mode_checks_each_pair_key_once(monkeypatch, claim, kw):
    # a pair claim's group key is class ids, the same in every pair's slot,
    # so report mode runs the checker once per (n, q index, key)
    calls = []
    for name in ("check_edge_ratio", "check_wr_lemma"):
        def counted(*args, _check=getattr(sweeps, name), **kwargs):
            calls.append(args)
            return _check(*args, **kwargs)
        monkeypatch.setattr(sweeps, name, counted)
    cfg = SweepConfig(claim, 5, **kw)
    sweep_reports(cfg, lambda text: None)
    keys = set()
    for n in range(1, 6):
        t = class_table(n)
        for rows, margins in _slot_groups(t, sweeps.CLAIMS[claim].slots(t, cfg)):
            keys |= {(n, i, key) for i, ms in enumerate(margins)
                     for (key, _, _), margin in zip(rows, ms) if margin is not sweeps._NO_REPORT}
    assert len(calls) == len(keys)
    if claim == "eq_wr":
        assert len(calls) == 92


def test_report_mode_checks_thm1_1_once_per_class(monkeypatch):
    # the checker reports every pair of a graph at once, and report mode
    # renders its groups in stream order of their first graphs, so the
    # pair slots of one graph and q meet the checker one after another
    calls = []

    def counted(g, q, _check=sweeps.check_correlation_coloring):
        calls.append(q)
        return _check(g, q)

    monkeypatch.setattr(sweeps, "check_correlation_coloring", counted)
    sweep_reports(SweepConfig("thm1_1", 5, qs=(3,)), lambda text: None)
    kept = sum(int((t.connected & t.bipartite).sum()) for t in map(class_table, range(2, 6)))
    assert len(calls) == kept == 10


def test_worker_count_invariance():
    cfg = SweepConfig("eq_ind", 4)
    s1 = sweep_summary(cfg, workers=1)
    s2 = sweep_summary(cfg, workers=2)
    assert s1.to_json_dict() == s2.to_json_dict()


def test_setup_does_not_import_multiprocessing():
    # no code path starts a process: importing the CLI, an oracle sweep
    # asked for two workers, a summary and a report sweep all leave
    # multiprocessing unloaded
    src = str(Path(sweeps.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import homverify.cli, homverify.search; from homverify import sweeps; "
            "sweeps.oracle_equivalence_sweep(max_n=4, wr_chrom_max_n=3, workers=2); "
            "cfg = sweeps.SweepConfig('eq_ind', 4); sweeps.sweep_summary(cfg, workers=2); "
            "sweeps.sweep_reports(cfg, lambda text: None); "
            "print('multiprocessing' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_bundle_matches_individual_claims():
    bundle = corollary_bundle_summary(4)
    for claim, kw in [("cor1_4", {}), ("cor1_6", {}),
                      ("sidorenko", {"target": hard_core_target()})]:
        single = sweep_summary(SweepConfig(claim, 4, **kw))
        key = {"cor1_4": "cor1_4", "cor1_6": "cor1_6", "sidorenko": "sidorenko_hc"}[claim]
        b = bundle[key]
        assert (b.instances, b.holds, b.violated) == \
            (single.instances, single.holds, single.violated)
        assert b.min_margin == single.min_margin


def test_bundle_k3_counts_bipartite_only():
    bundle = corollary_bundle_summary(4)
    assert bundle["sidorenko_k3"].instances < bundle["sidorenko_hc"].instances
    assert bundle["sidorenko_k3"].violated == 0


def test_oracle_sweep_small():
    s = oracle_equivalence_sweep(max_n=4, wr_chrom_max_n=4, chrom_qs=(2, 3))
    assert s.checked_ind == 2 + 8 + 64 + 1
    assert s.checked_wr == s.checked_ind
    assert s.checked_chrom == 2 * s.checked_ind
    assert not s.mismatches


def _wrong_on(monkeypatch, name, chosen):
    """Make sweeps.<name> off by one on the graphs whose sorted edge tuple
    passes chosen(n, edges)."""
    right = getattr(sweeps, name)
    monkeypatch.setattr(sweeps, name, lambda g: right(g) + chosen(g.n, g.sorted_edges))


def _wrong_ind(n, edges):
    return len(edges) in (2, 4) and (0, 1) in edges


def _wrong_wr(n, edges):
    return n == 3 or len(edges) == 5


def test_oracle_sweep_independent_of_batch_size(monkeypatch):
    _wrong_on(monkeypatch, "ind_count", _wrong_ind)
    _wrong_on(monkeypatch, "wr_count", _wrong_wr)
    got = []
    for size in (1, 7, 100, 4096):
        monkeypatch.setattr(sweeps, "BATCH_SIZE", size)
        got.append(oracle_equivalence_sweep(max_n=5, wr_chrom_max_n=4))
    assert got[0].mismatches and all(g == got[0] for g in got)


def test_oracle_sweep_names_mismatches_in_enumeration_order(monkeypatch):
    _wrong_on(monkeypatch, "ind_count", _wrong_ind)
    _wrong_on(monkeypatch, "wr_count", _wrong_wr)
    monkeypatch.setattr(sweeps, "BATCH_SIZE", 100)  # several batches per n
    expected = []
    for n in range(1, 6):
        for edges in iter_edge_sets(n):
            if _wrong_ind(n, edges):
                expected.append(("ind", n, edges))
            if n <= 4 and _wrong_wr(n, edges):
                expected.append(("wr", n, edges))
    got = oracle_equivalence_sweep(max_n=5, wr_chrom_max_n=4, chrom_qs=(2,))
    assert got.mismatches == expected
    assert {kind for kind, *_ in expected} == {"ind", "wr"}
    assert any(n == 5 for _, n, _ in expected)
    assert (got.checked_ind, got.checked_wr, got.checked_chrom) == (1099, 75, 75)


def test_oracle_sweep_checks_hom_count_on_class_representatives(monkeypatch):
    # hom_count off by one into K_2 on the 3-vertex path's class: one
    # mismatch, naming its representative; no labelled copy meets hom_count
    t, k2, right = class_table(3), complete_target(2), sweeps.hom_count
    path = t.cls[0b011]  # edges (0,1), (0,2): the class's first graph
    monkeypatch.setattr(sweeps, "hom_count", lambda g, h: right(g, h) + (
        g.n == 3 and h == k2 and t.cls[sum(1 << t.index[e] for e in g.edges)] == path))
    got = oracle_equivalence_sweep(max_n=4, wr_chrom_max_n=4, chrom_qs=(2, 3))
    assert got.mismatches == [("hom", "chrom", 2, 3, ((0, 1), (0, 2)))]
    assert (got.checked_ind, got.checked_wr, got.checked_chrom) == (75, 75, 150)


@pytest.mark.parametrize("max_n", [-1, 0, 8, 9])
def test_oracle_sweep_refuses_max_n_before_enumerating(monkeypatch, max_n):
    def unreachable(n):
        raise AssertionError(f"class_table({n}) built for max_n={max_n}")

    monkeypatch.setattr(sweeps, "class_table", unreachable)
    with pytest.raises(ValueError, match=r"^sweeps support max_n in 1\.\.7$"):
        oracle_equivalence_sweep(max_n=max_n)
    with pytest.raises(ValueError, match=r"^sweeps support max_n in 1\.\.7$"):
        SweepConfig("eq_ind", max_n).validate()


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig("nosuch", 4).validate()
    with pytest.raises(ValueError):
        SweepConfig("thm1_1", 4).validate()  # missing q
    with pytest.raises(ValueError):
        SweepConfig("sidorenko", 4).validate()  # missing target
    with pytest.raises(ValueError):
        SweepConfig("eq_ind", 9).validate()
    with pytest.raises(ValueError):
        SweepConfig("eq_ind", 8).validate()
    with pytest.raises(ValueError):
        SweepConfig("thm1_1", 4, qs=(3, 0)).validate()
    with pytest.raises(ValueError):
        SweepConfig("cor1_2", 4, qs=(1,)).validate()
    with pytest.raises(ValueError):
        SweepConfig("remark2_2", 4, qs=(3,)).validate()  # verify-only


# ---------------------------------------------------------------------------
# Byte identity: SHA-256 digests recorded from the code before the claim
# table and the shared summary fold replaced the per-claim dispatch.  A
# digest covers every field, instance strings included.
# ---------------------------------------------------------------------------

DIGEST_CASES = [
    ("thm1_1", {"qs": (2, 3, 4, 5)}),
    ("eq_col", {"qs": (2, 3)}),
    ("eq_ind", {}),
    ("eq_wr", {}),
    ("wr_lemma", {}),
    ("sidorenko", {"target": "hardcore"}),
    ("sidorenko", {"target": "wr"}),
    ("sidorenko", {"target": "k3"}),
    ("cor1_2", {"qs": (2, 3), "ell": 6}),
    ("cor1_4", {}),
    ("cor1_6", {}),
    ("balanced", {"qs": (3,)}),
]
_TARGETS = {"hardcore": hard_core_target, "wr": widom_rowlinson_target,
            "k3": lambda: complete_target(3),
            # entries with denominators, D = 2 and D = 6 in integer_rows;
            # the star has no loop, so non-bipartite H - e are skipped
            "weighted-star": lambda: TargetGraph.from_rows(
                [[0, 1, Fraction(3, 2)], [1, 0, 0], [Fraction(3, 2), 0, 0]]),
            "weighted-mixed": lambda: TargetGraph.from_rows(
                [[0, Fraction(1, 3), 1], [Fraction(1, 3), Fraction(1, 2), 0], [1, 0, 0]])}

# sweep_summary(...).to_json_dict() at max_n=5 and the CLI sweep stdout at
# --max-n 4, 5 and 6, per case
SUMMARY_DIGESTS = {
    "thm1_1": "a977fb2e27edd2ffa96f000d7e38963aa9290c7e45fe90e1a6959ea526356aa1",
    "eq_col": "65b823a5d8fd58d2a31c9eed63e5dd8f4f1a67ebc22dda11c9f49bf2ecf60fc4",
    "eq_ind": "41b149ab9161339f7156a773d8b324007642e867a58b445998c5124165398c51",
    "eq_wr": "fa5e1b9af3a4f4f551318765be53ecc986d312de514d82f3914c89f617d5d5d4",
    "wr_lemma": "739d04935bad4b52191e3580c1fc2f6948f64273c1c15f76609609cc691601e7",
    "sidorenko-hardcore": "0acba7a1d9ea9a116161e184233594e7f8373a9aa20beb059253260c839639e4",
    "sidorenko-wr": "77241c4e58adb687febbf6d0d80c856418d22012e6bfd06e1c93fa9ecb18b0ac",
    "sidorenko-k3": "3f607b8d72e5cb8314be5c1191148f91f0f345319abc3024608e0eb95c0ea147",
    "cor1_2": "3ca1cc2f466e23461daf2f26e72ce771d5e666b5957f758f4e018c356244b416",
    "cor1_4": "4253dcafa96aa64314b11d58190c16dff290bbb85928300ae7fda84b530896f9",
    "cor1_6": "0f8b919ed6e9b4a15682a3f8e81d151a5266723a9b44b0d2dcee0375ed3e6dd9",
    "balanced": "1ff24575ff687e97ddb94aaafadc7269075896197ef8a765b4a6f7e988388f93",
}
# the same at max_n=6, recorded before both sweep modes read one slot list
SUMMARY_DIGESTS_N6 = {
    "thm1_1": "f9d15e6fed37822bd8589ebffda1d073228651530fdbe1a4848acb3e4e04ec0e",
    "eq_col": "c0fcf91440c22b27c879d137424d08e9aeb8c2f54be3563aa564fd0b0bcadfa8",
    "eq_ind": "707d418b43cbe2ae04cb8cebb6de3258e7edb2ed5482a4d1b491f4e9dcde3d09",
    "eq_wr": "1d0569ba0b2027fe3990c37bc1d0fc203275f1a130f52ec806d2d0eaea0e0286",
    "wr_lemma": "535d153359e2dcb48687eaeeff99422fa79e5b7448ac6996388175c217a59fcc",
    "sidorenko-hardcore": "772722a14c5ace2257be3463ea14c01cbcc89826b4f11247fc5fac9142a088a1",
    "sidorenko-wr": "6519978ba0101250dac2e28bfa67e347d8863ee354d58ba40996f153aec774e1",
    "sidorenko-k3": "2ac3117bd03262df9a8e7bb590a30c998184b0d8c7b35ea7336c42267e2e471d",
    "cor1_2": "2f34d9490428f67e662eec56551f15647c0b22648e826f08722e835689cb1f77",
    "cor1_4": "8459dde0bc7270e3d92c55968cd0714b680cc7f40b24a135227a6434e20f0bd7",
    "cor1_6": "a0d02411c0bdfef1246065dbe329c49d9e1dc08a37604a9485080e083d4dee5b",
    "balanced": "e0961fe6b88dae6c0c13a92cad9e3a0f80afa743da397ea569c5117795ecd87a",
}
CLI_DIGESTS = {
    4: {
        "thm1_1": "db2d85013018bb14a0378705779ab75ca30acec66067d66a8a043afd84aa98b5",
        "eq_col": "c10129af44f0b2ef7edaebd7ed39b97fb06fb56b87c7085ddb14692c1f1fa2a3",
        "eq_ind": "2a11bbe6e7a4d3673a7cacc2772568e95d50927a3112976e276371b6d7cc1db3",
        "eq_wr": "2f8c6a81e184c26ed10fd64538904f3e3c97a86f32e01c8a23f0ac4aef81580a",
        "wr_lemma": "ec8e0db2e63935fbc95016b83e0382b8f2c34a13c55610bfa368a8eb134cdeeb",
        "sidorenko-hardcore": "2fe99bec2850e512136d622445a29435d2c004f6a7452a4c9ecdfdf370bc059f",
        "sidorenko-wr": "6198087d81cf01608e667eb379185e70a7258fde3eccc1254e863b2164d608b3",
        "sidorenko-k3": "03291ae428ba6c85ff4666bb4587f2a6b4a8b3a095727675cfbffe0960525d09",
        "cor1_2": "5be080540855fd2e7cb75f21c383c947177f5ed9317dfcef0e694e90a80adf7b",
        "cor1_4": "478fe2c37d6fc74744958b44a38e18b7ecf873293b7be1119a74843ba6c9f654",
        "cor1_6": "8c75f6cbf1c022e09241b012dace267bfac716ca8094920835005143369f261d",
        "balanced": "31e490d48d6b7ab54e6c9fdcecab973457c14e6155727aac7a071cecd015bd7c",
    },
    # recorded before report mode moved onto the class tables
    5: {
        "thm1_1": "76a99ada6ac6c173d836db2c541f75981db451ff2330299e1d534ebfef42fc26",
        "eq_col": "397b19d3b24ae08d66c2359da8f0245a6bb3fbfe6356bb288eb3c3eefa135b73",
        "eq_ind": "255be12828092f973749cdfe5159a33f12bb93da841937660653f6fcceb6de0a",
        "eq_wr": "5a28d2fa37cbba69d2faa58abeae72879b330e9c3a219b1ceaa18000ba9ac018",
        "wr_lemma": "c2299f184990c3e3a9bbceddd6f15cb9f0f2ffe455c32f2f51904e49dc1f2d7e",
        "sidorenko-hardcore": "c2112666343ca864d8cd44d074bf395666a8228a0bbf41616fd0c5ece25eb252",
        "sidorenko-wr": "7a7c5a0b9bddea340ba73f83c3a288993f9e1e2b19c8a90a0ae76ba956def247",
        "sidorenko-k3": "226766502b1246dec902326370cd312aec6404792b4702cc66af2ff8d3a36ad5",
        "cor1_2": "4c0235343e93e23ff37abed3ac0c22922435a502fdd639c41f45a7784e9733f1",
        "cor1_4": "8ddedfe564a5ccd09689b50ea5222a5d37fcd53e5db7edd3fd2958ae4e5d34b5",
        "cor1_6": "690abaec7a93b1c2fcfc57a3eaae56fae12bfd1006829a10438011bba01f5f17",
        "balanced": "66cc63c256c44a1b70c1b0736b093f7e97cdd39b8a2b7dcd1767d223a835b32d",
    },
    # recorded before one report served every pair slot with the same key
    6: {
        "thm1_1": "e0c622130e15ecbc28234c1e76d82a75853db52d9ca77227d0a9728b3939508d",
        "eq_col": "6350b72a6518ca742f4a16e82f0d984e462e3f5992b0166e023ef44a737532d8",
        "eq_ind": "a7a86f4b262e881893ddc14f17187a83cc1dba04dffc75c2f16e4f5c79d87ae8",
        "eq_wr": "c868aac88849b8ec26e2716d73e9f2bef5c5e930fe25305982398e1807a72753",
        "wr_lemma": "ee23ea29722190900f7d5334d7b0787388d880925c89636fec2fb91d9510e501",
        "sidorenko-hardcore": "6416abe698b0f724c9d9724320849ef5226504cc5469fcfd8c4ffa42948207c0",
        "sidorenko-wr": "32102063b823ed42e6f606e242aa4381b7d05e6840f2fddda2102dd9c77dd72b",
        "sidorenko-k3": "41006b067b709b49f666e6c5e03066ab6f13ce08aefd66eb33fe0c1d3d51cd71",
        "cor1_2": "948ebed19efdf2a133f47e02d36e7c1ca57b659322a4137d48a7da98a76a655d",
        "cor1_4": "f87d089817feac564ca2642bdbfb42c8ed5370bcedf18d8aee31985329d6e9d9",
        "cor1_6": "7326a177ac76d0d9b7d36671305ec43d4a0d5f2f8fa3510849dc831d6b707f5e",
        "balanced": "72a68e2279d49407b509f779db9cb89f83e5450f968cbb901e22adbdb66e8b47",
    },
}
BUNDLE_DIGEST = "4234a011fcf8df73c963badedacaad591d3d708c54a5fbabf2136aa79f098f03"
# edge_mono_scan(target, 5, bipartite_only=...).to_json_dict(), recorded
# before the scans moved onto the class tables
SCAN_DIGESTS = {
    ("k3", True): "1ec8482bc51da77646f4343f6b5d3d02d998604655e51a2b0e2f82df097663ec",
    ("hardcore", False): "52931418a9bfde824c4cb18c36c0bfcb4357b58caa104ba87918c7ad82734b20",
    ("wr", False): "222323fee43ae024d5ae451e9f840fd143d03440b0bfab41ecc3c3aa0d881aad",
    # recorded before the scan moved onto the sweeps' edge slots
    ("weighted-star", True): "3711451045e95fb0237dbefecabf158a9bf4a749d517a0cb20f2e5fdba6eb2cc",
    ("weighted-star", False): "96859fa0ba8b0ad20908da1526ce74dc94d04e296a257c86bc071685a351d160",
    ("weighted-mixed", True): "bde82fc00a30b83b71c3e3f5564d1638ad5eb9fdaf3d53a8bb0fc1a5b5b6a838",
    ("weighted-mixed", False): "135e920d0913e9f34fb2d300939326658e36e3b16d8e4b791d39ea37d6aaf305",
}

# sweep_summary(...).to_json_dict() at max_n=7 for the pair claims, and
# edge_mono_scan(target, 7, ...).to_json_dict(), recorded before the
# summary folds read one row per class representative
SUMMARY_DIGESTS_N7 = {
    "thm1_1": "aa4df4ba80e02a777589e7c5d2d5a0b249680f93c9099a73e3bebc7e73781636",
    "eq_col": "f762b1c1a17b02b8e04216558d34f7ccca64c9196966de1d846949b2320c960a",
    "eq_ind": "df48590bfdfd41f8dccb14318924555f33ebc126ac6ba6605391a36d74904224",
    "eq_wr": "de3e53fabff1f0544e1a485838ac0f25a73e97e35f9c919b2138508c5f0d38ba",
    "wr_lemma": "8f2cac2167d3da7f1cb59c0c33f81de9b835356c90a59a923422d9b628e7d728",
}
SCAN_DIGESTS_N7 = {
    ("k3", True): "f9df48fa337e7a24ecf61812d4bef57cd446a4b54e12e4faa28bde2f6bdbcb43",
    ("hardcore", False): "76450cca6f37fa07a1fa750888c662b20bc6ada2d14b257623e6cdcbb8db4e73",
    ("wr", False): "87a75b90191af0f50b834309389e3849d2e55935fa5ee89db7dcf3af8968dffb",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _case_key(claim, kw):
    return f"{claim}-{kw['target']}" if "target" in kw else claim


@pytest.mark.parametrize("claim,kw,max_n", [(*c, n) for n in (5, 6) for c in DIGEST_CASES],
                         ids=[_case_key(*c) + ("" if n == 5 else f"-n{n}")
                              for n in (5, 6) for c in DIGEST_CASES])
def test_summary_digest(claim, kw, max_n):
    built = {k: _TARGETS[v]() if k == "target" else v for k, v in kw.items()}
    s = sweep_summary(SweepConfig(claim, max_n, **built))
    digests = SUMMARY_DIGESTS if max_n == 5 else SUMMARY_DIGESTS_N6
    assert _sha(_canonical(s.to_json_dict())) == digests[_case_key(claim, kw)]


@pytest.mark.parametrize("claim,kw,max_n", [(*c, n) for n in (4, 5, 6) for c in DIGEST_CASES],
                         ids=[_case_key(*c) + ("" if n == 4 else f"-n{n}")
                              for n in (4, 5, 6) for c in DIGEST_CASES])
def test_cli_sweep_digest(claim, kw, max_n):
    argv = ["sweep", "--claim", claim, "--max-n", str(max_n)]
    for q in kw.get("qs", ()):
        argv += ["--q", str(q)]
    if "target" in kw:
        argv += ["--target", kw["target"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert _sha(buf.getvalue().encode()) == CLI_DIGESTS[max_n][_case_key(claim, kw)]


def test_bundle_digest():
    b = corollary_bundle_summary(5)
    assert _sha(_canonical({c: s.to_json_dict() for c, s in b.items()})) == BUNDLE_DIGEST


@pytest.mark.parametrize("target,bipartite_only", sorted(SCAN_DIGESTS))
def test_scan_digest(target, bipartite_only):
    r = edge_mono_scan(_TARGETS[target](), 5, bipartite_only=bipartite_only)
    assert _sha(_canonical(r.to_json_dict())) == SCAN_DIGESTS[(target, bipartite_only)]


@pytest.mark.parametrize("claim", sorted(SUMMARY_DIGESTS_N7))
def test_summary_digest_n7(claim):
    s = sweep_summary(SweepConfig(claim, 7, **dict(DIGEST_CASES)[claim]))
    assert _sha(_canonical(s.to_json_dict())) == SUMMARY_DIGESTS_N7[claim]


@pytest.mark.parametrize("target,bipartite_only", sorted(SCAN_DIGESTS_N7))
def test_scan_digest_n7(target, bipartite_only):
    r = edge_mono_scan(_TARGETS[target](), 7, bipartite_only=bipartite_only)
    assert _sha(_canonical(r.to_json_dict())) == SCAN_DIGESTS_N7[(target, bipartite_only)]


def _per_key(grouped, width):
    """{(q index, key): [instances, lowest (rank, position), margin]} over
    the groups of every slot, with the inapplicable instances of a q index
    under the key None: the fold reads only their count, and thm1_1's key
    there depends on the state of pair 0."""
    out = {}
    for s, (rows, margins) in enumerate(grouped):
        for i, ms in enumerate(margins):
            for (key, count, rank), margin in zip(rows, ms):
                if margin is sweeps._NO_REPORT:
                    continue
                at = (i, None) if margin is None else (i, key)
                got = out.setdefault(at, [0, (rank, i * width + s), margin])
                got[0] += count
                got[1] = min(got[1], (rank, i * width + s))
                assert got[2] == margin
    return out


@pytest.mark.parametrize("claim,kw", [
    ("eq_ind", {}), ("eq_wr", {}), ("eq_col", {"qs": (2, 3)}), ("thm1_1", {"qs": (1, 3)}),
    ("wr_lemma", {}), ("cor1_4", {}), ("scan", {"target": "weighted-mixed"}),
])
def test_rep_groups_match_slot_groups_per_key(monkeypatch, claim, kw):
    # the summary folds read one row per class representative; per (q
    # index, key) that must give the instance count and the lowest (rank,
    # position) of the groups over every labelled graph, which holds only
    # while every slot key is invariant under relabelling
    seen, rep_groups = [], sweeps._rep_groups

    def checked(t, slots):
        reps = list(rep_groups(t, slots))
        assert _per_key(reps, len(slots)) == _per_key(_slot_groups(t, slots), len(slots))
        seen.append(t.n)
        return iter(reps)

    monkeypatch.setattr(sweeps, "_rep_groups", checked)
    if claim == "scan":
        edge_mono_scan(_TARGETS[kw["target"]](), 6)
    else:
        sweep_summary(SweepConfig(claim, 6, **kw))
    assert seen == list(range(1, 7))


def test_sweeps_does_not_import_search():
    """search imports sweeps, so sweeps must not import search.  The
    package's __init__ imports every module, so a child process loads
    homverify.sweeps under a bare package object that skips it."""
    code = ("import sys, types; pkg = types.ModuleType('homverify'); "
            f"pkg.__path__ = [{str(Path(sweeps.__file__).parent)!r}]; "
            "sys.modules['homverify'] = pkg; import homverify.sweeps; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('homverify.'))))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = r.stdout.split()
    assert "homverify.sweeps" in loaded and "homverify.search" not in loaded
