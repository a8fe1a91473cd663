"""Cross-checks of both sweep modes against an independent per-labelled-
graph reference stream, worker-count invariance, and output digests."""

import contextlib
import hashlib
import io
import json

import pytest

from homverify import cli, sweeps
from homverify.graphs import Graph, complete_target, hard_core_target, widom_rowlinson_target
from homverify.search import edge_mono_scan, iter_edge_sets
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


def _reference_stream(cfg):
    """The report stream computed the slow way, independently of the class
    tables: every labelled graph of iter_edge_sets built as a Graph, the
    claim's sweep run on it, each Report written with json.dumps and folded
    in stream order.  Returns (text, summary)."""
    sweep = sweeps.CLAIMS[cfg.claim].sweep
    lines = []
    s = SweepSummary(cfg.claim)
    for n in range(1, cfg.max_n + 1):
        for edges in iter_edge_sets(n):
            for r in sweep(Graph(n, frozenset(edges)), cfg):
                lines.append(json.dumps(r.to_json_dict()) + "\n")
                s.record(r.instance, r.verdict, r.margin)
    return "".join(lines), s


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


def test_summaries_start_no_process(monkeypatch):
    def no_pool(method):
        raise AssertionError("a summary started a process")

    monkeypatch.setattr(sweeps, "get_context", no_pool)
    # enough CPUs that the pool would not be clamped to one process
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 4)
    for claim, kw in DIGEST_CASES:
        built = {k: _TARGETS[v]() if k == "target" else v for k, v in kw.items()}
        cfg = SweepConfig(claim, 4, **built)
        sweep_summary(cfg, workers=2)
        sweep_reports(cfg, lambda text: None)
    corollary_bundle_summary(4, workers=2)


def test_worker_count_invariance():
    cfg = SweepConfig("eq_ind", 4)
    s1 = sweep_summary(cfg, workers=1)
    s2 = sweep_summary(cfg, workers=2)
    assert s1.to_json_dict() == s2.to_json_dict()


def test_pool_size_clamped_to_cpu_count(monkeypatch):
    requested = []

    class InlinePool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    class Context:
        Pool = InlinePool

    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sweeps, "get_context", lambda method: Context())
    sweep = dict(max_n=4, wr_chrom_max_n=3, chrom_qs=(2,))
    got = oracle_equivalence_sweep(**sweep, workers=10 ** 6)
    assert requested == [3]
    monkeypatch.undo()
    assert got == oracle_equivalence_sweep(**sweep, workers=1)


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
    s = oracle_equivalence_sweep(max_n=4, wr_chrom_max_n=4, chrom_qs=(2, 3), workers=1)
    assert s.checked_ind == 2 + 8 + 64 + 1
    assert s.checked_wr == s.checked_ind
    assert s.checked_chrom == 2 * s.checked_ind
    assert not s.mismatches


def test_oracle_sweep_worker_invariance():
    a = oracle_equivalence_sweep(max_n=4, wr_chrom_max_n=3, workers=1)
    b = oracle_equivalence_sweep(max_n=4, wr_chrom_max_n=3, workers=2)
    assert (a.checked_ind, a.checked_wr, a.checked_chrom) == \
        (b.checked_ind, b.checked_wr, b.checked_chrom)


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
            "k3": lambda: complete_target(3)}

# sweep_summary(...).to_json_dict() at max_n=5 and the CLI sweep stdout at
# --max-n 4 and 5, per case
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
}
BUNDLE_DIGEST = "4234a011fcf8df73c963badedacaad591d3d708c54a5fbabf2136aa79f098f03"
# edge_mono_scan(target, 5, bipartite_only=...).to_json_dict(), recorded
# before the scans moved onto the class tables
SCAN_DIGESTS = {
    ("k3", True): "1ec8482bc51da77646f4343f6b5d3d02d998604655e51a2b0e2f82df097663ec",
    ("hardcore", False): "52931418a9bfde824c4cb18c36c0bfcb4357b58caa104ba87918c7ad82734b20",
    ("wr", False): "222323fee43ae024d5ae451e9f840fd143d03440b0bfab41ecc3c3aa0d881aad",
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


@pytest.mark.parametrize("claim,kw,max_n", [(*c, n) for n in (4, 5) for c in DIGEST_CASES],
                         ids=[_case_key(*c) + ("" if n == 4 else f"-n{n}")
                              for n in (4, 5) for c in DIGEST_CASES])
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
