"""Cross-checks between the streamed per-instance checkers and the fast
aggregate kernels, worker-count invariance, and output digests."""

import contextlib
import hashlib
import io
import json

import pytest

from homverify import cli
from homverify.graphs import complete_target, hard_core_target, widom_rowlinson_target
from homverify.sweeps import (
    SweepConfig,
    SweepSummary,
    corollary_bundle_summary,
    oracle_equivalence_sweep,
    summarize,
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


def _fold_reports(claim, dicts):
    s = SweepSummary(claim)
    for rd in dicts:
        s.record_json(rd)
    return s


@pytest.mark.parametrize("claim,kw", CASES)
def test_fast_summary_matches_streamed_reports(claim, kw):
    cfg = SweepConfig(claim, 4, **kw)
    slow = _fold_reports(claim, sweep_reports(cfg))
    fast = sweep_summary(cfg)
    assert (slow.instances, slow.holds, slow.violated, slow.inapplicable) == \
        (fast.instances, fast.holds, fast.violated, fast.inapplicable)
    assert slow.min_margin == fast.min_margin
    assert slow.tight_count == fast.tight_count


def test_worker_count_invariance():
    cfg = SweepConfig("eq_ind", 4)
    one = list(sweep_reports(cfg, workers=1))
    two = list(sweep_reports(cfg, workers=2))
    assert one == two
    s1 = sweep_summary(cfg, workers=1)
    s2 = sweep_summary(cfg, workers=2)
    assert s1.to_json_dict() == s2.to_json_dict()


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


def test_summarize_helper():
    from homverify.verify import check_edge_ratio
    from homverify.graphs import path_graph

    reports = [check_edge_ratio(path_graph(2), "independent", (0, 1))]
    s = summarize("eq_ind", reports)
    assert s.instances == 1 and s.holds == 1 and s.tight_count == 1


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
# --max-n 4, per case
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
CLI_DIGESTS = {
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
}
BUNDLE_DIGEST = "4234a011fcf8df73c963badedacaad591d3d708c54a5fbabf2136aa79f098f03"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _case_key(claim, kw):
    return f"{claim}-{kw['target']}" if "target" in kw else claim


@pytest.mark.parametrize("claim,kw", DIGEST_CASES, ids=[_case_key(*c) for c in DIGEST_CASES])
def test_summary_digest(claim, kw):
    built = {k: _TARGETS[v]() if k == "target" else v for k, v in kw.items()}
    s = sweep_summary(SweepConfig(claim, 5, **built))
    assert _sha(_canonical(s.to_json_dict())) == SUMMARY_DIGESTS[_case_key(claim, kw)]


@pytest.mark.parametrize("claim,kw", DIGEST_CASES, ids=[_case_key(*c) for c in DIGEST_CASES])
def test_cli_sweep_digest(claim, kw):
    argv = ["sweep", "--claim", claim, "--max-n", "4"]
    for q in kw.get("qs", ()):
        argv += ["--q", str(q)]
    if "target" in kw:
        argv += ["--target", kw["target"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert _sha(buf.getvalue().encode()) == CLI_DIGESTS[_case_key(claim, kw)]


def test_bundle_digest():
    b = corollary_bundle_summary(5)
    assert _sha(_canonical({c: s.to_json_dict() for c, s in b.items()})) == BUNDLE_DIGEST
