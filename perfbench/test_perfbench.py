"""Tests of the benchmark itself: pinned item counts, reference coverage,
tracer hygiene, the search workload's seeds and the refusal to run without
the homverify sources.

    python3 -m pytest perfbench -q
"""

import importlib
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from functools import lru_cache
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from homverify import graphs, search, sweeps  # noqa: E402


# ---------------------------------------------------------------------------
# item counts, derived from graph structure alone (no counter runs)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def shapes(n: int) -> tuple:
    """(n, edges, connected, bipartite) of every labelled graph on n vertices."""
    return tuple((n, g.m, g.is_connected(), graphs.bipartition(g) is not None)
                 for g in search.enumerate_graphs(n))


def upto(max_n: int):
    for n in range(1, max_n + 1):
        yield from shapes(n)


def count(max_n: int, per_graph) -> int:
    return sum(per_graph(n, m, conn, bip) for n, m, conn, bip in upto(max_n))


def per_sweep_graph(claim: str, nq: int):
    """Instances (or report lines) one graph contributes to a sweep."""
    return {
        "thm1_1": lambda n, m, conn, bip: comb(n, 2) * nq if conn and bip else 0,
        "eq_col": lambda n, m, conn, bip: m * nq if bip else 0,
        "eq_ind": lambda n, m, conn, bip: m,
        "eq_wr": lambda n, m, conn, bip: m,
        "wr_lemma": lambda n, m, conn, bip: m,
        "cor1_2": lambda n, m, conn, bip: nq if bip else 0,
        "balanced": lambda n, m, conn, bip: nq if bip else 0,
        "cor1_4": lambda n, m, conn, bip: int(conn),
        "cor1_6": lambda n, m, conn, bip: int(conn),
        "sidorenko": lambda n, m, conn, bip: int(conn),
    }[claim]


def expected_items(p: dict) -> int:
    call = p["call"]
    if call == "sweep_summary":
        return count(p["max_n"], per_sweep_graph(p["claim"], len(p.get("qs", ()))))
    if call == "cli.main":
        nq = p["argv"].count("--q")
        return count(p["max_n"], per_sweep_graph(p["claim"], nq))
    if call == "corollary_bundle_summary":
        # four claims on every connected graph, the K3 floor on bipartite ones
        return count(p["max_n"], lambda n, m, conn, bip: (4 + bip) if conn else 0)
    if call == "edge_mono_scan":
        # every edge of every scanned graph; no target here has a zero
        # denominator on a graph the scan visits
        return count(p["max_n"], lambda n, m, conn, bip:
                     m if bip or not p["bipartite_only"] else 0)
    if call == "oracle_equivalence_sweep":
        return (count(p["max_n"], lambda *_: 1)
                + count(p["wr_chrom_max_n"], lambda *_: 1) * (1 + len(p["chrom_qs"])))
    if call == "find_counterexample":
        return p["samples"] if p["H"] == "P4" else 0
    raise AssertionError(call)


def test_labelled_graph_count():
    assert count(6, lambda *_: 1) == 33_867
    assert count(6, lambda *_: 1) == sum(2 ** comb(n, 2) for n in range(1, 7))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pinned_item_counts(name):
    w = workloads.WORKLOADS[name]
    for unit in w.units:
        assert expected_items(unit.params) == unit.items, unit.name


PINNED_TOTALS = {"summary": 523_120, "reports": 47_496, "oracle": 37_164,
                 "search": workloads.P4_SAMPLES}


def test_workload_totals():
    assert {n: w.items for n, w in workloads.WORKLOADS.items()} == PINNED_TOTALS
    assert workloads.P4_SAMPLES == 400_000 and workloads.FORK_SAMPLES == 100_000


def _sweep(claim, max_n, **kw):
    return {"call": "sweep_summary", "claim": claim, "max_n": max_n, **kw}


def _cli(claim, max_n, q=False):
    return {"call": "cli.main", "claim": claim, "max_n": max_n,
            "argv": ["--q", "3"] if q else []}


# The workloads at the acceptance suite's sizes minus one vertex, whose item
# totals were measured at the seed commit.  The benchmark runs smaller
# versions; matching these totals checks the structural counts above.
FULL_SIZE = {
    "summary": ([
        _sweep("thm1_1", 6, qs=(2, 3, 4, 5)), _sweep("eq_col", 6, qs=(2, 3)),
        _sweep("eq_ind", 6), _sweep("cor1_2", 6, qs=(2, 3)),
        _sweep("eq_wr", 5), _sweep("wr_lemma", 5),
        {"call": "corollary_bundle_summary", "max_n": 6},
        *({"call": "edge_mono_scan", "max_n": 5, "bipartite_only": b} for b in (True, False, False)),
    ], 643_321),
    "reports": ([
        _cli("thm1_1", 6, q=True), _cli("cor1_4", 6), _cli("cor1_6", 6),
        _cli("sidorenko", 6), _cli("balanced", 6, q=True),
        _cli("eq_ind", 5), _cli("eq_wr", 5), _cli("wr_lemma", 5),
    ], 151_546),
    "oracle": ([{"call": "oracle_equivalence_sweep", "max_n": 6, "wr_chrom_max_n": 6,
                 "chrom_qs": (2, 3)}], 135_468),
}


@pytest.mark.parametrize("name", sorted(FULL_SIZE))
def test_full_size_totals(name):
    specs, total = FULL_SIZE[name]
    assert sum(expected_items(p) for p in specs) == total


# ---------------------------------------------------------------------------
# reference digests
# ---------------------------------------------------------------------------

def test_reference_covers_every_unit():
    ref = workloads.load_reference()
    for name, w in workloads.WORKLOADS.items():
        keys = set()
        for unit in w.units:
            seeds = workloads.RECORDED_SEEDS if unit.seeded else (0,)
            keys |= {unit.reference_key(s) for s in seeds}
        assert set(ref[name]) == keys


@pytest.mark.parametrize("seed", workloads.RECORDED_SEEDS)
def test_search_recorded_seeds(seed, tmp_path):
    """P4 has no witness, the fork's witness re-verifies exactly, and both
    outputs match their recorded digests, for each recorded seed."""
    ref = workloads.load_reference()["search"]
    ctx = workloads.Context(seed=seed, workers=1, tmpdir=tmp_path)
    for unit in workloads.SEARCH.units:
        items, why = workloads.check_unit(unit, ctx, ref)
        assert why is None, (unit.name, why)
        assert items == unit.items


def test_digest_mismatch_is_a_failure(tmp_path):
    unit = workloads.Unit("probe", 1, lambda ctx: (b"output", 1))
    ctx = workloads.Context(seed=0, workers=1, tmpdir=tmp_path)
    assert workloads.check_unit(unit, ctx, {"probe": workloads.digest(b"output")}) == (1, None)
    _, why = workloads.check_unit(unit, ctx, {"probe": workloads.digest(b"other")})
    assert "digest" in why
    _, why = workloads.check_unit(workloads.Unit("probe", 2, unit.run), ctx,
                                  {"probe": workloads.digest(b"output")})
    assert "pinned" in why


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _plan_attributes(plan):
    return [(tracing.resolve(target), attr) for target, attr, _, _ in plan]


def _snapshot(plan):
    return {(id(owner), attr): (owner, owner.__dict__.get(attr, None), attr in owner.__dict__)
            for owner, attr in _plan_attributes(plan)}


@pytest.mark.parametrize("plan", [tracing.LAYER_PLAN, tracing.POOL_PLAN],
                         ids=["layers", "pool"])
def test_tracer_restores_every_attribute(plan):
    before = _snapshot(plan)
    t = tracing.Tracer()
    t.install(plan)
    try:
        for owner, attr in _plan_attributes(plan):
            assert owner.__dict__[attr] is not before[(id(owner), attr)][1], attr
        # a traced sweep gives the same answer, and graphs still compare equal
        cfg = sweeps.SweepConfig("eq_ind", 4)
        assert sweeps.sweep_summary(cfg).to_json_dict()["instances"] == 205
        assert graphs.path_graph(3) == graphs.Graph.from_edges(3, [(0, 1), (1, 2)])
    finally:
        t.remove()
    assert _snapshot(plan) == before
    assert t.totals()["sweeps.merge"]["calls"] > 0


def test_tracer_self_time_and_items():
    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return sum(Box.inner() for _ in range(3))

        @staticmethod
        def gen():
            yield from range(4)

    original = dict(vars(Box))
    t = tracing.Tracer()
    t.wrap_call(Box, "inner", "inner")
    t.wrap_call(Box, "outer", "outer", keep=True)
    t.wrap_gen(Box, "gen", "gen")
    assert Box.outer() == 3
    assert list(Box.gen()) == [0, 1, 2, 3]
    t.remove()
    assert dict(vars(Box)) == original
    tot = t.totals()
    assert tot["inner"]["calls"] == 3 and tot["outer"]["calls"] == 1
    assert tot["gen"]["items"] == 4 and tot["gen"]["calls"] == 5
    assert tot["outer"]["self_s"] == pytest.approx(
        tot["outer"]["total_s"] - tot["inner"]["total_s"], abs=1e-9)
    assert t.edge_total("outer", "inner") == pytest.approx(tot["inner"]["total_s"])
    assert [s["name"] for s in t.spans] == ["outer"]


def _probe_workload(seen):
    plan_attrs = _plan_attributes(tracing.LAYER_PLAN)
    originals = {(id(o), a): o.__dict__[a] for o, a in plan_attrs}

    def run(ctx):
        seen.append(any(o.__dict__[a] is not originals[(id(o), a)] for o, a in plan_attrs))
        return b"probe", 1

    return workloads.Workload("probe", (workloads.Unit("probe", 1, run),)), originals


@pytest.mark.parametrize("mode,wrapped", [("plain", False), ("timed", False), ("traced", True)])
def test_pass_modes(mode, wrapped, monkeypatch):
    """Untraced passes run with no wrapper installed; traced passes run
    wrapped and put every original back.  Only timed passes read the host's
    speed: once after set-up and once after each timed stretch."""
    one_pass = importlib.import_module("one_pass")
    seen = []
    probe, originals = _probe_workload(seen)
    monkeypatch.setitem(workloads.WORKLOADS, "probe", probe)
    monkeypatch.setattr(workloads, "load_reference",
                        lambda: {"probe": {"probe": workloads.digest(b"probe")}})
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert one_pass.main([mode, "probe", "0", "1"]) == 0
    rec = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert rec["failures"] == [] and rec["items"] == 1
    assert seen == [wrapped]
    assert len(rec["segment_s"]) == 1 and sum(rec["segment_s"]) == rec["wall_s"]
    assert len(rec["cal_s"]) == (2 if mode == "timed" else 0)
    for o, a in _plan_attributes(tracing.LAYER_PLAN):
        assert o.__dict__[a] is originals[(id(o), a)]


# ---------------------------------------------------------------------------
# host-speed scaling
# ---------------------------------------------------------------------------

def test_speed_scales():
    run = importlib.import_module("run")
    ref = run.REF_CAL_S
    rec = {"cal_s": [2 * ref, ref, ref / 2], "segment_s": [1.0, 2.0], "wall_s": 3.0}
    got = run.speed_scales(rec)
    assert got["setup_scale"] == pytest.approx(0.5)
    # each stretch is scaled by the mean of the readings around it
    assert got["speed_scale"] * 3.0 == pytest.approx(1.0 / 1.5 + 2.0 / 0.75)
    assert run.speed_scales({"cal_s": [ref]}) == {"setup_scale": pytest.approx(1.0)}


@pytest.mark.parametrize("enabled", [True, False])
def test_calibrate_keeps_gc_state(enabled):
    import gc

    calibrate = importlib.import_module("calibrate")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert calibrate.calibrate() > 0
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# refusal outside a source checkout
# ---------------------------------------------------------------------------

def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# metric names agree with BENCHMARK.json
# ---------------------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    run = importlib.import_module("run")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = {name: {"calls": 1, "items": 1, "total_s": 1.0, "self_s": 0.5}
              for name in ("cli", "search.confirm", "sweeps.pool", "sweeps.merge")}
    traced = {"layers": layers, "wall_s": 2.0, "counters": {}, "edges":
              {"search.find>counting.hom": 0.0}, "poly_cache": {"hits": 0, "misses": 0}}
    got = run.layer_metrics(1.0, traced, {"layers": layers})
    assert {k: u for k, (_, u) in got.items()} == {m["name"]: m["unit"]
                                                   for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
