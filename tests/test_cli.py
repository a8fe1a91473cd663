import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from homverify import cli, counting

DATA = Path(__file__).parent / "data"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "homverify", *args],
                          capture_output=True, text=True, **kw)


def lines(out):
    return [json.loads(x) for x in out.strip().splitlines()]


def test_count_ind_example():
    r = run_cli("count", "ind", "--graph", str(DATA / "p4.el"))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"count": "8"}


def test_count_hom_builtin_targets():
    r = run_cli("count", "hom", "--graph", str(DATA / "p4.el"), "--target", "wr")
    assert r.returncode == 0 and json.loads(r.stdout)["count"] == "41"
    r = run_cli("count", "hom", "--graph", str(DATA / "p4.el"), "--target", "k3")
    assert json.loads(r.stdout)["count"] == "24"
    r = run_cli("count", "chrom", "--graph", str(DATA / "p4.el"), "--q", "3")
    assert json.loads(r.stdout)["count"] == "24"


def test_count_hom_weighted_target_rational(tmp_path):
    tg = tmp_path / "t.tg"
    tg.write_text("2\n1/2 1\n1 0\n")
    r = run_cli("count", "hom", "--graph", str(DATA / "k2.el"), "--target", str(tg))
    assert r.returncode == 0
    assert json.loads(r.stdout)["count"] == "5/2"


def test_poly_command():
    r = run_cli("poly", "--graph", str(DATA / "p4.el"))
    assert json.loads(r.stdout) == {"coeffs": ["0", "-1", "3", "-3", "1"]}


def test_verify_eq_wr_tight():
    r = run_cli("verify", "eq_wr", "--graph", str(DATA / "k2.el"), "--edge", "0,1")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["verdict"] == "holds" and d["margin"] == "0/1" and d["lhs"] == "7/9"


def test_verify_thm1_1_stream():
    r = run_cli("verify", "thm1_1", "--graph", str(DATA / "p4.el"), "--q", "3")
    assert r.returncode == 0
    ds = lines(r.stdout)
    assert len(ds) == 6  # all vertex pairs of the 4-path
    assert all(d["verdict"] == "holds" for d in ds)


def test_verify_remark2_2_inapplicable_is_not_failure():
    r = run_cli("verify", "remark2_2", "--graph", str(DATA / "p4.el"), "--q", "17")
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdict"] == "inapplicable"


def test_sweep_small_all_holds():
    r = run_cli("sweep", "--claim", "eq_ind", "--max-n", "3")
    assert r.returncode == 0
    ds = lines(r.stdout)
    summary = ds[-1]
    assert summary["claim"] == "eq_ind"
    assert summary["instances"] == 13 and summary["violated"] == 0
    assert all(d["verdict"] == "holds" for d in ds[:-1])


def test_sweep_summary_only_matches_stream():
    full = run_cli("sweep", "--claim", "eq_wr", "--max-n", "4")
    only = run_cli("sweep", "--claim", "eq_wr", "--max-n", "4", "--summary-only")
    f = lines(full.stdout)[-1]
    o = lines(only.stdout)[0]
    for key in ("instances", "holds", "violated", "inapplicable", "min_margin", "tight_count"):
        assert f[key] == o[key]


def test_sweep_worker_byte_identity():
    a = run_cli("sweep", "--claim", "eq_ind", "--max-n", "4", "--workers", "1")
    b = run_cli("sweep", "--claim", "eq_ind", "--max-n", "4", "--workers", "2")
    assert a.returncode == b.returncode == 0
    assert len(lines(a.stdout)) == 206  # 205 edge instances + summary
    assert a.stdout == b.stdout


def test_global_flags_accepted_on_both_sides_of_subcommand(tmp_path):
    out = tmp_path / "o.json"
    a = run_cli("--workers", "2", "--output", str(out), "count", "ind",
                "--graph", str(DATA / "p4.el"))
    assert a.returncode == 0 and json.loads(out.read_text()) == {"count": "8"}
    out2 = tmp_path / "o2.json"
    b = run_cli("count", "ind", "--graph", str(DATA / "p4.el"),
                "--output", str(out2), "--workers", "2")
    assert b.returncode == 0 and json.loads(out2.read_text()) == {"count": "8"}


def test_empty_sweep_is_valid_json():
    # a 1-vertex sweep has no edge instances: stream is just the summary
    r = run_cli("sweep", "--claim", "eq_ind", "--max-n", "1")
    assert r.returncode == 0
    ds = lines(r.stdout)
    assert len(ds) == 1 and ds[0]["instances"] == 0 and ds[0]["violated"] == 0


def test_scan_command():
    r = run_cli("scan", "--target", "hardcore", "--max-n", "4")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["satisfies_all"] is True and d["threshold"] == "3/4"


def test_search_finds_pinned_witness(tmp_path):
    manifest = json.loads((DATA / "fork_k3_manifest.json").read_text())
    out = tmp_path / "w.tg"
    r = run_cli("search", "--H", str(DATA / "fork.el"), "--k", "3",
                "--samples", str(manifest["sample_index"] + 1),
                "--seed", str(manifest["seed"]), "--save-target", str(out))
    assert r.returncode == 1  # counterexample found
    d = json.loads(r.stdout)
    assert d["found"] is True
    assert d["ratio"] == manifest["ratio"] and d["sample_index"] == manifest["sample_index"]
    assert out.read_text() == (DATA / "fork_k3_counterexample.tg").read_text()


def test_search_not_found_is_exit_zero():
    r = run_cli("search", "--H", str(DATA / "k2.el"), "--k", "2",
                "--samples", "50", "--seed", "5")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"found": False, "seed": 5, "samples": 50}


def test_output_file(tmp_path):
    out = tmp_path / "o.json"
    r = run_cli("--output", str(out), "count", "ind", "--graph", str(DATA / "p4.el"))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(out.read_text()) == {"count": "8"}


@pytest.mark.parametrize("args", [
    ("count", "hom", "--graph", "nope.el", "--target", "k3"),
    ("count", "chrom", "--graph", "DATA_P4"),            # missing --q
    ("count", "nosuch", "--graph", "DATA_P4"),
    ("verify", "eq_ind", "--graph", "DATA_P4"),          # missing --edge
    ("verify", "eq_ind", "--graph", "DATA_P4", "--edge", "zz"),
    ("sweep", "--claim", "nosuch", "--max-n", "3"),
    ("sweep", "--claim", "thm1_1", "--max-n", "3"),      # missing --q
    ("sweep", "--claim", "thm1_1", "--q", "-1", "--max-n", "3", "--summary-only"),
    ("sweep", "--claim", "eq_col", "--q", "-2", "--max-n", "3", "--summary-only"),
    ("scan", "--target", "hardcore", "--max-n", "9"),
    ("scan", "--target", "hardcore", "--max-n", "0"),
    ("search", "--H", "DATA_P4", "--k", "9", "--samples", "5", "--seed", "1"),
    ("scan", "--target", "k0", "--max-n", "3"),          # empty target
    ("count", "ind", "--graph", "DATA_DIR"),             # unreadable input
    ("--output", "DATA_DIR", "count", "ind", "--graph", "DATA_P4"),  # unwritable output
])
def test_usage_errors_exit_2(args):
    paths = {"DATA_P4": str(DATA / "p4.el"), "DATA_DIR": str(DATA)}
    args = [paths.get(a, a) for a in args]
    r = run_cli(*args)
    assert r.returncode == 2
    err = r.stderr.strip()
    assert err and "\n" not in err  # single-line diagnostic


def test_internal_error_exit_3(monkeypatch, capsys):
    def boom(*_args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_run_count", boom)
    assert cli.main(["count", "ind", "--graph", str(DATA / "p4.el")]) == 3
    err = capsys.readouterr().err.strip()
    assert "boom" in err and "\n" not in err


def _write_edgelist(path, n, edges):
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(path)


@pytest.mark.parametrize("n,code", [(51, 0), (52, 2)])
def test_search_source_size_limit(n, code, tmp_path):
    path = _write_edgelist(tmp_path / "p.el", n, [(i, i + 1) for i in range(n - 1)])
    r = run_cli("search", "--H", path, "--k", "2", "--samples", "10", "--seed", "1", timeout=60)
    assert r.returncode == code, r.stderr
    if code == 2:
        assert r.stderr == "homverify: search supports sources with at most 51 vertices\n"


def test_count_size_guards_exit_2(tmp_path):
    path3000 = _write_edgelist(tmp_path / "p3000.el", 3000, [(i, i + 1) for i in range(2999)])
    r = run_cli("count", "ind", "--graph", path3000, timeout=60)
    assert r.returncode == 2 and "guard" in r.stderr
    k40 = _write_edgelist(tmp_path / "k40.el", 40,
                          [(u, v) for u in range(40) for v in range(u + 1, 40)])
    # guarded only: unguarded, this would visit 2^40 white sets
    r = run_cli("count", "wr", "--graph", k40, timeout=60)
    assert r.returncode == 2 and "guard" in r.stderr


@pytest.mark.parametrize("what,guard,count", [
    ("ind", "IND_GUARD_VERTICES", "8"),
    ("wr", "WR_GUARD_VERTICES", "41"),
])
def test_count_override_size_guard(what, guard, count, monkeypatch, capsys):
    monkeypatch.setattr(counting, guard, 3)
    argv = ["count", what, "--graph", str(DATA / "p4.el")]
    assert cli.main(argv) == 2
    capsys.readouterr()
    assert cli.main([*argv, "--override-size-guard"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": count}


@pytest.mark.parametrize("loop,count", [("1", "1"), ("0", "0")])
def test_count_hom_one_vertex_target_long_path(loop, count, tmp_path):
    path3000 = _write_edgelist(tmp_path / "p3000.el", 3000, [(i, i + 1) for i in range(2999)])
    target = tmp_path / "one.tg"
    target.write_text(f"1\n{loop}\n")
    r = run_cli("count", "hom", "--graph", path3000, "--target", str(target), timeout=60)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"count": count}


def test_count_hom_override_long_path(tmp_path):
    path3000 = _write_edgelist(tmp_path / "p3000.el", 3000, [(i, i + 1) for i in range(2999)])
    r = run_cli("count", "hom", "--graph", path3000, "--target", "k2",
                "--override-size-guard", timeout=60)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"count": "2"}


@pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
def test_count_ind_override_long_path_and_cycle(cycle, tmp_path):
    n = 3000  # far deeper than the recursion limit if branched
    edges = [(i, (i + 1) % n) for i in range(n if cycle else n - 1)]
    graph = _write_edgelist(tmp_path / "g.el", n, edges)
    r = run_cli("count", "ind", "--graph", graph, "--override-size-guard", timeout=60)
    assert r.returncode == 0, r.stderr
    # the path has F_3002 independent sets, the cycle the Lucas number F_2999 + F_3001
    want = counting.path_ind_fib(n - 3) + counting.path_ind_fib(n - 1) if cycle \
        else counting.path_ind_fib(n)
    assert json.loads(r.stdout) == {"count": str(want)}


def test_count_chrom_override_size_guard(monkeypatch, capsys):
    # p4 has 3 edges on 4 vertices: past both lowered guards
    monkeypatch.setattr(counting, "CHROM_POLY_EDGE_GUARD", 1)
    monkeypatch.setattr(counting, "HOM_GUARD_BITS", 1)
    argv = ["count", "chrom", "--graph", str(DATA / "p4.el"), "--q", "3"]
    assert cli.main(argv) == 2
    capsys.readouterr()
    assert cli.main([*argv, "--override-size-guard"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": "24"}


def test_malformed_graph_exit_2(tmp_path):
    bad = tmp_path / "bad.el"
    bad.write_text("3 1\n0 0\n")
    r = run_cli("count", "ind", "--graph", str(bad))
    assert r.returncode == 2 and "self-loop" in r.stderr


def test_graph6_input(tmp_path):
    g6 = tmp_path / "c4.g6"
    g6.write_text("Cr\n")  # 4-cycle 0-1-2-3
    r = run_cli("count", "chrom", "--graph", str(g6), "--q", "3")
    assert r.returncode == 0
    assert json.loads(r.stdout)["count"] == "18"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,argv", [
    ("run_verification_battery", ["--max-n", "0"]),
    ("run_verification_battery", ["--max-n", "8"]),
    ("hunt_counterexamples", ["--k", "6"]),
    ("hunt_counterexamples", ["--samples", "0"]),
    ("hunt_counterexamples", ["--max-n", "8"]),
])
def test_script_bad_argument_exit_2(name, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _script(name).main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("name,step", [
    ("run_verification_battery", "sweep_summary"),
    ("hunt_counterexamples", "p4_grid_margins"),
])
def test_script_internal_error_exit_3(name, step, tmp_path, monkeypatch, capsys):
    # exit 1 means violations found; a crash is a one-line exit 3
    module = _script(name)

    def crash(*args, **kw):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(module, step, crash)
    assert module.main(["--max-n", "2", "--summary-only", "--out", str(tmp_path)]
                       if name == "run_verification_battery" else ["--max-n", "2"]) == 3
    err = capsys.readouterr().err
    assert err == f"{name}: internal error: RuntimeError: boom second line\n"
