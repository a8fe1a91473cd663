import importlib.util
import io
import itertools
import json
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from homverify import cli, counting
from homverify.graphs import bipartition
from homverify.search import enumerate_graphs
from homverify.sweeps import CLAIMS

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


_SWEEP_ARGS = {"thm1_1": ["--q", "2", "--q", "3"], "eq_col": ["--q", "3"],
               "sidorenko": ["--target", "hardcore"], "cor1_2": ["--q", "3"],
               "balanced": ["--q", "3"]}


def test_sweep_summary_only_matches_stream(capsys):
    # every summary field of every sweep claim, instance names included
    names = ("min_margin_instance", "first_tight_instance", "first_violation")
    for claim in (name for name, c in CLAIMS.items() if c.slots):
        argv = ["sweep", "--claim", claim, *_SWEEP_ARGS.get(claim, []), "--max-n", "4"]
        assert cli.main(argv) == 0
        full = lines(capsys.readouterr().out)[-1]
        assert cli.main([*argv, "--summary-only"]) == 0
        [only] = lines(capsys.readouterr().out)
        assert full["claim"] == claim and full["instances"] > 0
        if claim == "eq_col":
            # summary mode names G, the stream G-e: only the graph6 name differs
            for d in (full, only):
                for f in names:
                    d[f] = d[f] and d[f].split(" ", 1)[1]
        assert full == only, claim


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


_EQ_COL = ["sweep", "--claim", "eq_col", "--max-n", "4", "--summary-only"]


def test_repeated_main_calls_share_no_state(capsys):
    # every main call in a process parses with one parser: one call's --q
    # list must not carry into the next, nor a failed call's partial parse
    assert cli.build_parser() is cli.build_parser()
    alone = run_cli(*_EQ_COL, "--q", "2")
    assert alone.returncode == 0
    assert cli.main([*_EQ_COL, "--q", "2", "--q", "3"]) == 0
    both = capsys.readouterr().out
    assert cli.main([*_EQ_COL, "--q", "2"]) == 0
    assert capsys.readouterr().out == alone.stdout != both
    # a usage error after --q 3 was appended, between two good calls
    assert cli.main(["sweep", "--claim", "eq_col", "--q", "3", "--max-n", "x"]) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.count("\n") == 1
    assert cli.main([*_EQ_COL, "--q", "2"]) == 0
    assert capsys.readouterr().out == alone.stdout


def test_output_flag_on_either_side_on_consecutive_calls(tmp_path, capsys):
    # after the subcommand --output defaults to SUPPRESS, so a call that
    # omits it writes to stdout whatever the call before it gave
    argv = ["count", "ind", "--graph", str(DATA / "p4.el")]
    outs = [tmp_path / f"o{i}.json" for i in range(3)]
    assert cli.main(["--output", str(outs[0]), *argv]) == 0
    assert cli.main([*argv, "--output", str(outs[1])]) == 0
    assert cli.main(["--output", str(outs[2]), *argv]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"count": "8"}
    assert [json.loads(o.read_text()) for o in outs] == [{"count": "8"}] * 3


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


@pytest.mark.parametrize("argv", [
    ["count", "ind", "--graph", "missing.txt"],
    ["sweep", "--claim", "sidorenko", "--max-n", "3"],      # missing --target
], ids=["count", "sweep"])
def test_failed_command_leaves_output_file(argv, tmp_path, capsys):
    # --output is opened at the first write, so a command refused before
    # it writes leaves the file's bytes as they were
    out = tmp_path / "out.json"
    out.write_bytes(b'{"count": "8"}\n')
    assert cli.main([*argv, "--output", str(out)]) == 2
    assert out.read_bytes() == b'{"count": "8"}\n'
    assert capsys.readouterr().err.count("\n") == 1


def test_closed_pipe_is_not_a_violation():
    # stdout and stderr share one pipe, closed after the first line as by
    # `2>&1 | head -1`: the failed write is an error (2), never a violation
    p = subprocess.Popen([sys.executable, "-m", "homverify", "sweep", "--claim", "eq_ind",
                          "--max-n", "5"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert json.loads(p.stdout.readline())["claim"] == "eq_ind"
    p.stdout.close()
    assert p.wait(timeout=60) == 2


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
    # every edge claim: a pair that is not two distinct vertices of P_4
    ("verify", "eq_ind", "--graph", "DATA_P4", "--edge", "0,99"),
    ("verify", "eq_wr", "--graph", "DATA_P4", "--edge", "1,1"),
    ("verify", "eq_col", "--q", "2", "--graph", "DATA_P4", "--edge", "4,0"),
    ("verify", "wr_lemma", "--graph", "DATA_P4", "--edge=-1,0"),
    # argparse reads a value that starts with '-' as an option: the pair's
    # value is missing, so it must be written --edge=-1,0
    ("verify", "wr_lemma", "--graph", "DATA_P4", "--edge", "-1,0"),
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


# the screen's elimination names each vertex by a letter local to one step,
# so sources on both sides of the old 51-vertex limit, and past it, are
# searched: 52 vertices exited 2 while that limit stood
@pytest.mark.parametrize("n,code", [(51, 0), (52, 0), (60, 0)])
def test_search_source_size_limit(n, code, tmp_path):
    path = _write_edgelist(tmp_path / "p.el", n, [(i, i + 1) for i in range(n - 1)])
    r = run_cli("search", "--H", path, "--k", "2", "--samples", "10", "--seed", "1", timeout=60)
    assert r.returncode == code, r.stderr
    assert json.loads(r.stdout) == {"found": False, "seed": 1, "samples": 10}


def test_verify_cor1_4_no_vertices(tmp_path, capsys):
    # exited 2 with a message about a path: the bound read F_{n+2} through
    # path_ind_fib, which refuses n = 0
    path = _write_edgelist(tmp_path / "empty.el", 0, [])
    assert cli.main(["verify", "cor1_4", "--graph", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["verdict"] == "holds"


def test_count_size_guards_exit_2(tmp_path):
    k40 = _write_edgelist(tmp_path / "k40.el", 40,
                          [(u, v) for u in range(40) for v in range(u + 1, 40)])
    # refused before summing: unguarded, this would sum over 2^40 red sets
    r = run_cli("count", "wr", "--graph", k40, timeout=60)
    assert r.returncode == 2 and "guard" in r.stderr


@pytest.mark.parametrize("n", [2_000_000, 1_000_000_000])
@pytest.mark.parametrize("argv", [["count", "ind"], ["count", "chrom", "--q", "3"], ["poly"],
                                  ["search", "--k", "3", "--samples", "10", "--seed", "1"]],
                         ids=["ind", "chrom", "poly", "search"])
def test_edgelist_header_past_vertex_bound_exit_2(n, argv, tmp_path, capsys):
    # refused by the parser, before a Graph builds one mask per vertex
    path = _write_edgelist(tmp_path / "big.el", n, [])
    flag = "--H" if argv[0] == "search" else "--graph"
    start = time.perf_counter()
    assert cli.main([*argv, flag, path]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        f"homverify: line 1: header names {n} vertices, more than 65536\n")


@pytest.mark.parametrize("argv,budget,err,out", [
    (["count", "hom", "--target", "K3_FILE"], 4, "hom_count", {"count": "162"}),
    (["poly"], 4, "chrom_poly",
     {"coeffs": ["0", "-27", "108", "-189", "189", "-117", "45", "-10", "1"]}),
    (["count", "ind"], 4, "ind_count", {"count": "41"}),
    (["count", "wr"], 255, "wr_count", {"count": "933"}),
], ids=["hom", "poly", "ind", "wr"])
def test_count_override_size_guard(argv, budget, err, out, monkeypatch, capsys, tmp_path):
    # the 2 x 4 ladder spends a step budget lowered by monkeypatch in every
    # counter (to 255 for wr_count, one short of its 2^8 red sets), and
    # counts at the real budget; the counts are brute force's.  K_3 comes as
    # a file: the k3 token's 9 entries are refused by the target guard at 4
    k3 = tmp_path / "k3.tg"
    k3.write_text("3\n0 1 1\n1 0 1\n1 1 0\n")
    argv = [str(k3) if a == "K3_FILE" else a for a in argv] + ["--graph", _ladder(tmp_path, 4)]
    monkeypatch.setattr(counting, "STEP_BUDGET", budget)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"homverify: {err} guard: more than {budget} steps\n"
    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == out


def test_count_hom_k5_on_p22_refused_at_real_budget(tmp_path):
    # P_22 into K_5 has 5 * 4^21 maps, hours of walking: the step budget
    # refuses it in about a second on 2 cores
    p22 = _write_edgelist(tmp_path / "p22.el", 22, [(i, i + 1) for i in range(21)])
    start = time.perf_counter()
    r = run_cli("count", "hom", "--graph", p22, "--target", "k5", timeout=60)
    assert time.perf_counter() - start < 10.0
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"homverify: hom_count guard: more than {counting.STEP_BUDGET} steps\n"


def test_count_hom_k2000_on_p10_refused_quickly(tmp_path):
    # K_2000 is built without re-validating its 4M entries, so the step
    # budget refuses the walk in well under a second; building and scanning
    # them took about 7 s
    p10 = _write_edgelist(tmp_path / "p10.el", 10, [(i, i + 1) for i in range(9)])
    start = time.perf_counter()
    r = run_cli("count", "hom", "--graph", p10, "--target", "k2000", timeout=60)
    assert time.perf_counter() - start < 2.0
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"homverify: hom_count guard: more than {counting.STEP_BUDGET} steps\n"


def test_verify_sidorenko_k2000_quick(tmp_path):
    # K_2000's edge weight sum is set at build, not summed over 4M
    # Fractions (about 17 s with the build's own scans)
    k2 = _write_edgelist(tmp_path / "k2.el", 2, [(0, 1)])
    start = time.perf_counter()
    r = run_cli("verify", "sidorenko", "--graph", k2, "--target", "k2000", timeout=60)
    assert time.perf_counter() - start < 2.0
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert (rep["lhs"], rep["rhs"], rep["verdict"]) == ("3998000/1", "3998000/1", "holds")


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
    r = run_cli("count", "hom", "--graph", path3000, "--target", "k2", timeout=60)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"count": "2"}


@pytest.mark.parametrize("cycle", [False, True], ids=["path", "cycle"])
def test_count_ind_override_long_path_and_cycle(cycle, tmp_path):
    n = 3000  # far deeper than the recursion limit if branched
    edges = [(i, (i + 1) % n) for i in range(n if cycle else n - 1)]
    graph = _write_edgelist(tmp_path / "g.el", n, edges)
    r = run_cli("count", "ind", "--graph", graph, timeout=60)
    assert r.returncode == 0, r.stderr
    # the path has F_3002 independent sets, the cycle the Lucas number F_2999 + F_3001
    want = counting.path_ind_fib(n - 3) + counting.path_ind_fib(n - 1) if cycle \
        else counting.path_ind_fib(n)
    assert json.loads(r.stdout) == {"count": str(want)}


def test_count_ind_prints_past_int_digit_limit(tmp_path, capsys):
    # i(P_25000) = F_25002 has 5,225 digits, past Python's 4,300-digit
    # int-to-str limit; the text is read as a Decimal, because int() on it
    # hits the same limit
    n = 25000
    path = _write_edgelist(tmp_path / "p.el", n, [(i, i + 1) for i in range(n - 1)])
    assert cli.main(["count", "ind", "--graph", path]) == 0
    text = json.loads(capsys.readouterr().out)["count"]
    a, b = 0, 1  # F_0, F_1
    for _ in range(n + 2):
        a, b = b, a + b
    assert len(text) == 5225 and Decimal(text) == a


def test_fmt_count_past_int_digit_limit():
    # poly prints its coefficients through the same helper as count
    big = 10 ** 5000
    assert cli._fmt_count(-big) == "-1" + "0" * 5000
    assert cli._fmt_count(Fraction(big + 1, 3 * big)) == "1" + "0" * 4999 + "1/3" + "0" * 5000


def test_count_chrom_override_size_guard(monkeypatch, capsys, tmp_path):
    # count chrom has one route, the polynomial: past a budget lowered to 4
    # by monkeypatch, the 2 x 4 ladder is refused, not counted as maps into K_3
    monkeypatch.setattr(counting, "STEP_BUDGET", 4)
    argv = ["count", "chrom", "--graph", _ladder(tmp_path, 4), "--q", "3"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "homverify: chrom_poly guard: more than 4 steps\n"
    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"count": "162"}


def _ladder(tmp_path, k):
    """The 2 x k ladder, two k-paths joined rung by rung: 3k - 2 edges,
    no simplicial vertex, and a deletion-contraction k - 1 steps deep."""
    edges = [(i, i + 1) for i in range(k - 1)] + [(k + i, k + i + 1) for i in range(k - 1)]
    return _write_edgelist(tmp_path / f"ladder{k}.el", 2 * k, edges + [(i, k + i) for i in range(k)])


@pytest.mark.parametrize("argv", [["poly"], ["count", "chrom", "--q", "3"]])
def test_chrom_deep_ladder_counts(argv, tmp_path, capsys, monkeypatch):
    # 1,798 edges, past the real step budget, so the budget is raised to
    # 2^24 by monkeypatch; the deletion-contraction runs 599 steps deep,
    # past the recursion limit had it recursed
    monkeypatch.setattr(counting, "STEP_BUDGET", 1 << 24)
    ladder = _ladder(tmp_path, 600)
    start = time.perf_counter()
    assert cli.main([*argv, "--graph", ladder]) == 0
    assert time.perf_counter() - start < 10.0
    out = json.loads(capsys.readouterr().out)
    count = sum(int(c) * 3 ** i for i, c in enumerate(out["coeffs"])) if "coeffs" in out \
        else int(out["count"])
    assert count == 6 * 3 ** 599


def test_chrom_ladder_within_recursion_limit(tmp_path, capsys):
    # the 2 x 300 ladder nests 299 steps deep and still counts
    argv = ["count", "chrom", "--graph", _ladder(tmp_path, 300), "--q", "3"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"count": str(6 * 3 ** 299)}


@pytest.mark.parametrize("argv", [
    ["verify", "cor1_2", "--graph", str(DATA / "p4.el"), "--q", "2", "--ell", "100000"],
    ["sweep", "--claim", "cor1_2", "--q", "3", "--ell", "10000000", "--max-n", "5", "--summary-only"],
], ids=["verify", "sweep"])
def test_cor1_2_huge_ell_is_quick(argv, capsys):
    # no even cycle is longer than the graph, so no longer length is tried
    start = time.perf_counter()
    assert cli.main(argv) == 0
    assert time.perf_counter() - start < 5.0
    out = lines(capsys.readouterr().out)
    assert out and all(x.get("verdict") == "holds" or x.get("violated") == 0 for x in out)


@pytest.mark.parametrize("argv", [
    ["verify", "cor1_2", "--graph", "P3", "--q", "2", "--ell", "0"],
    ["verify", "cor1_2", "--graph", "K3", "--q", "2", "--ell", "0"],
    ["verify", "cor1_2", "--graph", "K3", "--q", "2", "--ell", "3"],
    ["sweep", "--claim", "cor1_2", "--q", "2", "--ell", "3", "--max-n", "3"],
    ["sweep", "--claim", "cor1_2", "--q", "2", "--ell", "0", "--max-n", "3", "--summary-only"],
], ids=["verify-p3", "verify-k3", "verify-k3-ell3", "sweep", "sweep-summary"])
def test_cor1_2_ell_below_4_exit_2(argv, tmp_path, capsys):
    # ell bounds even cycle lengths: it is refused with q, before any
    # graph is checked, whether the graph is bipartite (P_3) or not (K_3)
    graphs = {"P3": _write_edgelist(tmp_path / "p3.el", 3, [(0, 1), (1, 2)]),
              "K3": _write_edgelist(tmp_path / "k3.el", 3, [(0, 1), (1, 2), (0, 2)])}
    assert cli.main([graphs.get(a, a) for a in argv]) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("homverify: claim cor1_2 needs ell >= 4, got ")


def test_verify_prints_reports_past_int_digit_limit(tmp_path, capsys):
    # at --ell 20000 the headline bound on C4 has a numerator of more than
    # 4,300 digits, Python's int-to-str limit: it is printed through Decimal
    c4 = _write_edgelist(tmp_path / "c4.el", 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert cli.main(["verify", "cor1_2", "--graph", c4, "--q", "3", "--ell", "20000"]) == 0
    reports = lines(capsys.readouterr().out)
    assert [r["claim"] for r in reports] == ["cor1_2", "cor1_2_headline"]
    num = reports[1]["rhs"].split("/")[0]
    assert len(num) > 4300 and Decimal(num) > 0


@pytest.mark.parametrize("shape", ["path", "star"])
def test_verify_cor1_4_drops_advisory_floats_past_float_range(shape, tmp_path, capsys):
    # on 1,024 vertices 2^n is past the float range: the advisory pair is
    # null, and the exact verdict stands
    edges = [(v, v + 1) if shape == "path" else (0, v + 1) for v in range(1023)]
    g = _write_edgelist(tmp_path / f"{shape}.el", 1024, edges)
    assert cli.main(["verify", "cor1_4", "--graph", g]) == 0
    out = capsys.readouterr().out
    assert '"advisory_float": null' in out
    assert lines(out)[0]["verdict"] == "holds"


def test_sweep_claims_are_those_with_slots(capsys):
    # remark2_2 is verify-only: it has no slots, so sweep refuses it
    assert cli.main(["sweep", "--claim", "remark2_2", "--q", "3", "--max-n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "remark2_2" in err
    sweep = cli.build_parser()._subparsers._group_actions[0].choices["sweep"]
    claim = next(a for a in sweep._actions if a.dest == "claim")
    assert set(claim.choices) == {name for name, c in CLAIMS.items() if c.slots} \
        == set(CLAIMS) - {"remark2_2"}


def test_count_hom_kq_guard_before_building(capsys):
    # p4 into K_q, q = 10^9: exit 2 before building K_q's q^2 entries
    argv = ["count", "hom", "--graph", str(DATA / "p4.el"), "--target", f"k{10 ** 9}"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"homverify: target guard: k{10 ** 9} has {10 ** 18} entries, more than 4194304\n")


def test_count_hom_kq_entries_guard(tmp_path, capsys):
    # P_3 into K_q, q = 2*10^6: K_q has 4*10^12 entries, refused before
    # any is built
    p3 = _write_edgelist(tmp_path / "p3.el", 3, [(0, 1), (1, 2)])
    start = time.perf_counter()
    assert cli.main(["count", "hom", "--graph", p3, "--target", "k2000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "homverify: target guard: k2000000 has 4000000000000 entries, more than 4194304\n")
    assert cli.main(["scan", "--target", "k2049", "--max-n", "2"]) == 2
    assert "target guard" in capsys.readouterr().err


def test_count_hom_kq_entries_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(counting, "STEP_BUDGET", 8)  # K_3's 9 entries are past it
    argv = ["count", "hom", "--graph", str(DATA / "p4.el"), "--target", "k3"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "homverify: target guard: k3 has 9 entries, more than 8\n"
    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"count": "24"}


def _write_tenths_target(path, k):
    # every entry 1/10 on the diagonal and 2/10 off it: no 0/1 target
    path.write_text(f"{k}\n" + "".join(" ".join("1/10" if i == j else "2/10" for j in range(k))
                                        + "\n" for i in range(k)))
    return str(path)


def test_count_hom_weighted_elimination_guard_exit_2(tmp_path):
    k12 = _write_edgelist(tmp_path / "k12.el", 12,
                          [(u, v) for u in range(12) for v in range(u + 1, 12)])
    r = run_cli("count", "hom", "--graph", k12, "--target",
                _write_tenths_target(tmp_path / "t.tg", 5), timeout=60)
    assert r.returncode == 2
    assert r.stderr == "homverify: hom_count guard: elimination sums over 5^12 entries\n"


def test_count_hom_weighted_override_size_guard(monkeypatch, capsys, tmp_path):
    # p4 sums over 3^2 entries per step, past a cap lowered to 8
    monkeypatch.setattr(counting, "STEP_BUDGET", 8)
    argv = ["count", "hom", "--graph", str(DATA / "p4.el"), "--target",
            _write_tenths_target(tmp_path / "t.tg", 3)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "homverify: hom_count guard: elimination sums over 3^2 entries\n"
    monkeypatch.undo()
    assert cli.main(argv) == 0
    # 1^T W^3 1 for W = (J + I)/10 on 3 vertices: every row sums to 5/10
    assert json.loads(capsys.readouterr().out) == {"count": "3/8"}


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


def test_graph6_non_ascii_exit_2(tmp_path, capsys):
    # the bytes of "Bé": not an edgeless 3-vertex graph
    g6 = tmp_path / "bad.g6"
    g6.write_bytes(b"B\xc3\xa9\n")
    assert cli.main(["count", "ind", "--graph", str(g6)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "not ASCII" in out.err


@pytest.mark.parametrize("argv", [["count", "hom", "--target", "k2"],
                                  ["count", "chrom", "--q", "3"],
                                  ["count", "ind"], ["count", "wr"], ["poly"]],
                         ids=["hom", "chrom", "ind", "wr", "poly"])
def test_override_size_guard_flag_exit_2(argv, capsys):
    # the step budget is the one resource rule: no flag lifts it
    assert cli.main([*argv, "--graph", str(DATA / "p4.el"), "--override-size-guard"]) == 2
    assert capsys.readouterr().err == "homverify: unrecognized arguments: --override-size-guard\n"


@pytest.mark.parametrize("argv", [["count", "wr"], ["verify", "cor1_6"]], ids=["count", "verify"])
def test_wr_guard_on_large_star_names_the_budget(argv, tmp_path, capsys):
    # the star's 2^19999 red sets are refused without turning a count of
    # more than 4,300 digits into text
    star = _write_edgelist(tmp_path / "star.el", 20000, [(0, v) for v in range(1, 20000)])
    assert cli.main([*argv, "--graph", star]) == 2
    assert capsys.readouterr().err == (
        f"homverify: wr_count guard: more than {counting.STEP_BUDGET} steps\n")


@pytest.mark.parametrize("alias", ["looped-k2", "p3loop"])
def test_undocumented_target_aliases_are_paths(alias, tmp_path, monkeypatch, capsys):
    # only k<q>, hardcore and wr name built-in targets; anything else is a file
    monkeypatch.chdir(tmp_path)
    assert cli.main(["count", "hom", "--graph", str(DATA / "p4.el"), "--target", alias]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and alias in out.err


def test_readme_synopsis_flags_are_accepted():
    # every --flag of README's CLI block is an option of its subcommand
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```bash\n", 1)[1].split("```", 1)[0]
    subs = cli.build_parser()._subparsers._group_actions[0].choices
    synopsis = [line.split() for line in block.splitlines() if line.startswith("homverify ")]
    assert {words[1] for words in synopsis} == set(subs)
    for words in synopsis:
        flags = {w.strip("[]") for w in words if w.lstrip("[").startswith("--")}
        assert flags <= set(subs[words[1]]._option_string_actions), words[1]


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


def _hunt_phase2(argv, monkeypatch, capsys):
    """The source graphs the hunt script's phase 2 searches, in order, and
    its stdout; phase 1, the grid scan, is skipped (criterion 9 tests it)."""
    hunt, sources = _script("hunt_counterexamples"), []
    find = hunt.find_counterexample
    monkeypatch.setattr(hunt, "find_counterexample", lambda g, *a: sources.append(g) or find(g, *a))
    monkeypatch.setattr(hunt, "exhaustive_p4_grid_scan", lambda: None)
    assert hunt.main(argv) == 0
    return sources, capsys.readouterr().out


def _iso_class(g):
    """The lowest edge set over all relabellings of g: equal iff isomorphic."""
    return min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
               for p in itertools.permutations(range(g.n)))


def test_hunt_searches_each_tree_class_once(tmp_path, monkeypatch, capsys):
    # the trees on 2..5 vertices fall in 1, 1, 2 and 3 classes, one source
    # each; the default seed's one witness is the fork pinned in tests/data
    sources, out = _hunt_phase2(["--save-dir", str(tmp_path)], monkeypatch, capsys)
    assert [g.n for g in sources] == [2, 3, 4, 4, 5, 5, 5]
    assert all(g.m == g.n - 1 and g.is_connected() for g in sources)
    assert len({_iso_class(g) for g in sources}) == 7
    assert out.count(" n=") == 7
    assert [line.split()[0] for line in out.splitlines() if "WITNESS" in line] == ["DsO"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["DsO_k3.json", "DsO_k3.tg"]
    assert (tmp_path / "DsO_k3.tg").read_bytes() == \
        (DATA / "fork_k3_counterexample.tg").read_bytes()
    pinned = json.loads((DATA / "fork_k3_manifest.json").read_text())
    del pinned["H_file"]
    assert json.loads((tmp_path / "DsO_k3.json").read_text()) == pinned


def test_hunt_all_bipartite_searches_each_class_once(monkeypatch, capsys):
    # every connected bipartite graph on 2..5 vertices is isomorphic to
    # exactly one source
    sources, _ = _hunt_phase2(["--all-bipartite", "--samples", "100"], monkeypatch, capsys)
    want = {_iso_class(g) for n in range(2, 6)
            for g in enumerate_graphs(n) if g.is_connected() and bipartition(g) is not None}
    assert len(sources) == len(want) == 10
    assert {_iso_class(g) for g in sources} == want


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("name", ["run_verification_battery", "hunt_counterexamples"])
def test_script_closed_pipe_exit_3(name, tmp_path, monkeypatch):
    # stdout and stderr on one pipe whose reader has gone: the failed
    # progress line is a crash (3) whose diagnostic is dropped, not raised
    module = _script(name)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    assert module.main(["--max-n", "2", "--summary-only", "--out", str(tmp_path)]
                       if name == "run_verification_battery" else ["--max-n", "2"]) == 3
