"""The benchmark's four workloads, as lists of units with pinned item counts.

A unit is one sweep call, one CLI invocation or one search call.  Running a
unit returns its canonical output and the number of items it completed.  A
unit fails if it raises, returns an unexpected exit code, completes another
number of items than pinned here, or produces output whose SHA-256 differs
from the one recorded in ``reference.json`` at the seed commit.

Sizes are one or two vertices below the acceptance suite's, so that one pass
takes a few seconds on two cores and a run of fixed length holds several
passes:

* ``summary``: the aggregate-sweep path (``sweep_summary``, the corollary
  bundle, edge-monotonicity scans) with a two-worker fork pool.  Nearly all
  its time is per-labelled-graph work: enumeration, ``Graph`` builds,
  connectivity and bipartition filters, the specialised counters, the fold
  and the merge.  It is the only workload that runs the pool.
* ``reports``: in-process ``homverify sweep --output FILE``.  Every instance
  goes through a ``verify`` checker, a Fraction ``Report``, graph6 naming and
  JSON emission, and the CLI parses each margin back; a gain that is only in
  the summary fold shows no change here.
* ``oracle``: criterion 1 at n <= 6, dominated by the generic ``hom_count``
  backtracking.  It must never go through class tables, so it is the bypass
  workload for a table-driven sweep engine, and the single-process baseline.
* ``search``: the seeded weighted-target search.  P4 at k=3 has no witness
  for any seed (the acceptance suite's grid proof), so every sample is drawn,
  prescreened and, for candidates, confirmed exactly; its samples are drawn
  in four calls with seeds derived from the benchmark's.  The fork then finds a
  witness within a few dozen samples, which the benchmark re-verifies with
  ``hom_count``.  The item is one P4 sample.  Only this workload reads the
  seed: the sweeps are exhaustive and have no random input.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

SEARCH_K = 3
P4_SAMPLES = 400_000
# the P4 samples are drawn in this many calls, so that each call is short
# enough for the host-speed readings between calls to follow drift
P4_PARTS = 4
FORK_SAMPLES = 100_000
FORK_EDGES = ((0, 1), (0, 2), (0, 3), (1, 4))
# seeds whose search outputs are recorded in reference.json
RECORDED_SEEDS = (20250809, 1)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class Context:
    seed: int
    workers: int
    tmpdir: Path
    tracer: object = None


@dataclass(frozen=True)
class Unit:
    """`run(ctx)` returns (canonical output bytes, items completed);
    `params` names the call and its size."""

    name: str
    items: int
    run: Callable[[Context], tuple[bytes, int]]
    params: dict = field(default_factory=dict)
    seeded: bool = False

    def reference_key(self, seed: int) -> str:
        return f"{self.name}@seed={seed}" if self.seeded else self.name


@dataclass(frozen=True)
class Workload:
    name: str
    units: tuple[Unit, ...]
    uses_pool: bool = False

    @property
    def items(self) -> int:
        return sum(u.items for u in self.units)

    def sizes(self) -> dict:
        return {u.name: {"items": u.items, **u.params} for u in self.units}


# ---------------------------------------------------------------------------
# summary
# ---------------------------------------------------------------------------

def _sweep_unit(claim: str, max_n: int, items: int, **kw) -> Unit:
    def run(ctx: Context):
        from homverify import sweeps

        s = sweeps.sweep_summary(sweeps.SweepConfig(claim, max_n, **kw), workers=ctx.workers)
        return canonical(s.to_json_dict()), s.instances

    tag = "".join(f"-{k}{''.join(map(str, v)) if isinstance(v, tuple) else v}"
                  for k, v in sorted(kw.items()))
    return Unit(f"sweep-{claim}-n{max_n}{tag}", items, run,
                {"call": "sweep_summary", "claim": claim, "max_n": max_n, **kw})


def _bundle_unit(max_n: int, items: int) -> Unit:
    def run(ctx: Context):
        from homverify import sweeps

        b = sweeps.corollary_bundle_summary(max_n, workers=ctx.workers)
        return (canonical({c: s.to_json_dict() for c, s in b.items()}),
                sum(s.instances for s in b.values()))

    return Unit(f"bundle-n{max_n}", items, run,
                {"call": "corollary_bundle_summary", "max_n": max_n})


def _scan_unit(target: str, max_n: int, items: int, bipartite_only: bool = False) -> Unit:
    def run(ctx: Context):
        from homverify import graphs, search

        t = {"k3": lambda: graphs.complete_target(3),
             "hardcore": graphs.hard_core_target,
             "wr": graphs.widom_rowlinson_target}[target]()
        r = search.edge_mono_scan(t, max_n, bipartite_only=bipartite_only)
        return canonical(r.to_json_dict()), r.tested_edges

    return Unit(f"scan-{target}-n{max_n}{'-bip' if bipartite_only else ''}", items, run,
                {"call": "edge_mono_scan", "target": target, "max_n": max_n,
                 "bipartite_only": bipartite_only})


SUMMARY = Workload("summary", (
    _sweep_unit("thm1_1", 6, 190_156, qs=(2, 3, 4, 5)),
    _sweep_unit("eq_col", 6, 54_962, qs=(2, 3)),
    _sweep_unit("eq_ind", 6, 251_085),
    _sweep_unit("cor1_2", 5, 854, qs=(2, 3), ell=6),
    _sweep_unit("eq_wr", 5, 5_325),
    _sweep_unit("wr_lemma", 5, 5_325),
    _bundle_unit(5, 3_307),
    _scan_unit("k3", 5, 1_456, bipartite_only=True),
    _scan_unit("hardcore", 5, 5_325),
    _scan_unit("wr", 5, 5_325),
), uses_pool=True)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _cli_unit(claim: str, max_n: int, items: int, *extra: str) -> Unit:
    argv = ("sweep", "--claim", claim, *extra, "--max-n", str(max_n))

    def run(ctx: Context):
        from homverify import cli

        out = ctx.tmpdir / "report.jsonl"
        code = cli.main([*argv, "--output", str(out), "--workers", "1"])
        if code != 0:
            raise RuntimeError(f"exit code {code} from homverify {' '.join(argv)}")
        data = out.read_bytes()
        out.unlink()
        if ctx.tracer is not None:
            ctx.tracer.count("cli.emit.bytes", len(data))
        # the last line is the sweep's summary record, not a report
        return data, data.count(b"\n") - 1

    tag = "".join("-" + a.lstrip("-") for a in extra)
    return Unit(f"cli-{claim}{tag}-n{max_n}", items, run,
                {"call": "cli.main", "argv": list(argv), "claim": claim, "max_n": max_n})


REPORTS = Workload("reports", (
    _cli_unit("thm1_1", 5, 2_074, "--q", "3"),
    _cli_unit("cor1_4", 6, 27_476),
    _cli_unit("cor1_6", 5, 772),
    _cli_unit("sidorenko", 5, 772, "--target", "hardcore"),
    _cli_unit("balanced", 5, 427, "--q", "3"),
    _cli_unit("eq_ind", 5, 5_325),
    _cli_unit("eq_wr", 5, 5_325),
    _cli_unit("wr_lemma", 5, 5_325),
))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _oracle_unit(max_n: int, wr_chrom_max_n: int, chrom_qs: tuple[int, ...], items: int) -> Unit:
    def run(ctx: Context):
        from homverify import sweeps

        s = sweeps.oracle_equivalence_sweep(max_n=max_n, wr_chrom_max_n=wr_chrom_max_n,
                                            chrom_qs=chrom_qs, workers=1)
        out = {"checked_ind": s.checked_ind, "checked_wr": s.checked_wr,
               "checked_chrom": s.checked_chrom,
               "mismatches": [list(map(str, m)) for m in s.mismatches]}
        return canonical(out), s.checked_ind + s.checked_wr + s.checked_chrom

    qs = "".join(map(str, chrom_qs))
    return Unit(f"oracle-n{max_n}-wrchrom{wr_chrom_max_n}-q{qs}", items, run,
                {"call": "oracle_equivalence_sweep", "max_n": max_n,
                 "wr_chrom_max_n": wr_chrom_max_n, "chrom_qs": chrom_qs})


# 33,867 labelled graphs on <= 6 vertices; wr and chrom (q=2,3) on the
# 1,099 with <= 5 vertices
ORACLE = Workload("oracle", (
    _oracle_unit(6, 5, (2, 3), 33_867 + 1_099 + 2 * 1_099),
))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _p4_unit(part: int) -> Unit:
    samples = P4_SAMPLES // P4_PARTS

    def run(ctx: Context):
        from homverify import graphs, search

        # each part draws its own stream, derived from the benchmark's seed
        seed = ctx.seed * P4_PARTS + part
        found = search.find_counterexample(graphs.path_graph(4), SEARCH_K, samples, seed)
        # same record as `homverify search`; no witness exists for any seed
        out = {"found": found is not None, "seed": seed, "samples": samples}
        if found is not None:
            out.update(found.to_json_dict())
            raise RuntimeError(f"P4 search returned a witness: {out}")
        return canonical(out), samples

    return Unit(f"search-P4-k{SEARCH_K}-samples{samples}-part{part}", samples, run,
                {"call": "find_counterexample", "H": "P4", "k": SEARCH_K, "samples": samples,
                 "seed": f"seed * {P4_PARTS} + {part}"},
                seeded=True)


def _fork_run(ctx: Context):
    from homverify import graphs, search

    fork = graphs.Graph.from_edges(5, FORK_EDGES)
    found = search.find_counterexample(fork, SEARCH_K, FORK_SAMPLES, ctx.seed)
    if found is None:
        raise RuntimeError(f"fork search found no witness in {FORK_SAMPLES} samples")
    verify_witness(fork, found)
    if ctx.tracer is not None:
        ctx.tracer.count("search.witnesses", 1)
    return canonical(found.to_json_dict()), 0


def verify_witness(h, found) -> None:
    """Exact re-verification of a search witness, independent of the
    search's own prescreen and confirmation."""
    from homverify.counting import hom_count

    t = found.target
    k = t.k
    if k != SEARCH_K or any(t.w[i][j] != t.w[j][i] for i in range(k) for j in range(k)):
        raise RuntimeError("witness target is not a symmetric k x k matrix")
    if any(x < 0 or x > 1 or (x * 10).denominator != 1 for row in t.w for x in row):
        raise RuntimeError("witness target leaves the tenths grid")
    threshold = t.edge_weight_sum / Fraction(k * k)
    num = hom_count(h, t)
    den = hom_count(h.delete_edge(*found.edge), t)
    if den == 0 or Fraction(num) / den != found.ratio or found.threshold != threshold:
        raise RuntimeError("witness ratio or threshold does not re-verify")
    if not found.ratio < threshold:
        raise RuntimeError("witness ratio is not below the threshold")


SEARCH = Workload("search", (
    *(_p4_unit(part) for part in range(P4_PARTS)),
    Unit(f"search-fork-k{SEARCH_K}-samples{FORK_SAMPLES}", 0, _fork_run,
         {"call": "find_counterexample", "H": "fork", "k": SEARCH_K, "samples": FORK_SAMPLES},
         seeded=True),
))


WORKLOADS = {w.name: w for w in (SUMMARY, REPORTS, ORACLE, SEARCH)}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check_unit(unit: Unit, ctx: Context, reference: dict) -> tuple[int, str | None]:
    """Run one unit; return (items, failure reason or None).  Seeded units
    whose seed has no recorded digest are checked by their own exact checks
    alone: the P4 record is fixed by the grid proof and the fork witness is
    re-verified."""
    try:
        out, items = unit.run(ctx)
    except Exception as exc:  # a failing unit is counted, not fatal
        return 0, f"{type(exc).__name__}: {exc}"
    if items != unit.items:
        return items, f"completed {items} items, pinned {unit.items}"
    want = reference.get(unit.reference_key(ctx.seed))
    if want is None and not unit.seeded:
        return items, "no reference digest recorded"
    if want is not None and digest(out) != want:
        return items, "output digest differs from the reference"
    return items, None


def tmpdir_for(root: Path) -> Path:
    d = root / ".perfbench_out" / f"tmp-{os.getpid()}"
    d.mkdir(parents=True, exist_ok=True)
    return d
