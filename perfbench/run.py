"""homverify benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {summary,reports,oracle,search}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; homverify is imported from ``src/``.
Load model: closed loop, one client, one workload at a time.  Every pass is
a fresh interpreter (``one_pass.py``), so module caches start cold, as they
do for every script or CLI invocation.

``--trace 0`` repeats untraced passes for about S seconds and reports the
median of each end-to-end metric:

* ``wall_s``: from the first call into homverify to a checked result;
* ``items_per_s``: the workload's pinned item count over ``wall_s``;
* ``cpu_s``: user plus system time of the pass process and its workers;
* ``setup_s``: from interpreter start until ``homverify.cli``, ``.sweeps``
  and ``.search`` are imported (extra set-up-only interpreters add samples);
* ``peak_rss_mb``: peak resident set of the pass process or its largest
  worker, from one pass before the timed ones.

The times are given at a reference host speed.  Shared hosts drift in speed
by more than half for tens of seconds at a time, which no run length of a
minute averages out.  So each timed pass also times a fixed computation that
does not use homverify (``calibrate.py``) right after set-up and after each
stretch of units of half a second or more, outside the timed sections.
Each stretch is scaled by REF_CAL_S over the mean of the two readings
around it, and set-up by REF_CAL_S over the first reading: the result is
the time on a host that runs the reference computation in REF_CAL_S
seconds.  A change to homverify moves the scaled times as it moves the raw
ones; the raw times are printed and recorded beside them.

``--trace 1`` alternates untraced and traced single-process passes (and, for
the pool workload, adds a pass with only the calling process traced) and
reports the per-layer metrics.

Every unit of every pass is checked against the reference digests; a unit
that fails is counted in ``failed`` out of ``attempted`` (a failure share is
not a metric, since it is 0 when all is well).  Human-readable lines go to
standard output first and the JSON result is the last line; a full record
with provenance and every sample is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# seconds the reference computation takes at the speed times are given at
REF_CAL_S = 0.1
SETUP_SPAWNS = 5
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
POOL_WORKERS = 2
TRACE_PAIRS = 2

E2E_UNITS = {"wall_s": "s", "items_per_s": "items/s", "cpu_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}


class PassFailed(Exception):
    pass


def run_pass(mode: str, workload: str, seed: int, workers: int,
             spans_file: Path | None = None) -> dict:
    """Run one_pass.py in a fresh interpreter in its own session, so that
    a stuck pass can be killed together with its pool workers."""
    cmd = [sys.executable, str(HERE / "one_pass.py"), mode, workload, str(seed), str(workers)]
    if spans_file is not None:
        cmd.append(str(spans_file))
    env = {k: v for k, v in os.environ.items() if k != "HOMVERIFY_WORKERS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise PassFailed(f"{mode} pass exceeded {PASS_TIMEOUT_S}s") from None
    finally:
        _kill_group(proc.pid)
    end = time.monotonic()
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise PassFailed(f"{mode} pass exited with code {proc.returncode}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - t0
    rec["process_s"] = end - t0
    if rec.get("cal_s"):
        rec.update(speed_scales(rec))
    return rec


def speed_scales(rec: dict) -> dict:
    """Factors that turn a pass's raw times into times at reference speed.
    The first reading follows set-up and scales it; each timed stretch of
    units is scaled by the mean of the two readings around it."""
    cal = rec["cal_s"]
    out = {"setup_scale": REF_CAL_S / cal[0]}
    if "segment_s" in rec:
        scaled = sum(t * REF_CAL_S / ((a + b) / 2)
                     for t, a, b in zip(rec["segment_s"], cal, cal[1:]))
        out["speed_scale"] = scaled / rec["wall_s"]
    return out


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "n": len(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measure(w: workloads.Workload, seed: int, seconds: float, workers: int):
    start = time.monotonic()
    setups, passes, errors = [], [], []
    for _ in range(SETUP_SPAWNS):
        setups.append(run_pass("setup", w.name, seed, workers))
    attempted = failed = 0
    # peak memory comes from a pass without speed readings, whose table
    # would add to it
    attempted += len(w.units)
    try:
        memory = run_pass("plain", w.name, seed, workers)
    except PassFailed as exc:
        return {}, {}, attempted, len(w.units), [str(exc)], []
    failed += len(memory["failures"])
    errors.extend(f"{f['unit']}: {f['reason']}" for f in memory["failures"])
    while True:
        attempted += len(w.units)
        try:
            rec = run_pass("timed", w.name, seed, workers)
        except PassFailed as exc:
            failed += len(w.units)
            errors.append(str(exc))
            break
        failed += len(rec["failures"])
        errors.extend(f"{f['unit']}: {f['reason']}" for f in rec["failures"])
        passes.append(rec)
        elapsed = time.monotonic() - start
        typical = statistics.median(p["process_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    if not passes:
        return {}, {}, attempted, failed, errors, passes
    samples = {
        "wall_s": [p["wall_s"] * p["speed_scale"] for p in passes],
        "items_per_s": [w.items / (p["wall_s"] * p["speed_scale"]) for p in passes],
        "cpu_s": [p["cpu_s"] * p["speed_scale"] for p in passes],
        "setup_s": [p["setup_s"] * p["setup_scale"] for p in setups + passes],
        "peak_rss_mb": [memory["peak_rss_mb"]],
    }
    raw = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in setups + passes],
    }
    detail = {k: stats(v) for k, v in samples.items() if v}
    for k, v in raw.items():
        if v:
            detail[k]["raw"] = stats(v)
    metrics = {k: (d["median"], E2E_UNITS[k]) for k, d in detail.items()}
    return metrics, detail, attempted, failed, errors, passes


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# per-layer metric -> (unit, span name, field) read from the traced pass
LAYER_FIELDS = {
    "search.enumerate.items": ("count", "search.enumerate", "items"),
    "search.enumerate.self_s": ("s", "search.enumerate", "self_s"),
    "graphs.build.calls": ("count", "graphs.build", "calls"),
    "graphs.build.self_s": ("s", "graphs.build", "self_s"),
    "graphs.connectivity.self_s": ("s", "graphs.connectivity", "self_s"),
    "graphs.bipartition.self_s": ("s", "graphs.bipartition", "self_s"),
    "graphs.graph6.calls": ("count", "graphs.graph6", "calls"),
    "graphs.graph6.self_s": ("s", "graphs.graph6", "self_s"),
    "graphs.identify.self_s": ("s", "graphs.identify", "self_s"),
    "counting.ind.calls": ("count", "counting.ind", "calls"),
    "counting.ind.self_s": ("s", "counting.ind", "self_s"),
    "counting.wr.calls": ("count", "counting.wr", "calls"),
    "counting.wr.self_s": ("s", "counting.wr", "self_s"),
    "counting.chrom.calls": ("count", "counting.chrom", "calls"),
    "counting.chrom.self_s": ("s", "counting.chrom", "self_s"),
    "counting.hom.calls": ("count", "counting.hom", "calls"),
    "counting.hom.self_s": ("s", "counting.hom", "self_s"),
    "verify.check.calls": ("count", "verify.check", "calls"),
    "verify.check.self_s": ("s", "verify.check", "self_s"),
    "sweeps.fold.self_s": ("s", "sweeps.batch", "self_s"),
    "sweeps.batches": ("count", "sweeps.batch", "calls"),
    "sweeps.merge.self_s": ("s", "sweeps.merge", "self_s"),
    "cli.emit.lines": ("count", "cli.emit", "calls"),
    "cli.self_s": ("s", "cli", "self_s"),
    "search.draw.self_s": ("s", "search.draw", "self_s"),
    "search.prescreen.self_s": ("s", "search.prescreen", "self_s"),
    "search.candidates": ("count", "search.confirm", "calls"),
}


def layer_metrics(plain_wall: float, traced: dict, pool: dict | None) -> dict:
    layers = traced["layers"]

    def get(span: str, field: str) -> float:
        return layers.get(span, {}).get(field, 0)

    m = {name: (get(span, field), unit) for name, (unit, span, field) in LAYER_FIELDS.items()}
    cache = traced["poly_cache"]
    lookups = cache["hits"] + cache["misses"]
    m["counting.chrom.cache_hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    pool_layers = pool["layers"] if pool else {}
    m["sweeps.pool_wait_s"] = (pool_layers.get("sweeps.pool", {}).get("self_s", 0.0), "s")
    if pool:
        # with a pool, merging happens as worker results arrive
        m["sweeps.merge.self_s"] = (pool_layers.get("sweeps.merge", {}).get("self_s", 0.0), "s")
    m["cli.emit.bytes"] = (traced["counters"].get("cli.emit.bytes", 0), "bytes")
    # exact confirmation: building the target plus the hom_count calls the
    # search makes (hom_count's own spans also count in counting.hom)
    m["search.confirm.self_s"] = (get("search.confirm", "self_s")
                                  + traced["edges"]["search.find>counting.hom"], "s")
    candidates = get("search.confirm", "calls")
    witnesses = traced["counters"].get("search.witnesses", 0)
    m["search.useful_ratio"] = (witnesses / candidates if candidates else 0.0, "ratio")
    m["trace.overhead_s"] = (traced["wall_s"] - plain_wall, "s")
    covered = sum(a["self_s"] for name, a in layers.items() if not name.startswith("unit:"))
    m["trace.unattributed_share"] = (max(0.0, 1.0 - covered / traced["wall_s"]), "ratio")
    return m


def trace(w: workloads.Workload, seed: int, spans_file: Path):
    """Alternate untraced and traced single-process passes, then (for the
    pool workload) one pass with the pool; per-layer values are medians
    over the traced passes, the overhead a difference of medians."""
    attempted = failed = 0
    errors: list[str] = []
    recs: list[dict] = []
    plan = [("plain", 1), ("traced", 1)] * TRACE_PAIRS
    if w.uses_pool:
        plan.append(("pool", POOL_WORKERS))
    for mode, workers in plan:
        attempted += len(w.units)
        try:
            rec = run_pass(mode, w.name, seed, workers,
                           spans_file if mode == "traced" else None)
        except PassFailed as exc:
            failed += len(w.units)
            errors.append(str(exc))
            continue
        failed += len(rec["failures"])
        errors.extend(f"{mode} {f['unit']}: {f['reason']}" for f in rec["failures"])
        recs.append({"mode": mode, **rec})
    by_mode = {m: [r for r in recs if r["mode"] == m] for m, _ in plan}
    if not by_mode["plain"] or not by_mode["traced"] or (w.uses_pool and not by_mode["pool"]):
        return {}, attempted, failed, errors, recs
    plain_wall = statistics.median(r["wall_s"] for r in by_mode["plain"])
    pool = by_mode["pool"][0] if w.uses_pool else None
    per_pass = [layer_metrics(plain_wall, r, pool) for r in by_mode["traced"]]
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    return metrics, attempted, failed, errors, recs


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "homverify").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def provenance(args, w: workloads.Workload, workers: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    load = _read("/proc/loadavg")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg_start": load.strip() if load else None,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": _source_sha256(),
        "workload": w.name,
        "seed": args.seed,
        "workers": workers,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "items": w.items,
        "sizes": w.sizes(),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "homverify" / "__init__.py").is_file():
        print(f"perfbench: no homverify sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    workers = min(POOL_WORKERS, os.cpu_count() or 1) if w.uses_pool else 1
    prov = provenance(args, w, workers)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record: dict = {"provenance": prov}
    try:
        if args.trace:
            spans_file = OUT_DIR / f"spans-{tag}.json"
            metrics, attempted, failed, errors, recs = trace(w, args.seed, spans_file)
            record["passes"] = recs
            record["spans_file"] = spans_file.name
        else:
            metrics, detail, attempted, failed, errors, passes = measure(
                w, args.seed, args.seconds, workers)
            record["metrics_detail"] = detail
            record["passes"] = passes
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not metrics:
        print("perfbench: no pass completed; " + "; ".join(errors), file=sys.stderr)
        return 1
    prov["numpy"] = record["passes"][0]["numpy"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record.update(result=result, errors=errors)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}: {w.items} items per pass, seed {args.seed}, "
          f"workers {workers}, trace {args.trace}")
    for err in errors:
        print(f"FAILED {err}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if not args.trace:
            d = record["metrics_detail"][name]
            extra = (f"  (median of {d['n']}; quartiles {d['q1']:.6g}, {d['q3']:.6g}; "
                     f"min {d['min']:.6g}, max {d['max']:.6g})")
            if "raw" in d:
                extra += f"; raw median {d['raw']['median']:.6g}"
        print(f"{name} = {value:.6g} {unit}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
