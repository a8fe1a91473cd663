"""One pass of one workload in a fresh interpreter; run by ``run.py``.

    python3 perfbench/one_pass.py MODE WORKLOAD SEED WORKERS [SPANS_FILE]

MODE is ``setup`` (import homverify and stop), ``plain`` (run every unit
untraced), ``timed`` (as ``plain``, with readings of the host's speed),
``traced`` (run every unit under the layer tracer) or ``pool`` (run every
unit with only the calling process's pool and merge traced).

``setup`` and ``timed`` passes time the reference computation of
``calibrate.py`` right after set-up; a ``timed`` pass times it again after
each stretch of units of at least SEGMENT_S seconds and after its last
unit.  The readings lie outside the timed sections.

The first thing the interpreter does is import the three homverify modules
a user's script or CLI call needs; the monotonic clock reading taken right
after is the end of set-up.  The pass prints one JSON record as its last
line of standard output.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import homverify.cli  # noqa: E402
import homverify.search  # noqa: E402
import homverify.sweeps  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402

# a timed pass reads the host's speed after each stretch of units this long
SEGMENT_S = 0.5


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped
    # worker
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def run_units(workload, ctx, reference, calibrated: bool = False) -> dict:
    """Run and check every unit, timing each one.  With ``calibrated``, time
    the reference computation before the first unit and after each stretch
    of at least SEGMENT_S seconds of units; ``segment_s`` holds the time of
    each stretch and ``cal_s`` the readings around them."""
    out = {"items": 0, "failures": [], "wall_s": 0.0, "cpu_s": 0.0,
           "segment_s": [], "cal_s": [calibrate()] if calibrated else []}
    segment = 0.0
    for i, unit in enumerate(workload.units):
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if ctx.tracer is None:
            got, why = workloads.check_unit(unit, ctx, reference)
        else:
            with ctx.tracer.span("unit:" + unit.name):
                got, why = workloads.check_unit(unit, ctx, reference)
        segment += time.perf_counter() - t0
        out["cpu_s"] += _cpu_s() - cpu0
        out["items"] += got
        if why is not None:
            out["failures"].append({"unit": unit.name, "reason": why})
        if segment >= SEGMENT_S or i == len(workload.units) - 1:
            out["wall_s"] += segment
            out["segment_s"].append(segment)
            segment = 0.0
            if calibrated:
                out["cal_s"].append(calibrate())
    return out


def main(argv) -> int:
    mode, name, seed, workers = argv[0], argv[1], int(argv[2]), int(argv[3])
    spans_file = Path(argv[4]) if len(argv) > 4 else None
    record = {"ready": READY, "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if mode == "setup":
        record["cal_s"] = [calibrate()]
        print(json.dumps(record))
        return 0
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference().get(name, {})
    plan = {"traced": tracing.LAYER_PLAN, "pool": tracing.POOL_PLAN}.get(mode)
    tracer = tracing.Tracer() if plan else None
    if tracer is not None:
        tracer.install(plan)
    tmp = workloads.tmpdir_for(ROOT)
    ctx = workloads.Context(seed=seed, workers=workers, tmpdir=tmp,
                            tracer=tracer if mode == "traced" else None)
    try:
        run = run_units(workload, ctx, reference, calibrated=mode == "timed")
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(tmp, ignore_errors=True)
    record.update(run, peak_rss_mb=_peak_rss_mb(), units=len(workload.units))
    if tracer is not None:
        record["layers"] = tracer.totals()
        record["counters"] = tracer.counters
        record["edges"] = {"search.find>counting.hom":
                           tracer.edge_total("search.find", "counting.hom")}
        info = homverify.sweeps._poly_cached.cache_info()
        record["poly_cache"] = {"hits": info.hits, "misses": info.misses}
        if spans_file is not None:
            spans_file.write_text(json.dumps(tracer.spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
