#!/usr/bin/env python3
"""Run the full inequality battery at a chosen size and write JSONL reports.

Usage:
    python scripts/run_verification_battery.py [--max-n N] [--out DIR]
                                               [--summary-only]

Produces one <claim>.jsonl file per claim (stream of per-instance reports
plus a trailing summary record) or, with --summary-only, a single
battery_summary.json with the aggregate counts from the fast kernels.
Everything runs in one process.

Exit codes: 0 no violations or mismatches, 1 some found, 2 bad arguments,
3 internal error (one line on stderr).
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homverify.classes import MAX_N
from homverify.cli import warn
from homverify.graphs import complete_target, hard_core_target, widom_rowlinson_target
from homverify.sweeps import (
    SweepConfig,
    corollary_bundle_summary,
    oracle_equivalence_sweep,
    sweep_reports,
    sweep_summary,
)

BATTERY = [
    ("thm1_1", {"qs": (2, 3, 4, 5)}),
    ("eq_col", {"qs": (2, 3)}),
    ("eq_ind", {}),
    ("eq_wr", {}),
    ("wr_lemma", {}),
    ("cor1_2", {"qs": (2, 3)}),
    ("cor1_4", {}),
    ("cor1_6", {}),
    ("balanced", {"qs": (3, 4)}),
    ("sidorenko", {"target": hard_core_target()}),
    ("sidorenko", {"target": widom_rowlinson_target()}),
    ("sidorenko", {"target": complete_target(3)}),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5, choices=range(1, MAX_N + 1),
                    metavar=f"1..{MAX_N}")
    ap.add_argument("--out", default="battery_out")
    ap.add_argument("--summary-only", action="store_true")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except Exception as exc:  # a defect, never a verdict: keep 1 for violations
        msg = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        warn(f"run_verification_battery: internal error: {msg}")
        return 3


def run(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    grand = []

    print(f"battery: max_n={args.max_n} -> {outdir}/")
    t_all = time.time()

    for i, (claim, kw) in enumerate(BATTERY):
        # eq_wr / wr_lemma blow up fastest; keep them one vertex smaller at the top size
        max_n = min(args.max_n, 6) if claim in ("eq_wr", "wr_lemma") else args.max_n
        cfg = SweepConfig(claim, max_n, **kw)
        tag = claim if claim != "sidorenko" else f"sidorenko_{i}"
        t0 = time.time()
        if args.summary_only:
            summary = sweep_summary(cfg)
        else:
            with open(outdir / f"{tag}.jsonl", "w") as fh:
                summary = sweep_reports(cfg, fh.write)
                fh.write(json.dumps(summary.to_json_dict()) + "\n")
        dt = time.time() - t0
        d = summary.to_json_dict()
        grand.append(d)
        status = "OK " if summary.violated == 0 else "VIOLATED"
        print(f"  [{status}] {tag:<14} n<={max_n} instances={summary.instances:>9} "
              f"holds={summary.holds:>9} viol={summary.violated} "
              f"min_margin={d['min_margin']} ({dt:.1f}s)")

    print("oracle equivalence pass ...")
    t0 = time.time()
    o = oracle_equivalence_sweep(max_n=min(args.max_n, 7),
                                 wr_chrom_max_n=min(args.max_n, 6))
    print(f"  checked ind={o.checked_ind} wr={o.checked_wr} chrom={o.checked_chrom} "
          f"mismatches={len(o.mismatches)} ({time.time() - t0:.1f}s)")

    print("corollary bundle ...")
    t0 = time.time()
    bundle = corollary_bundle_summary(min(args.max_n, 7))
    for c, s in bundle.items():
        print(f"  {c:<14} instances={s.instances:>9} violated={s.violated}")
        grand.append(s.to_json_dict())
    print(f"  ({time.time() - t0:.1f}s)")

    (outdir / "battery_summary.json").write_text(json.dumps(grand, indent=2) + "\n")
    bad = sum(d["violated"] for d in grand) + len(o.mismatches)
    print(f"total: {time.time() - t_all:.1f}s, violations+mismatches = {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
