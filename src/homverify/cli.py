"""Batch front end: counting commands, verification sweeps, scans and the
weighted counterexample search, all emitting JSON (JSON lines for streams).

Exit codes: 0 all claims hold / count produced, 1 at least one violation or
a counterexample was found, 2 usage or input error, 3 internal error (2 and
3 with a single-line diagnostic on stderr).  Numeric payloads are strings
("p/q" rationals, decimal integers) so consumers never lose precision.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .graphs import (
    Graph,
    TargetGraph,
    ParseError,
    complete_target,
    hard_core_target,
    parse_graph,
    parse_target,
    to_target_text,
    widom_rowlinson_target,
)
from .counting import (
    HOM_FACTOR_GUARD,
    SizeGuardError,
    chrom_eval,
    chrom_poly,
    hom_count,
    ind_count,
    wr_count,
)
from .verify import VIOLATED, int_text, rat_text
from .sweeps import CLAIMS, SweepConfig, sweep_reports, sweep_summary
from .search import edge_mono_scan, find_counterexample


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message.replace("\n", " "))


class UsageError(Exception):
    pass


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process: every `main` call parses with it,
    and parsing leaves it unchanged, so callers must not mutate it."""
    p = _Parser(prog="homverify", description=__doc__)
    p.add_argument("--output", help="write output here instead of stdout")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; every command runs in one "
                        "process, only the library's oracle sweep uses workers")
    # the same flags are accepted after the subcommand; SUPPRESS keeps an
    # unset subcommand flag from stomping a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=argparse.SUPPRESS)
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: _Parser(parents=[common], **kw))

    def add_graph(sp):
        sp.add_argument("--graph", required=True, help="graph file")
        sp.add_argument("--format", choices=("edgelist", "graph6"),
                        help="override format sniffing (.g6 -> graph6, else edgelist)")

    c = sub.add_parser("count", help="exact counts")
    c.add_argument("what", choices=("hom", "chrom", "ind", "wr"))
    add_graph(c)
    c.add_argument("--target", help="target: file path, k<q>, hardcore, or wr")
    c.add_argument("--q", type=int)
    c.add_argument("--override-size-guard", action="store_true")

    c = sub.add_parser("poly", help="chromatic polynomial, ascending coefficients")
    add_graph(c)
    c.add_argument("--override-size-guard", action="store_true")

    c = sub.add_parser("verify", help="check one claim on one instance")
    c.add_argument("claim", choices=tuple(CLAIMS))
    add_graph(c)
    c.add_argument("--q", type=int)
    c.add_argument("--ell", type=int, default=6)
    c.add_argument("--edge", help="edge as 'u,v'")
    c.add_argument("--target", help="target for sidorenko")

    c = sub.add_parser("sweep", help="exhaustive sweep over labeled graphs")
    c.add_argument("--claim", required=True,
                   choices=tuple(name for name, claim in CLAIMS.items() if claim.slots))
    c.add_argument("--max-n", type=int, required=True)
    c.add_argument("--q", type=int, action="append",
                   help="color count; repeat for several")
    c.add_argument("--ell", type=int, default=6)
    c.add_argument("--target", help="target for sidorenko sweeps")
    c.add_argument("--summary-only", action="store_true",
                   help="skip the per-instance stream, emit only the summary")

    c = sub.add_parser("scan", help="edge-monotonicity scan for one target")
    c.add_argument("--target", required=True)
    c.add_argument("--max-n", type=int, required=True)
    c.add_argument("--bipartite-only", action="store_true")

    c = sub.add_parser("search", help="random weighted-target counterexample search")
    c.add_argument("--H", required=True, dest="graph", help="source graph file")
    c.add_argument("--format", choices=("edgelist", "graph6"))
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--samples", type=int, required=True)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--save-target", help="write a found witness as a target file here")
    return p


def _load_graph(path: str, fmt: Optional[str]) -> Graph:
    text = Path(path).read_text()
    if fmt is None:
        fmt = "graph6" if path.endswith(".g6") else "edgelist"
    return parse_graph(text, fmt)


_KQ = re.compile(r"^k(\d+)$")


def _load_target(token: str, override_guard: bool = False) -> TargetGraph:
    m = _KQ.match(token)
    if m:
        q = int(m.group(1))
        if q * q > HOM_FACTOR_GUARD and not override_guard:
            raise SizeGuardError(f"target guard: {token} has {q * q} entries, "
                                 f"more than {HOM_FACTOR_GUARD}")
        return complete_target(q)
    if token in ("hardcore", "looped-k2"):
        return hard_core_target()
    if token in ("wr", "p3loop"):
        return widom_rowlinson_target()
    return parse_target(Path(token).read_text())


def _fmt_count(x) -> str:
    f = Fraction(x)
    return int_text(f.numerator) if f.denominator == 1 else rat_text(f)


def _parse_edge(s: Optional[str]) -> tuple[int, int]:
    if s is None:
        raise UsageError("this claim needs --edge u,v")
    try:
        u, v = (int(t) for t in s.split(","))
    except ValueError:
        raise UsageError(f"bad --edge {s!r}, expected 'u,v'") from None
    return (u, v)


def _need_q(args) -> int:
    if args.q is None:
        raise UsageError("this command needs --q")
    return args.q


class _Out:
    """stdout, or the --output file, opened at the first write: a command
    that fails before it writes leaves an existing file as it was."""

    def __init__(self, path: Optional[str]):
        self.path, self.fh = path, None if path else sys.stdout

    def write(self, text: str) -> None:
        self.fh = self.fh or open(self.path, "w")
        self.fh.write(text)

    def line(self, payload: dict) -> None:
        self.write(json.dumps(payload) + "\n")

    def done(self) -> None:
        if self.path and self.fh:
            self.fh.close()
        sys.stdout.flush()


def _run_count(args, out: _Out) -> int:
    g = _load_graph(args.graph, args.format)
    if args.what == "hom":
        if not args.target:
            raise UsageError("count hom needs --target")
        val = hom_count(g, _load_target(args.target, args.override_size_guard),
                        override_guard=args.override_size_guard)
    elif args.what == "chrom":
        val = chrom_eval(g, _need_q(args), override_guard=args.override_size_guard)
    elif args.what == "ind":
        val = ind_count(g, override_guard=args.override_size_guard)
    else:
        val = wr_count(g, override_guard=args.override_size_guard)
    out.line({"count": _fmt_count(val)})
    return 0


def _run_poly(args, out: _Out) -> int:
    g = _load_graph(args.graph, args.format)
    poly = chrom_poly(g, override_guard=args.override_size_guard)
    out.line({"coeffs": [_fmt_count(a) for a in poly.coeffs]})
    return 0


def _run_verify(args, out: _Out) -> int:
    g = _load_graph(args.graph, args.format)
    claim = CLAIMS[args.claim]
    target = _load_target(args.target) if claim.target and args.target else None
    claim.check(() if args.q is None else (args.q,), target, args.ell)
    edge = _parse_edge(args.edge) if claim.edge else None
    params = argparse.Namespace(q=args.q, ell=args.ell, edge=edge, target=target)
    bad = False
    for r in claim.verify(g, params):
        out.line(r.to_json_dict())
        bad = bad or r.verdict == VIOLATED
    return 1 if bad else 0


def _run_sweep(args, out: _Out) -> int:
    qs = tuple(args.q) if args.q else ()
    target = _load_target(args.target) if args.target else None
    cfg = SweepConfig(args.claim, args.max_n, qs=qs, ell=args.ell, target=target)
    if args.summary_only:
        summary = sweep_summary(cfg)
    else:
        summary = sweep_reports(cfg, out.write)
    out.line(summary.to_json_dict())
    return 1 if summary.violated else 0


def _run_scan(args, out: _Out) -> int:
    target = _load_target(args.target)
    res = edge_mono_scan(target, args.max_n, bipartite_only=args.bipartite_only)
    out.line(res.to_json_dict())
    return 0 if res.satisfies_all else 1


def _run_search(args, out: _Out) -> int:
    g = _load_graph(args.graph, args.format)
    found = find_counterexample(g, args.k, args.samples, args.seed)
    if found is None:
        out.line({"found": False, "seed": args.seed, "samples": args.samples})
        return 0
    payload = {"found": True, "seed": args.seed, "samples": args.samples}
    payload.update(found.to_json_dict())
    out.line(payload)
    if args.save_target:
        Path(args.save_target).write_text(to_target_text(found.target))
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        out = _Out(args.output)
        try:
            return {"count": _run_count, "poly": _run_poly, "verify": _run_verify,
                    "sweep": _run_sweep, "scan": _run_scan,
                    "search": _run_search}[args.command](args, out)
        finally:
            out.done()
    except (UsageError, ParseError, SizeGuardError, OSError, ValueError) as exc:
        warn(f"homverify: {exc}")
        return 2
    except Exception as exc:  # a defect, never a verdict: keep 1 for violations
        msg = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        warn(f"homverify: internal error: {msg}")
        return 3


def warn(line: str) -> None:
    """Print a line on stderr, or drop it if stderr's reader has gone."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
