"""Span tracer for the benchmark's traced passes.

The tracer measures homverify from outside: it replaces attributes of the
package (functions as bound in the module that calls them, and a few class
methods) with timing wrappers, and puts every original back on ``remove()``.
Untraced passes never create a tracer, so they run the package unmodified.

Each wrapped call is a span.  Per span name the tracer aggregates the call
count, the total time and the self time (the span's duration minus the part
its child spans cover), and per (parent, child) pair the child's total time.
Spans marked ``keep`` (units and sweep batches) are also stored in memory
with their parent and unit ids, for writing out when the run ends.  Span
stacks are per thread, because a worker pool feeds its jobs from a thread
of the calling process.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter
_MISSING = object()


class _ThreadState:
    __slots__ = ("stack", "aggs", "edges")

    def __init__(self):
        # frame: [name, start, child_time, kept span id or None, unit id]
        self.stack: list = []
        # name -> [calls, items, total_s, self_s]
        self.aggs: dict = {}
        # (parent name, child name) -> total_s
        self.edges: dict = {}


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list = []
        self._next_id = 0
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}

    # -- span bookkeeping --------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = _ThreadState()
            self._tls.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _push(self, name: str, keep: bool):
        st = self._state()
        span_id = None
        unit_id = st.stack[-1][4] if st.stack else None
        if keep:
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            if unit_id is None:
                unit_id = span_id
        frame = [name, 0.0, 0.0, span_id, unit_id]
        st.stack.append(frame)
        frame[1] = _clock()
        return st, frame

    def _pop(self, st: _ThreadState, frame: list, items: int = 0) -> None:
        end = _clock()
        st.stack.pop()
        name, start, child, span_id, unit_id = frame
        dur = end - start
        agg = st.aggs.get(name)
        if agg is None:
            agg = st.aggs[name] = [0, 0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += items
        agg[2] += dur
        agg[3] += dur - child
        parent_name = None
        if st.stack:
            parent = st.stack[-1]
            parent[2] += dur
            parent_name = parent[0]
        key = (parent_name, name)
        st.edges[key] = st.edges.get(key, 0.0) + dur
        if span_id is not None:
            parent_id = next((f[3] for f in reversed(st.stack) if f[3] is not None), None)
            self.spans.append({"id": span_id, "parent": parent_id, "unit": unit_id,
                               "name": name, "start": start, "end": end})

    @contextmanager
    def span(self, name: str, keep: bool = True):
        """A span opened by the benchmark itself."""
        st, frame = self._push(name, keep)
        try:
            yield
        finally:
            self._pop(st, frame)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__.get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap_call(self, owner, attr: str, name: str, keep: bool = False) -> None:
        orig = getattr(owner, attr)
        push, pop = self._push, self._pop

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            st, frame = push(name, keep)
            try:
                return orig(*args, **kwargs)
            finally:
                pop(st, frame)

        self._patch(owner, attr, wrapper)

    def wrap_gen(self, owner, attr: str, name: str) -> None:
        """Wrap a generator function: every resumption is a span of `name`
        and every value it yields is one item."""
        orig = getattr(owner, attr)
        push, pop = self._push, self._pop

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            try:
                while True:
                    st, frame = push(name, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        pop(st, frame)
                        return
                    except BaseException:
                        pop(st, frame)
                        raise
                    pop(st, frame, 1)
                    yield item
            finally:
                it.close()

        self._patch(owner, attr, wrapper)

    def install(self, plan) -> None:
        """Apply a plan of (target, attr, span name, kind) entries, where
        target is 'module' or 'module:Class' and kind is 'call', 'keep'
        (a call span stored with its timing) or 'gen'."""
        try:
            for target, attr, name, kind in plan:
                owner = resolve(target)
                if kind == "gen":
                    self.wrap_gen(owner, attr, name)
                else:
                    self.wrap_call(owner, attr, name, keep=kind == "keep")
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put back every attribute this tracer replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, items, total_s and self_s over all threads."""
        out: dict[str, dict] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, items, total, self_s) in st.aggs.items():
                o = out.setdefault(name, {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0})
                o["calls"] += calls
                o["items"] += items
                o["total_s"] += total
                o["self_s"] += self_s
        return out

    def edge_total(self, parent: str | None, child: str) -> float:
        """Total time of `child` spans opened directly inside `parent` spans."""
        with self._lock:
            states = list(self._states)
        return sum(st.edges.get((parent, child), 0.0) for st in states)


def resolve(target: str):
    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


# Layer plan for the traced single-process pass.  Each entry wraps a name as
# the calling module binds it, so the span sits on the boundary between two
# layers.  `Graph.__init__` and `Graph.is_connected` are wrapped on the class
# itself: every module builds graphs through the same class, and replacing
# the class object would break equality between Graph instances.
_SWEEP_CHECKERS = (
    "check_balanced_bipartite_bound", "check_correlation_coloring",
    "check_cycle_packing_bound", "check_connected_ind_bound",
    "check_connected_wr_bound", "check_edge_ratio", "check_sidorenko_bound",
    "check_wr_lemma",
)

LAYER_PLAN = (
    ("homverify.sweeps", "iter_edge_sets", "search.enumerate", "gen"),
    ("homverify.search", "iter_edge_sets", "search.enumerate", "gen"),
    ("homverify.graphs:Graph", "__init__", "graphs.build", "call"),
    ("homverify.graphs:Graph", "is_connected", "graphs.connectivity", "call"),
    ("homverify.verify", "connected_components", "graphs.connectivity", "call"),
    ("homverify.sweeps", "bipartition", "graphs.bipartition", "call"),
    ("homverify.search", "bipartition", "graphs.bipartition", "call"),
    ("homverify.verify", "bipartition", "graphs.bipartition", "call"),
    ("homverify.sweeps", "to_graph6", "graphs.graph6", "call"),
    ("homverify.search", "to_graph6", "graphs.graph6", "call"),
    ("homverify.verify", "to_graph6", "graphs.graph6", "call"),
    ("homverify.sweeps", "_identified_edges", "graphs.identify", "call"),
    ("homverify.verify", "identify_vertices", "graphs.identify", "call"),
    ("homverify.sweeps", "_ind_branch", "counting.ind", "call"),
    ("homverify.sweeps", "ind_count", "counting.ind", "call"),
    ("homverify.verify", "ind_count", "counting.ind", "call"),
    ("homverify.sweeps", "wr_count", "counting.wr", "call"),
    ("homverify.verify", "wr_count", "counting.wr", "call"),
    ("homverify.sweeps", "chrom_poly", "counting.chrom", "call"),
    ("homverify.verify", "chrom_poly", "counting.chrom", "call"),
    ("homverify.verify", "chrom_eval", "counting.chrom", "call"),
    ("homverify.sweeps", "hom_count", "counting.hom", "call"),
    ("homverify.search", "hom_count", "counting.hom", "call"),
    ("homverify.verify", "hom_count", "counting.hom", "call"),
    *(("homverify.sweeps", name, "verify.check", "call") for name in _SWEEP_CHECKERS),
    ("homverify.sweeps", "_summary_batch", "sweeps.batch", "keep"),
    ("homverify.sweeps", "_corollary_batch", "sweeps.batch", "keep"),
    ("homverify.sweeps", "_oracle_batch", "sweeps.batch", "keep"),
    ("homverify.sweeps", "_report_batch", "sweeps.batch", "keep"),
    ("homverify.sweeps:SweepSummary", "merge", "sweeps.merge", "call"),
    ("homverify.sweeps:OracleSummary", "merge", "sweeps.merge", "call"),
    ("homverify.cli", "main", "cli", "call"),
    ("homverify.cli:_Out", "line", "cli.emit", "call"),
    ("homverify.search", "find_counterexample", "search.find", "call"),
    ("homverify.search", "_draw_entries", "search.draw", "call"),
    ("homverify.search", "_hom_floats", "search.prescreen", "call"),
    ("homverify.search", "_entries_to_target", "search.confirm", "call"),
)

# Plan for the parent-only pass with a worker pool: spans in forked workers
# are invisible here, so only what the calling process does is wrapped.
# Resuming `_map_batches` blocks on the pool; its self time is pool wait.
POOL_PLAN = (
    ("homverify.sweeps", "_map_batches", "sweeps.pool", "gen"),
    ("homverify.sweeps:SweepSummary", "merge", "sweeps.merge", "call"),
)
