"""In-memory spans around the program's entry points, installed from outside.

:func:`instrument` wraps the public functions of each layer (and, where a
layer's work has no public boundary, the one method that does it) with a
span recorder.  Nothing is patched inside ``src/``: the wrappers replace
attributes at run time and :meth:`Tracer.uninstall` puts the originals back.

A span records its name, start, end, parent span and a group id shared by
the spans of one experiment cell, report call or served request.  Layer
self time is a span's duration minus the durations of its direct children
(children never overlap: each thread keeps its own span stack).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: span name -> per-layer self-time metric it feeds
SELF_TIME_METRICS = {
    "algorithms.build": "algorithms.build_s",
    "algorithms.generate": "algorithms.generate_s",
    "trace.build": "trace.build_s",
    "trace.scan": "trace.scan_s",
    "trace.wait": "trace.wait_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "validation.validate": "validation.validate_s",
    "engine.run": "engine.run_self_s",
    "engine.cell": "engine.run_self_s",
    "engine.batch": "engine.run_self_s",
    "store.write": "store.write_s",
    "store.lookup": "store.lookup_s",
    "session.report": "session.report_s",
    "serve.handler": "serve.handler_s",
}

#: span name -> call-count metric
CALL_METRICS = {
    "algorithms.build": "algorithms.build_calls",
    "metrics.evaluate": "metrics.evaluate_calls",
    "validation.validate": "validation.validate_calls",
}

#: marks a patched attribute the owner only inherited (uninstall deletes it)
_INHERITED = object()

# (id, parent id, name, group, start, end)
Span = Tuple[int, Optional[int], str, Optional[str], float, float]


class Tracer:
    """Collects spans and counters in memory; thread-safe."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, group: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if group is None and parent is not None:
            group = parent[2]
        frame = (next(self._ids), name, group)
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (frame[0], parent[0] if parent else None, name, group, start, end)
                )

    # -- patching ------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        group: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        before: Optional[Callable[[tuple, dict], object]] = None,
        after: Optional[Callable[[tuple, dict, object, object], None]] = None,
        when: Optional[Callable[[tuple, dict], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``group(args, kwargs)`` names the span group (default: inherited);
        ``before`` runs first and its value reaches ``after(args, kwargs,
        result, before_value)``, which records counters.  Calls for which
        ``when(args, kwargs)`` is false run unrecorded (memoised no-op calls,
        per-holiday calls inside a chunk-level span).
        """
        raw = owner.__dict__.get(attr, _INHERITED)
        is_classmethod = isinstance(raw, classmethod)
        if raw is _INHERITED:
            fn = getattr(owner, attr)
        else:
            fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            gid = group(args, kwargs) if group is not None else None
            result = tracer.call(name, fn, args, kwargs, gid)
            if after is not None:
                after(args, kwargs, result, state)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    # -- output --------------------------------------------------------------
    def dump(self, path: Path, extra: Optional[dict] = None) -> None:
        """Write every span (one JSON object per line) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts), **(extra or {})}) + "\n")
            for sid, parent, name, group, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "group": group, "start": start, "end": end}) + "\n")


def load(path: Path) -> Tuple[List[Span], Counter]:
    """Read back what :meth:`Tracer.dump` wrote."""
    lines = path.read_text(encoding="utf-8").splitlines()
    counts = Counter(json.loads(lines[0])["counts"])
    spans = []
    for line in lines[1:]:
        s = json.loads(line)
        spans.append((s["id"], s["parent"], s["name"], s["group"], s["start"], s["end"]))
    return spans, counts


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """``{span name: total self seconds}``."""
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for sid, _, name, _, start, end in spans:
        out[name] += (end - start) - child_time.get(sid, 0.0)
    return dict(out)


def layer_metrics(processes: Iterable[List[Span]]) -> Dict[str, float]:
    """Per-layer self seconds and call counts (totals) from the spans of
    one or more processes (span ids are only unique within a process)."""
    out: Dict[str, float] = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    calls: Counter = Counter()
    for spans in processes:
        for name, seconds in self_times(spans).items():
            metric = SELF_TIME_METRICS.get(name)
            if metric is not None:
                out[metric] += seconds
        calls.update(name for _, _, name, _, _, _ in spans)
    for name, metric in CALL_METRICS.items():
        out[metric] = float(calls.get(name, 0))
    return out


def top_level_seconds(spans: Iterable[Span]) -> float:
    return sum(end - start for _, parent, _, _, start, end in spans if parent is None)


# ---------------------------------------------------------------------------
# the instrumentation points, one block per layer
# ---------------------------------------------------------------------------

def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.api as api
    import repro.core.metrics as metrics
    import repro.core.validation as validation
    import repro.analysis.engine as engine
    from repro.algorithms.base import Scheduler
    from repro.core.schedule import GeneratorSchedule
    from repro.core.trace import StreamedTrace, TraceBatch, TraceMatrix, TraceStream
    from repro.io.store import ResultStore
    from repro.serve.service import SchedulingService

    # algorithms: every concrete Scheduler.build, and the generator step
    seen = set()
    pending = list(Scheduler.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "build" in cls.__dict__ and cls not in seen:
            seen.add(cls)
            tracer.wrap(cls, "build", "algorithms.build")

    def frontier(args, kwargs):
        return args[0].frontier()

    def generated(args, kwargs, result, before):
        tracer.add("algorithms.holidays_generated", args[0].frontier() - before)

    tracer.wrap(GeneratorSchedule, "prefix", "algorithms.generate",
                before=frontier, after=generated)
    tracer.wrap(GeneratorSchedule, "happy_set", "algorithms.generate",
                before=frontier, after=generated,
                when=lambda args, kwargs: tracer.current_name() != "algorithms.generate")

    # core.trace: matrix / chunk / batch construction and the scans
    def count_matrix(args, kwargs, result, before):
        if tracer.current_name() != "trace.build":  # batch members count with their batch
            tracer.add("trace.chunks")
            tracer.add("trace.bytes_computed", result.graph.num_nodes() * result.horizon)

    def count_block(args, kwargs, result, before):
        tracer.add("trace.chunks")
        tracer.add("trace.bytes_computed", result.graph.num_nodes() * result.horizon)

    def count_batch(args, kwargs, result, before):
        batch = args[0]
        if batch.member_mode == "dense":
            tracer.add("trace.chunks")
            tracer.add("trace.bytes_computed",
                       len(batch.schedules) * batch.graph.num_nodes() * batch.horizon)

    def count_parallel_pass(args, kwargs, result, before):
        # blocks are built in worker processes; count them from the parent
        trace = args[0]
        tracer.add("trace.chunks", trace._source.num_chunks())
        tracer.add("trace.bytes_computed", trace.graph.num_nodes() * trace.horizon)

    tracer.wrap(TraceMatrix, "from_schedule", "trace.build", after=count_matrix)
    tracer.wrap(TraceStream, "block", "trace.build", after=count_block)
    tracer.wrap(TraceBatch, "__init__", "trace.build", after=count_batch)
    # every query re-enters the (memoised) scan; only the first call works
    tracer.wrap(TraceBatch, "scan", "trace.scan", when=lambda args, kwargs: not args[0]._scanned)
    tracer.wrap(StreamedTrace, "_scan", "trace.scan", when=lambda args, kwargs: args[0]._stats is None)
    tracer.wrap(StreamedTrace, "legality_scan", "trace.scan")
    # a parallel pass: the parent waits for (and merges) blocks that pool
    # workers build and fold; the workers record their own spans
    tracer.wrap(StreamedTrace, "_scan_parallel", "trace.wait", after=count_parallel_pass)
    tracer.wrap(StreamedTrace, "_legality_scan_parallel", "trace.wait", after=count_parallel_pass)
    _instrument_pool_workers(tracer)

    # core.metrics / core.validation (and the names repro.api imported)
    for owner in (metrics, api):
        tracer.wrap(owner, "evaluate_schedule", "metrics.evaluate")
    for owner in (validation, api):
        tracer.wrap(owner, "validate_schedule", "validation.validate")

    # analysis.engine: the run, each executed cell / batched unit
    def engine_stats(args, kwargs, result, before):
        stats = args[0].stats
        tracer.add("engine.cells_executed", stats["executed"])
        tracer.add("engine.cells_cached", stats["cached"])

    def cell_group(args, kwargs):
        return args[0].cell_id()

    def batch_group(args, kwargs):
        return "batch:" + args[0][0][0][1].cell_id()

    def count_cell(args, kwargs, result, before):
        tracer.add("engine.units")
        tracer.add("engine.unit_cells")

    def count_batch_unit(args, kwargs, result, before):
        tracer.add("engine.units")
        tracer.add("engine.unit_cells", len(args[0][0]))

    runs = itertools.count(1)
    tracer.wrap(engine.ExperimentEngine, "run", "engine.run", after=engine_stats,
                group=lambda args, kwargs: f"run:{next(runs)}")
    tracer.wrap(engine, "execute_cell", "engine.cell", group=cell_group, after=count_cell)
    tracer.wrap(engine, "_execute_batch", "engine.batch", group=batch_group, after=count_batch_unit)

    # io.store
    def count_rows(args, kwargs, result, before):
        tracer.add("store.rows_written", result)

    def count_lookup(args, kwargs, result, before):
        tracer.add("store.ids_probed", len(set(args[1])))
        tracer.add("store.ids_hit", len(result))

    tracer.wrap(ResultStore, "put_many", "store.write", after=count_rows)
    tracer.wrap(ResultStore, "lookup", "store.lookup", after=count_lookup)

    # api + serve
    reports = itertools.count(1)
    tracer.wrap(api.Session, "report", "session.report",  # a served request names its own group
                group=lambda args, kwargs: None if tracer.current_name() else f"report:{next(reports)}")
    requests = itertools.count(1)
    tracer.wrap(SchedulingService, "report", "serve.handler",
                group=lambda args, kwargs: f"request:{next(requests)}")


#: process-pool entry points of core.trace: one chunk block each
POOL_ENTRY_POINTS = ("_summary_block_worker", "_legality_block_worker", "_appearance_block_worker")


def worker_dir() -> Path:
    from common import OUT_DIR

    return OUT_DIR / "workers"


def _instrument_pool_workers(tracer: Tracer) -> None:
    """Record spans inside forked pool workers and write them, per block, to
    :func:`worker_dir` (a worker's memory is lost when the pool shuts down).

    Workers are forked from this process with every wrapper already in
    place, so the block's chunk builds show up as ``trace.build`` spans
    under the block's ``trace.scan`` span.
    """
    import repro.core.trace as trace_module

    directory = worker_dir()
    directory.mkdir(parents=True, exist_ok=True)
    for attr in POOL_ENTRY_POINTS:
        fn = trace_module.__dict__[attr]

        def entry(payload, _fn=fn):
            # a forked worker inherits the parent's open spans: start clean
            tracer._local.stack = []
            tracer.reset()
            try:
                return tracer.call("trace.scan", _fn, (payload,), {})
            finally:
                tracer.dump(directory / f"{os.getpid()}-{time.monotonic_ns()}.jsonl")

        functools.update_wrapper(entry, fn)
        setattr(trace_module, attr, entry)
        tracer._patches.append((trace_module, attr, fn))


def collect_worker_spans() -> List[List[Span]]:
    """The spans pool workers wrote since the last call (one list per block)."""
    out = []
    directory = worker_dir()
    for path in sorted(directory.glob("*.jsonl")) if directory.is_dir() else ():
        out.append(load(path)[0])
        path.unlink()
    return out


def counter_metrics(counts: Counter) -> Dict[str, float]:
    """Per-layer counters from the tracer's counts (totals; ratios exact)."""
    units = counts.get("engine.units", 0)
    probed = counts.get("store.ids_probed", 0)
    return {
        "algorithms.holidays_generated": float(counts.get("algorithms.holidays_generated", 0)),
        "trace.chunks": float(counts.get("trace.chunks", 0)),
        "trace.bytes_computed": float(counts.get("trace.bytes_computed", 0)),
        "engine.cells_executed": float(counts.get("engine.cells_executed", 0)),
        "engine.cells_cached": float(counts.get("engine.cells_cached", 0)),
        "engine.cells_per_batch": counts.get("engine.unit_cells", 0) / units if units else 0.0,
        "store.rows_written": float(counts.get("store.rows_written", 0)),
        "store.hit_ratio": counts.get("store.ids_hit", 0) / probed if probed else 0.0,
    }
