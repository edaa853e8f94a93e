"""Bit-parallel trace engine: dense node × holiday occupancy matrices.

Every metric and validation question in this package reduces to queries over
the *occupancy trace* of a schedule prefix — "was node ``p`` happy at holiday
``t``?" for ``p`` in the graph and ``t`` in ``1..horizon``.  The historical
implementation (:class:`repro.core.metrics.HappinessTrace`) answers these by
materialising one ``frozenset`` per holiday and walking them node by node,
which caps practical horizons at a few tens of thousands.

:class:`TraceMatrix` stores the same information as a dense boolean matrix
with one row per node and one column per holiday, built **once** per run and
shared by the metric suite, the validator and the benchmark harness.  The
matrix is a ``numpy.ndarray`` of ``bool_``: rows are contiguous byte
vectors, so gap/run-length queries become ``flatnonzero``/``diff`` calls and
edge collision tests become elementwise ``&`` reductions.  Every query is
differentially tested against the ``frozenset`` reference
(``backend="sets"`` throughout :mod:`repro.core.metrics`), which remains the
semantic ground truth.  ``"bitmask"`` survives only as a legacy spelling of
the numpy backend (:func:`resolve_backend`), so old spec files still load.

Memory trade-off — dense vs. stream: a dense trace costs ``n × horizon``
bytes (numpy stores one byte per bool), so a 60-node workload at horizon
10⁶ is ~60 MB; every consumer reads every cell at least once, so below that
scale dense is the right call and remains the default.  Dense
stops scaling around horizon 10⁷–10⁸ (the same 60-node workload at 10⁸
would need ~6 GB), which is what the **streaming mode** removes:
:class:`TraceStream` yields the same occupancy information as fixed-width
:class:`TraceMatrix` chunks, and :class:`StreamedTrace` answers the full
query API by carrying gap/run-length state across chunk boundaries — O(n ×
chunk) resident bytes regardless of horizon.  ``horizon_mode="auto"``
(:func:`resolve_horizon_mode`) picks dense below
:data:`AUTO_STREAM_BYTES` and stream above it, so small-horizon numbers
never move while 10⁸-holiday horizons stay bounded.

Construction fast paths (see :meth:`TraceMatrix.from_schedule`):

* :class:`~repro.core.schedule.PeriodicSchedule` — rows are computed directly
  from the ``(period, phase)`` table, grouping nodes by period so each
  distinct period costs one ``arange % τ``; **no happy set is ever
  constructed**.
* cyclic :class:`~repro.core.schedule.ExplicitSchedule` — one cycle of
  columns is filled and then tiled/repeated out to the horizon.
* everything else (including online :class:`~repro.core.schedule.GeneratorSchedule`
  runs and raw sequences of sets) — columns are filled from the materialised
  prefix in a single batched pass.

The streaming fast paths mirror these: periodic and cyclic schedules tile
straight into each chunk from the assignment table / one materialised cycle
(no prefix is ever built), while generic schedules materialise one chunk of
happy sets at a time.  A perfectly periodic schedule's *summaries* need no
chunk at all: :meth:`StreamedTrace._scan` fills the per-node run-length
state by arithmetic on ``(period, phase)`` and each edge's collisions as
its CRT residue class, in ``O(n + m + collisions)`` whatever the horizon;
only per-appearance queries still tile chunks.
:class:`~repro.core.schedule.GeneratorSchedule` memoises what it has
produced (its future depends on its past); constructed
with a ``window=`` it evicts holidays far behind the generation frontier, so
aperiodic generator-backed schedulers also stream at bounded memory (at the
price of supporting a single forward pass — see the class notes).

Parallel streaming (``jobs=``; no effect on the closed-form periodic
summaries): :meth:`StreamedTrace._scan` folds chunks
through an *associative* accumulator (:meth:`_NodeStreamStats.absorb` per
chunk, :meth:`_NodeStreamStats.merge` across chunk ranges), so the summary
pass — and the dedicated per-appearance passes behind ``appearances`` /
``all_gaps`` — can be split into contiguous blocks of chunks evaluated on
worker processes and merged in order.  Because the periodic and cyclic fast
paths are offset-aware, a worker needs only ``(schedule, chunk range)`` — no
schedule prefix is ever shipped; raw happy-set sequences ship just the slice
a worker's block covers.  Generator-backed schedules, whose future depends
on their past, parallelise through the **checkpoint protocol**
(:class:`~repro.core.schedule.GeneratorSchedule` constructed with
``checkpoint=``/``restore=``): the parent runs the generator forward —
the inherently sequential part — snapshotting its state at every chunk
boundary, and each worker resumes a picklable
:class:`~repro.core.schedule.GeneratorCheckpoint` to regenerate and fold
its own block while the parent races ahead.  Non-checkpointable generator
schedules still fall back to the serial scan, now with one logged warning
naming the schedule and the reason.  Either way the determinism contract
holds: ``jobs=1`` and ``jobs=N`` produce *identical* summaries, collisions
and validation reports for every schedule kind (asserted by
``tests/core/test_stream_parallel.py`` and the checkpoint parity suite).
The legality scan parallelises the same way, and with ``fail_fast`` the
parent cancels every outstanding block past the first violating chunk.

Batched kernels (:class:`TraceBatch`): experiment campaigns evaluate many
schedules that differ only in the scheduler over the *same* graph and
horizon, and per-cell execution pays the construction dispatch, the summary
reductions and the per-edge legality AND once per schedule.  A
:class:`TraceBatch` stacks ``S`` compatible schedules into one ``S × n ×
horizon`` boolean tensor, built through the same periodic/cyclic fast
paths broadcast across the schedule axis — all rows with the same ``(period, phase)`` are filled
from one shared expansion regardless of which schedule they belong to.  One
stacked :meth:`~TraceBatch.scan` then answers the full summary query API
for every member at once: gap/run-length statistics come from a single
``nonzero``/``diff``/``reduceat`` sweep over the flattened ``S·n`` row
block, and one adjacency-masked pass per graph edge yields the collision
holidays of *all* members.  :meth:`TraceBatch.member` returns a lightweight
view with the :class:`TraceMatrix` query API (answered from the shared
scan) that plugs into the metric and validation entry points through their
``trace=`` parameter, so batched execution reuses the exact same
downstream code as per-cell execution and produces identical reports.
Oversized batches compose with streaming: in ``stream`` mode the members'
chunks are folded column-block by column-block through the same
associative accumulators, so resident memory is ``O(S × n × chunk)``.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as _np

from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import (
    ExplicitSchedule,
    GeneratorCheckpoint,
    GeneratorSchedule,
    PeriodicSchedule,
    Schedule,
    SlotAssignment,
)

_LOG = logging.getLogger(__name__)

__all__ = [
    "TraceMatrix",
    "TraceStream",
    "StreamedTrace",
    "TraceBatch",
    "BACKENDS",
    "HORIZON_MODES",
    "DEFAULT_CHUNK",
    "AUTO_STREAM_BYTES",
    "dense_trace_bytes",
    "materialize_prefix",
    "resolve_backend",
    "resolve_horizon_mode",
]

#: Spellings :func:`resolve_backend` accepts for the one matrix backend:
#: ``"bitmask"`` is the legacy name of a removed pure-Python engine, kept so
#: spec files and store rows that name it still load.  ``"sets"`` is *not*
#: a :class:`TraceMatrix` backend — it names the frozenset reference path
#: and is handled by the callers in :mod:`repro.core.metrics` /
#: ``validation``.
BACKENDS = ("auto", "numpy", "bitmask")

#: Horizon representations accepted by :func:`resolve_horizon_mode`:
#: ``dense`` materialises one n × horizon matrix, ``stream`` evaluates
#: fixed-width chunks with carried state, ``auto`` picks by estimated size.
HORIZON_MODES = ("auto", "dense", "stream")

#: Default streaming chunk width (holidays per block).  At 60 nodes one
#: numpy chunk is ~15 MB — large enough to amortise per-chunk Python
#: overhead, small enough that a handful of live blocks stay cache-friendly.
DEFAULT_CHUNK = 1 << 18

#: ``auto`` switches from dense to stream when the dense matrix would exceed
#: this many bytes (256 MiB).  Every horizon the HorizonPolicy can pick on
#: its own stays far below it, so default runs never change representation.
AUTO_STREAM_BYTES = 1 << 28

#: Parallel streaming splits the chunk sequence into up to ``jobs`` × this
#: many contiguous blocks: more blocks than workers keeps the pool busy when
#: block costs are uneven and lets a ``fail_fast`` legality scan cancel
#: outstanding blocks at a finer granularity than one block per worker.
BLOCKS_PER_JOB = 4

#: Rows (nodes, or edges for collision ANDs) × horizon that one numpy bulk
#: query sweeps at a time, which bounds its transient memory.
_SWEEP_BLOCK_CELLS = 1 << 22

ScheduleOrSets = Union[Schedule, Sequence[Iterable[Node]]]


def dense_trace_bytes(num_nodes: int, horizon: int) -> int:
    """Resident size of a dense trace: numpy stores one byte per cell."""
    return num_nodes * horizon


def resolve_horizon_mode(mode: str, num_nodes: int, horizon: int) -> str:
    """Normalise a horizon mode, resolving ``"auto"`` by estimated memory.

    ``"dense"`` and ``"stream"`` pass through unchanged; ``"auto"`` picks
    ``"stream"`` exactly when the dense matrix (:func:`dense_trace_bytes`)
    would exceed :data:`AUTO_STREAM_BYTES`, so every horizon a default
    policy can choose stays dense and pre-streaming numbers never move.
    This is the one place the ``mode`` string is validated, shared by the
    metric, validation and runner entry points.
    """
    if mode not in HORIZON_MODES:
        raise ValueError(f"unknown horizon mode {mode!r}; expected one of {HORIZON_MODES}")
    if mode == "auto":
        if dense_trace_bytes(num_nodes, horizon) > AUTO_STREAM_BYTES:
            return "stream"
        return "dense"
    return mode


def materialize_prefix(schedule: ScheduleOrSets, horizon: int) -> Sequence[FrozenSet[Node]]:
    """The first ``horizon`` happy sets of a schedule or raw sequence, as
    frozensets — the single materialization used by both the trace builder
    and :func:`repro.core.metrics.materialize`."""
    if isinstance(schedule, Schedule):
        return schedule.prefix(horizon)
    sets = [frozenset(s) for s in schedule[:horizon]]
    if len(sets) < horizon:
        raise ValueError(
            f"explicit sequence has only {len(sets)} holidays, requested horizon {horizon}"
        )
    return sets


def resolve_backend(backend: str) -> str:
    """Normalise a matrix backend name: every spelling in :data:`BACKENDS`
    names the numpy engine, the only one there is."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown trace backend {backend!r}; expected one of {BACKENDS} (or 'sets' "
            f"at the metrics/validation layer)"
        )
    return "numpy"


class TraceMatrix:
    """A node × holiday boolean occupancy matrix over a finite horizon.

    Rows follow the graph's deterministic node order; column ``j`` is holiday
    ``j + 1`` (holidays are 1-indexed throughout the package).  Instances are
    immutable once built; construct them through :meth:`from_schedule`.

    Attributes:
        graph: the conflict graph the trace was observed on.
        horizon: number of holidays covered (columns).
        unknown: ``(holiday, node)`` pairs scheduled by the source but absent
            from the graph — impossible for :class:`Schedule` sources that
            validate, possible for raw sequences; consumed by the validator.
    """

    #: representation tag, mirrored by :class:`StreamedTrace` (``"stream"``).
    mode = "dense"

    def __init__(
        self,
        graph: ConflictGraph,
        horizon: int,
        matrix,
        unknown: Optional[List[Tuple[int, Node]]] = None,
    ) -> None:
        self.graph = graph
        self.horizon = horizon
        self._order: List[Node] = graph.nodes()
        self._index: Dict[Node, int] = {p: i for i, p in enumerate(self._order)}
        self._matrix = matrix
        self.unknown: List[Tuple[int, Node]] = unknown or []
        # bulk queries: (counts, first, last, dmax, dmin) per row
        self._summary = None

    # -- construction --------------------------------------------------------------
    @classmethod
    def from_schedule(
        cls,
        schedule: ScheduleOrSets,
        graph: ConflictGraph,
        horizon: int,
    ) -> "TraceMatrix":
        """Observe ``horizon`` holidays of ``schedule`` into a new matrix.

        Dispatches to the periodic fast path, the cyclic tiling path, or the
        generic batched column fill depending on the schedule type.
        """
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon!r}")
        # The periodic fast path reads the assignment table directly, so it is
        # only valid when the table covers exactly the nodes being observed;
        # evaluating a schedule against a different graph (extra or missing
        # nodes) goes through the generic set fill, which tracks unknowns.
        if isinstance(schedule, PeriodicSchedule) and set(schedule.assignments) == set(graph.nodes()):
            return cls._from_periodic(schedule, graph, horizon)
        if isinstance(schedule, ExplicitSchedule) and schedule.is_periodic() and 0 < len(schedule) < horizon:
            return cls._from_cyclic_explicit(schedule, graph, horizon)
        return cls._from_sets(materialize_prefix(schedule, horizon), graph, horizon)

    @classmethod
    def _from_periodic(
        cls,
        schedule: PeriodicSchedule,
        graph: ConflictGraph,
        horizon: int,
        start: int = 1,
    ) -> "TraceMatrix":
        """Vectorized build from a ``{node: (period, phase)}`` table.

        Nodes are grouped by period so each distinct period τ is expanded
        exactly once, by one ``arange % τ``.  No per-holiday set is
        constructed.

        ``start`` shifts the observation window: column ``j`` covers holiday
        ``start + j``, which is how :class:`TraceStream` tiles the table
        straight into each chunk without materialising any prefix.
        """
        order = graph.nodes()
        by_period: Dict[int, List[Tuple[int, int]]] = {}
        for i, p in enumerate(order):
            slot = schedule.assignments[p]
            by_period.setdefault(slot.period, []).append((i, slot.phase))

        matrix = _np.zeros((len(order), horizon), dtype=_np.bool_)
        holidays = _np.arange(start, start + horizon, dtype=_np.int64)
        for period, members in by_period.items():
            mod = holidays % period
            rows = _np.fromiter((i for i, _ in members), dtype=_np.intp, count=len(members))
            phases = _np.fromiter((ph for _, ph in members), dtype=_np.int64, count=len(members))
            matrix[rows] = mod[_np.newaxis, :] == phases[:, _np.newaxis]
        return cls(graph, horizon, matrix)

    @classmethod
    def _from_cyclic_explicit(
        cls, schedule: ExplicitSchedule, graph: ConflictGraph, horizon: int
    ) -> "TraceMatrix":
        """Fill one cycle of columns, then tile it out to the horizon."""
        cycle = [schedule.happy_set(t) for t in range(1, len(schedule) + 1)]
        base = cls._from_sets(cycle, graph, len(cycle))
        reps = -(-horizon // len(cycle))  # ceil division
        unknown = sorted(
            (
                (t0 + k * len(cycle), p)
                for t0, p in base.unknown
                for k in range(reps)
                if t0 + k * len(cycle) <= horizon
            ),
            key=lambda pair: pair[0],
        )
        matrix = _np.tile(base._matrix, (1, reps))[:, :horizon]
        return cls(graph, horizon, _np.ascontiguousarray(matrix), unknown=unknown)

    @classmethod
    def _from_sets(
        cls, sets: Sequence[FrozenSet[Node]], graph: ConflictGraph, horizon: int
    ) -> "TraceMatrix":
        """Batched column fill from a materialised prefix of happy sets."""
        order = graph.nodes()
        index = {p: i for i, p in enumerate(order)}
        unknown: List[Tuple[int, Node]] = []
        # Schedules usually repeat happy sets heavily (periodic phases,
        # greedy cycles), and frozensets cache their hash — so dedup the
        # columns, fill one column per *distinct* set and assemble the
        # matrix with one vectorized gather.  A small sample decides
        # whether dedup pays: randomized schedules with (almost) all
        # columns distinct go through a direct scatter instead.
        sample = sets[:256]
        if len(sample) >= 64 and len(set(sample)) > 0.9 * len(sample):
            matrix = _np.zeros((len(order), horizon), dtype=_np.bool_)
            _scatter_columns(
                matrix, enumerate(sets), index,
                on_unknown=lambda j, p: unknown.append((j + 1, p)),
            )
            return cls(graph, horizon, matrix, unknown=unknown)

        ids: Dict[FrozenSet[Node], int] = {}
        uniques: List[FrozenSet[Node]] = []
        col_ids: List[int] = []
        for happy in sets:
            fs = happy if isinstance(happy, frozenset) else frozenset(happy)
            sid = ids.get(fs)
            if sid is None:
                sid = len(uniques)
                ids[fs] = sid
                uniques.append(fs)
            col_ids.append(sid)
        distinct = _np.zeros((len(order), max(len(uniques), 1)), dtype=_np.bool_)
        unknown_members: List[List[Node]] = [[] for _ in uniques]
        _scatter_columns(
            distinct, enumerate(uniques), index,
            on_unknown=lambda sid, p: unknown_members[sid].append(p),
        )
        if any(unknown_members):
            for j, sid in enumerate(col_ids):
                for p in unknown_members[sid]:
                    unknown.append((j + 1, p))
        matrix = distinct[:, _np.asarray(col_ids, dtype=_np.intp)]
        return cls(graph, horizon, matrix, unknown=unknown)

    # -- per-node queries ----------------------------------------------------------
    def row_index(self, node: Node) -> int:
        """Row of ``node`` in the matrix (KeyError for unknown nodes)."""
        return self._index[node]

    def appearances(self, node: Node) -> List[int]:
        """Sorted 1-indexed holidays at which ``node`` is happy."""
        return (_np.flatnonzero(self._matrix[self._index[node]]) + 1).tolist()

    def count(self, node: Node) -> int:
        """Number of holidays within the horizon at which ``node`` is happy."""
        return int(self._matrix[self._index[node]].sum())

    def gaps(self, node: Node) -> List[int]:
        """Unhappiness interval lengths, identical in semantics to
        :meth:`repro.core.metrics.HappinessTrace.gaps`: the run before the
        first appearance, runs between consecutive appearances, and the run
        after the last appearance; ``[horizon]`` for a never-happy node."""
        times = self.appearances(node)
        if not times:
            return [self.horizon]
        gaps = [times[0] - 1]
        gaps.extend(b - a - 1 for a, b in zip(times, times[1:]))
        gaps.append(self.horizon - times[-1])
        return gaps

    def mul(self, node: Node) -> int:
        """Maximum unhappiness length of ``node`` within the horizon."""
        row = self._matrix[self._index[node]]
        idx = _np.flatnonzero(row)
        if idx.size == 0:
            return self.horizon
        # run-length encoding of the zero runs via diff over the padded
        # appearance positions: [-1] + idx + [horizon]
        before = int(idx[0])
        after = self.horizon - 1 - int(idx[-1])
        between = int(_np.diff(idx).max() - 1) if idx.size > 1 else 0
        return max(before, after, between)

    def appearance_diffs(self, node: Node) -> List[int]:
        """Differences between consecutive appearances (empty if < 2)."""
        times = self.appearances(node)
        return [b - a for a, b in zip(times, times[1:])]

    def distinct_appearance_diffs(self, node: Node) -> List[int]:
        """Sorted distinct inter-appearance differences of ``node``.

        This is the summary the periodicity certifier needs — it never
        requires the full O(appearances) diff list, which is what lets the
        streaming engine answer the same question at bounded memory.
        """
        idx = _np.flatnonzero(self._matrix[self._index[node]])
        if idx.size < 2:
            return []
        return _np.unique(_np.diff(idx)).tolist()

    def observed_period(self, node: Node) -> Optional[int]:
        """The constant inter-appearance difference, or None (matches the
        reference: fewer than two appearances is "insufficient evidence")."""
        idx = _np.flatnonzero(self._matrix[self._index[node]])
        if idx.size < 2:
            return None
        diffs = _np.diff(idx)
        first = int(diffs[0])
        return first if bool((diffs == first).all()) else None

    def happiness_rate(self, node: Node) -> float:
        """Fraction of observed holidays at which ``node`` was happy."""
        return self.count(node) / self.horizon

    # -- bulk queries --------------------------------------------------------------
    # These answer from one whole-matrix sweep rather than a few numpy calls
    # per node: each such call releases the GIL, so per-node loops in
    # concurrent threads (the serve handlers) hand it back and forth across
    # CPUs hundreds of times per query.
    def _numpy_summary(self):
        if self._summary is None:
            step = max(1, _SWEEP_BLOCK_CELLS // self.horizon)
            blocks = [
                _row_summary_numpy(self._matrix[lo:lo + step], self.horizon)[:5]
                for lo in range(0, len(self._order), step)
            ]
            self._summary = tuple(_np.concatenate(arrays) for arrays in zip(*blocks))
        return self._summary

    def muls(self) -> Dict[Node, int]:
        """``{node: mul(node)}`` for every node, in graph order."""
        if not self._order:
            return {}
        counts, first, last, dmax, _ = self._numpy_summary()
        muls = _muls_numpy(counts, first, last, dmax, self.horizon)
        return dict(zip(self._order, muls.tolist()))

    def all_gaps(self) -> Dict[Node, List[int]]:
        """``{node: gap list}`` for every node."""
        return {p: self.gaps(p) for p in self._order}

    def observed_periods(self) -> Dict[Node, Optional[int]]:
        """``{node: observed period or None}`` for every node."""
        if not self._order:
            return {}
        counts, _, _, dmax, dmin = self._numpy_summary()
        periodic = ((counts >= 2) & (dmax == dmin)).tolist()
        return {
            p: d if periodic[i] else None
            for i, (p, d) in enumerate(zip(self._order, dmax.tolist()))
        }

    def happiness_rates(self) -> Dict[Node, float]:
        """``{node: happiness rate}`` for every node."""
        counts = self._matrix.sum(axis=1)
        return {p: int(counts[i]) / self.horizon for i, p in enumerate(self._order)}

    # -- column / edge queries -----------------------------------------------------
    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        """The recorded happy set at ``holiday`` (known nodes only)."""
        if not (1 <= holiday <= self.horizon):
            raise ValueError(f"holiday {holiday} outside recorded horizon 1..{self.horizon}")
        col = _np.flatnonzero(self._matrix[:, holiday - 1])
        return frozenset(self._order[i] for i in col)

    def edge_collisions(self, u: Node, v: Node) -> List[int]:
        """Holidays at which ``u`` and ``v`` are simultaneously happy.

        This is the adjacency-masked column test: a single vectorized AND of
        the two rows replaces a per-holiday membership scan.
        """
        i, j = self._index[u], self._index[v]
        both = self._matrix[i] & self._matrix[j]
        return (_np.flatnonzero(both) + 1).tolist()

    def conflicting_holidays(
        self, edges: Optional[Iterable[Tuple[Node, Node]]] = None
    ) -> Dict[int, List[Tuple[Node, Node]]]:
        """``{holiday: [(u, v), ...]}`` over ``edges`` (default: the graph's
        edges) with collisions, each holiday's pairs in ``edges`` order.

        One fancy-indexed AND covers a block of edges at once.
        """
        pairs = list(self.graph.edges() if edges is None else edges)
        out: Dict[int, List[Tuple[Node, Node]]] = {}
        us = _np.asarray([self._index[u] for u, _ in pairs], dtype=_np.intp)
        vs = _np.asarray([self._index[v] for _, v in pairs], dtype=_np.intp)
        step = max(1, _SWEEP_BLOCK_CELLS // self.horizon)
        for lo in range(0, len(pairs), step):
            both = self._matrix[us[lo:lo + step]] & self._matrix[vs[lo:lo + step]]
            # row-major: edge by edge, holidays ascending within each edge
            hit_edges, hit_cols = _np.nonzero(both)
            for e, t in zip(hit_edges.tolist(), hit_cols.tolist()):
                out.setdefault(t + 1, []).append(tuple(pairs[lo + e]))
        return out


class TraceStream:
    """Chunked view of a schedule's occupancy trace: ``(start, TraceMatrix)``
    blocks of at most ``chunk`` holidays, covering ``1..horizon`` in order.

    Each yielded block is an ordinary :class:`TraceMatrix` whose *local*
    column ``j`` (holiday ``j + 1`` inside the block) covers *global*
    holiday ``start + j``; ``block.unknown`` holidays are local too.  The
    stream is re-iterable — every ``__iter__`` rebuilds blocks from the
    schedule — and only one block is ever resident, so memory is
    ``O(n × chunk)`` regardless of horizon.

    Fast paths, chosen once at construction:

    * :class:`~repro.core.schedule.PeriodicSchedule` (covering exactly the
      graph's nodes) — every chunk comes straight from the ``(period,
      phase)`` table shifted to the chunk's window; no prefix exists at any
      point.  :class:`StreamedTrace` builds such chunks only for
      per-appearance queries: its summaries and legality scans of a
      periodic schedule are closed form.
    * cyclic :class:`~repro.core.schedule.ExplicitSchedule` — one cycle is
      materialised once, then every chunk is a rotated tiling of it.
    * everything else — one chunk of happy sets is materialised at a time
      (for :class:`~repro.core.schedule.GeneratorSchedule` the schedule's
      own memoisation still grows with the horizon; see the module notes).
    """

    def __init__(
        self,
        schedule: ScheduleOrSets,
        graph: ConflictGraph,
        horizon: int,
        chunk: Optional[int] = None,
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon!r}")
        self.chunk = DEFAULT_CHUNK if chunk is None else int(chunk)
        if self.chunk < 1:
            raise ValueError(f"chunk width must be >= 1, got {chunk!r}")
        self.schedule = schedule
        self.graph = graph
        self.horizon = horizon
        self._cycle: Optional[TraceMatrix] = None
        if isinstance(schedule, PeriodicSchedule) and set(schedule.assignments) == set(graph.nodes()):
            self._kind = "periodic"
        elif isinstance(schedule, ExplicitSchedule) and schedule.is_periodic() and len(schedule) > 0:
            self._kind = "cyclic"
        else:
            self._kind = "sets"
            if not isinstance(schedule, Schedule) and len(schedule) < horizon:
                raise ValueError(
                    f"explicit sequence has only {len(schedule)} holidays, "
                    f"requested horizon {horizon}"
                )

    def num_chunks(self) -> int:
        """Number of blocks the stream yields."""
        return -(-self.horizon // self.chunk)

    def __iter__(self) -> Iterator[Tuple[int, TraceMatrix]]:
        start = 1
        while start <= self.horizon:
            width = min(self.chunk, self.horizon - start + 1)
            yield start, self.block(start, width)
            start += width

    def block(self, start: int, width: int) -> TraceMatrix:
        """Build the single block covering holidays ``start..start+width-1``."""
        if self._kind == "periodic":
            return TraceMatrix._from_periodic(self.schedule, self.graph, width, start=start)
        if self._kind == "cyclic":
            return self._cyclic_block(start, width)
        return TraceMatrix._from_sets(self._window_sets(start, width), self.graph, width)

    def _window_sets(self, start: int, width: int) -> Sequence[FrozenSet[Node]]:
        if isinstance(self.schedule, Schedule):
            return self.schedule.prefix(width, start=start)
        return [frozenset(s) for s in self.schedule[start - 1 : start - 1 + width]]

    def _cycle_base(self) -> TraceMatrix:
        """The one materialised cycle every cyclic chunk is tiled from."""
        if self._cycle is None:
            length = len(self.schedule)
            cycle = [self.schedule.happy_set(t) for t in range(1, length + 1)]
            self._cycle = TraceMatrix._from_sets(cycle, self.graph, length)
        return self._cycle

    def _cyclic_block(self, start: int, width: int) -> TraceMatrix:
        base = self._cycle_base()
        length = base.horizon
        offset = (start - 1) % length
        unknown: List[Tuple[int, Node]] = []
        for t0, p in base.unknown:
            # occurrences of cycle holiday t0 within [start, start + width - 1]
            t = t0 + max(0, -(-(start - t0) // length)) * length
            while t <= start + width - 1:
                unknown.append((t - start + 1, p))
                t += length
        unknown.sort(key=lambda pair: pair[0])
        cols = (offset + _np.arange(width, dtype=_np.intp)) % length
        block = _np.ascontiguousarray(base._matrix[:, cols])
        return TraceMatrix(self.graph, width, block, unknown=unknown)


class _NodeStreamStats:
    """Per-node run-length state carried across chunk boundaries.

    The state is an *associative* summary of an ascending appearance
    sequence: :meth:`absorb` folds one chunk's positions in at the right
    edge, and :meth:`merge` combines two summaries of adjacent holiday
    ranges — which is what lets a parallel scan evaluate contiguous blocks
    of chunks in worker processes and combine the partial summaries in spec
    order, yielding exactly the state a serial left-to-right pass builds.
    Instances are plain ``__slots__`` objects and pickle across process
    boundaries as-is.
    """

    __slots__ = ("count", "first", "last", "max_diff", "diffs")

    def __init__(self) -> None:
        self.count = 0        # appearances seen so far
        self.first = 0        # global holiday of the first appearance
        self.last = 0         # global holiday of the latest appearance
        self.max_diff = 0     # largest inter-appearance difference
        self.diffs: set = set()  # distinct inter-appearance differences

    def absorb(self, positions: Sequence[int]) -> None:
        """Fold a chunk's (ascending, global) appearance holidays in."""
        if not positions:
            return
        if self.count:
            boundary = positions[0] - self.last
            self.diffs.add(boundary)
            if boundary > self.max_diff:
                self.max_diff = boundary
        else:
            self.first = positions[0]
        for a, b in zip(positions, positions[1:]):
            d = b - a
            self.diffs.add(d)
            if d > self.max_diff:
                self.max_diff = d
        self.count += len(positions)
        self.last = positions[-1]

    def merge(self, later: "_NodeStreamStats") -> None:
        """Fold in the summary of the holiday range immediately after ours.

        Equivalent to having absorbed ``later``'s positions directly: the
        only information spanning the boundary is the gap between our last
        appearance and ``later``'s first, which becomes one more observed
        inter-appearance difference.
        """
        if later.count == 0:
            return
        if self.count:
            boundary = later.first - self.last
            self.diffs.add(boundary)
            if boundary > self.max_diff:
                self.max_diff = boundary
        else:
            self.first = later.first
        self.diffs.update(later.diffs)
        if later.max_diff > self.max_diff:
            self.max_diff = later.max_diff
        self.count += later.count
        self.last = later.last


def _fold_summary_block(
    start: int,
    block: TraceMatrix,
    stats: List[_NodeStreamStats],
    edge_rows: Sequence[Tuple[int, int]],
    collisions: List[List[int]],
    unknown: List[Tuple[int, Node]],
) -> None:
    """Fold one ``(global start, block)`` pair into summary accumulators.

    This is the per-chunk body shared verbatim by the serial summary pass
    and the parallel block workers, so both produce identical state by
    construction.  It inlines :meth:`_NodeStreamStats.absorb` over index
    arrays instead of Python position lists.
    """
    for t, p in block.unknown:
        unknown.append((start + t - 1, p))
    matrix = block._matrix
    for i, node_stats in enumerate(stats):
        idx = _np.flatnonzero(matrix[i])
        if idx.size == 0:
            continue
        first = start + int(idx[0])
        if node_stats.count:
            boundary = first - node_stats.last
            node_stats.diffs.add(boundary)
            if boundary > node_stats.max_diff:
                node_stats.max_diff = boundary
        else:
            node_stats.first = first
        if idx.size > 1:
            diffs = _np.diff(idx)
            dmax = int(diffs.max())
            if dmax > node_stats.max_diff:
                node_stats.max_diff = dmax
            if dmax == int(diffs.min()):  # constant — the common periodic case
                node_stats.diffs.add(dmax)
            else:
                node_stats.diffs.update(_np.unique(diffs).tolist())
        node_stats.count += int(idx.size)
        node_stats.last = start + int(idx[-1])
    for k, (i, j) in enumerate(edge_rows):
        both = matrix[i] & matrix[j]
        if both.any():
            collisions[k].extend((start + _np.flatnonzero(both)).tolist())


def _fold_legality_block(
    start: int,
    block: TraceMatrix,
    edges: Sequence[Tuple[Node, Node]],
    edge_rows: Sequence[Tuple[int, int]],
    unknown_by_holiday: Dict[int, List[Node]],
    collisions: Dict[int, List[Tuple[Node, Node]]],
) -> None:
    """Fold one block's legality evidence (against an arbitrary edge list)
    into the per-holiday dictionaries — shared by the serial legality scan
    and the parallel legality block workers."""
    for t, p in block.unknown:
        unknown_by_holiday.setdefault(start + t - 1, []).append(p)
    for (u, v), (i, j) in zip(edges, edge_rows):
        both = block._matrix[i] & block._matrix[j]
        hits = (start + _np.flatnonzero(both)).tolist() if both.any() else []
        for t in hits:
            collisions.setdefault(t, []).append((u, v))


def _periodic_node_stats(slot: SlotAssignment, horizon: int) -> _NodeStreamStats:
    """The summary a chunk fold builds for one perfectly periodic node, by
    arithmetic: the node is happy exactly at ``first, first + τ, ...``, so
    every inter-appearance difference is ``τ``."""
    stats = _NodeStreamStats()
    first = slot.next_happy(1)
    if first <= horizon:
        stats.count = (horizon - first) // slot.period + 1
        stats.first = first
        stats.last = first + (stats.count - 1) * slot.period
        if stats.count >= 2:
            stats.max_diff = slot.period
            stats.diffs = {slot.period}
    return stats


def _residue_hits(collision: Optional[Tuple[int, int]], last: int) -> range:
    """The holidays up to ``last`` of a CRT residue class ``(first,
    modulus)`` from :meth:`PeriodicSchedule._congruence_class` (None: no
    holiday)."""
    if collision is None:
        return range(0)
    first, modulus = collision
    return range(first, last + 1, modulus)


def _chunk_blocks(num_chunks: int, parts: int) -> List[Tuple[int, int]]:
    """Split chunk indices ``0..num_chunks-1`` into at most ``parts``
    contiguous ``(first_chunk, chunk_count)`` blocks of near-equal size."""
    parts = max(1, min(parts, num_chunks))
    base, extra = divmod(num_chunks, parts)
    blocks: List[Tuple[int, int]] = []
    first = 0
    for b in range(parts):
        count = base + (1 if b < extra else 0)
        blocks.append((first, count))
        first += count
    return blocks


class _CheckpointPlan:
    """Per-chunk resume points of a checkpointable generator schedule.

    The parent-side half of the checkpoint protocol: as the (inherently
    sequential) generator is run forward, :meth:`ensure` snapshots its
    state at every chunk boundary into picklable
    :class:`~repro.core.schedule.GeneratorCheckpoint` handles.  Handle
    ``k`` resumes generation at holiday ``k·chunk + 1``, so any worker —
    or any later serial pass — can rebuild chunk ``k`` without replaying
    the prefix before it.  Capture is incremental: the parallel scans
    snapshot just far enough to submit each block and keep advancing while
    workers fold, and the serial scan snapshots as a side effect of its
    own forward pass, so ``jobs=1`` and ``jobs=N`` traces end up with the
    same replay capability (part of the determinism contract).
    """

    def __init__(self, schedule: GeneratorSchedule, chunk: int, num_chunks: int) -> None:
        self.schedule = schedule
        self.chunk = chunk
        self.num_chunks = num_chunks
        self.handles: List[GeneratorCheckpoint] = []

    @property
    def complete(self) -> bool:
        """True once every chunk has a resume handle."""
        return len(self.handles) == self.num_chunks

    def ensure(self, chunk_index: int) -> None:
        """Capture handles for chunks ``0..chunk_index``, advancing the
        generator to each boundary (its frontier must not be past the next
        uncaptured boundary — true for any in-order pass)."""
        while len(self.handles) <= chunk_index:
            boundary = len(self.handles) * self.chunk
            if self.schedule.frontier() < boundary:
                self.schedule.happy_set(boundary)  # generate up to the boundary
            self.handles.append(self.schedule.checkpoint_handle(boundary))

    def ensure_all(self) -> None:
        """Capture the remaining handles (one full parent forward pass)."""
        self.ensure(self.num_chunks - 1)


def _resume_payload_schedule(schedule) -> ScheduleOrSets:
    """Worker-side half of the checkpoint protocol: payloads may carry a
    :class:`~repro.core.schedule.GeneratorCheckpoint` instead of a schedule."""
    if isinstance(schedule, GeneratorCheckpoint):
        return schedule.resume()
    return schedule


def _summary_block_worker(payload) -> Tuple[List[_NodeStreamStats], List[List[int]], List[Tuple[int, Node]]]:
    """Process-pool entry point: build and scan one contiguous chunk block.

    ``payload`` is ``(schedule, graph, horizon, chunk, first_chunk,
    chunk_count, offset)`` where ``schedule`` is either the full schedule
    (periodic/cyclic/explicit — the offset-aware fast paths rebuild any
    chunk from it directly), a :class:`~repro.core.schedule.GeneratorCheckpoint`
    resuming a generator at the block's first boundary, or, for raw
    happy-set sequences, just the slice covering this block with ``offset``
    holding the global holiday shift.
    Returns the block's partial summary: per-node stats, per-edge collision
    holidays (edge order = ``graph.edges()``), and global unknown pairs.
    """
    schedule, graph, horizon, chunk, first_chunk, chunk_count, offset = payload
    schedule = _resume_payload_schedule(schedule)
    stream = TraceStream(schedule, graph, horizon, chunk=chunk)
    order = graph.nodes()
    index = {p: i for i, p in enumerate(order)}
    edges = graph.edges()
    edge_rows = [(index[u], index[v]) for u, v in edges]
    stats = [_NodeStreamStats() for _ in order]
    collisions: List[List[int]] = [[] for _ in edges]
    unknown: List[Tuple[int, Node]] = []
    for k in range(first_chunk, first_chunk + chunk_count):
        start = k * chunk + 1
        width = min(chunk, horizon - start + 1)
        block = stream.block(start, width)
        _fold_summary_block(offset + start, block, stats, edge_rows, collisions, unknown)
    return stats, collisions, unknown


def _legality_block_worker(payload) -> Tuple[Dict[int, List[Node]], Dict[int, List[Tuple[Node, Node]]]]:
    """Process-pool entry point: legality-scan one contiguous chunk block.

    Same payload convention as :func:`_summary_block_worker` plus the edge
    list to test (which may differ from the trace graph's own edges), its
    precomputed row pairs, and the ``fail_fast`` flag.  With ``fail_fast``
    the worker stops after the first chunk *in its block* containing any
    violation, so the returned dictionaries hold exactly that chunk's
    evidence — the same truncation a serial scan applies.
    """
    (schedule, graph, horizon, chunk, first_chunk, chunk_count, offset,
     edges, edge_rows, fail_fast) = payload
    schedule = _resume_payload_schedule(schedule)
    stream = TraceStream(schedule, graph, horizon, chunk=chunk)
    unknown_by_holiday: Dict[int, List[Node]] = {}
    collisions: Dict[int, List[Tuple[Node, Node]]] = {}
    for k in range(first_chunk, first_chunk + chunk_count):
        start = k * chunk + 1
        width = min(chunk, horizon - start + 1)
        block = stream.block(start, width)
        _fold_legality_block(
            offset + start, block, edges, edge_rows, unknown_by_holiday, collisions
        )
        if fail_fast and (unknown_by_holiday or collisions):
            break
    return unknown_by_holiday, collisions


def _appearance_block_worker(payload) -> List[List[int]]:
    """Process-pool entry point: collect per-row appearance holidays of one
    contiguous chunk block.

    Same payload convention as :func:`_summary_block_worker` plus the list
    of row indices to collect.  Returns, for each requested row in order,
    the ascending *global* appearance holidays within the block — the
    per-appearance analogue of the partial summaries: appending block
    results in block order reproduces exactly the serial pass's lists
    (concatenation of ascending runs over adjacent holiday ranges is the
    associative merge here).
    """
    (schedule, graph, horizon, chunk, first_chunk, chunk_count, offset, rows) = payload
    schedule = _resume_payload_schedule(schedule)
    stream = TraceStream(schedule, graph, horizon, chunk=chunk)
    out: List[List[int]] = [[] for _ in rows]
    for k in range(first_chunk, first_chunk + chunk_count):
        start = k * chunk + 1
        width = min(chunk, horizon - start + 1)
        block = stream.block(start, width)
        for slot, row in enumerate(rows):
            out[slot].extend((offset + start + _np.flatnonzero(block._matrix[row])).tolist())
    return out


class StreamedTrace:
    """Streaming counterpart of :class:`TraceMatrix`: same query API, chunked
    evaluation, ``O(n × chunk)`` resident memory.

    The first summary query triggers **one pass** over a
    :class:`TraceStream`, accumulating per-node gap/run-length state
    (:class:`_NodeStreamStats`) and per-edge collision holidays across chunk
    boundaries; every summary query — ``muls``/``observed_periods``/
    ``happiness_rates``/``edge_collisions``/``unknown`` — is then answered
    from that cached state, so the metric suite and the validator share a
    single pass exactly the way they share one dense matrix.

    Queries that *return* per-appearance data (``appearances``, ``gaps``,
    ``all_gaps``) stream a dedicated pass and are O(appearances) in their
    output — inherent to the question, not to the engine.  Differential
    tests (``tests/core/test_stream.py``) assert exact agreement with the
    dense engine on every query and chunk width.

    Perfectly periodic schedules skip the chunks for everything but those
    per-appearance queries: the summary state is filled in closed form
    (:meth:`_scan_closed_form`), and ``legality_scan`` against any edge
    list, with or without ``fail_fast``, and ``edge_collisions`` for
    non-edges answer by per-edge CRT — returning exactly what the chunk
    scan would, down to the ``fail_fast`` chunk boundary
    (``tests/core/test_periodic_closed_form.py``).  ``jobs`` has no
    effect on them.

    Parallelism: with ``jobs > 1`` the summary pass, the legality scan
    *and* the dedicated per-appearance passes split the chunk sequence
    into contiguous blocks evaluated on worker processes and merged in
    order — possible because every accumulator involved is associative and
    the periodic/cyclic fast paths can build any chunk from ``(schedule,
    chunk range)`` alone.  Raw happy-set sequences ship each worker only
    its block's slice.  Generator-backed schedules — whose future depends
    on their past — parallelise when they implement the **checkpoint
    protocol** (:class:`~repro.core.schedule.GeneratorSchedule` built with
    ``checkpoint=``/``restore=``): the parent runs the generator forward,
    snapshotting its state at every chunk boundary into a
    :class:`_CheckpointPlan`, and each worker resumes a picklable
    :class:`~repro.core.schedule.GeneratorCheckpoint` to regenerate its
    own block while the parent keeps generating ahead of the pool.  The
    cached per-chunk handles double as replay points, so second passes
    (``appearances``/``all_gaps``/``happy_set``) work even on windowed
    generators whose history was evicted.  A generator schedule *without*
    the protocol (or with ``checkpoint=False`` on the trace) still runs
    the serial scan — with one logged warning naming the schedule and the
    reason when ``jobs > 1`` silently degrades.  Determinism contract:
    ``jobs`` never changes any result — ``jobs=1`` and ``jobs=N`` produce
    identical summaries, reports and violation lists, so ``jobs`` is purely
    a wall-clock knob (asserted by ``tests/core/test_stream_parallel.py``
    and ``tests/core/test_checkpoint.py``).
    """

    #: representation tag, mirroring :attr:`TraceMatrix.mode`.
    mode = "stream"

    def __init__(
        self,
        schedule: ScheduleOrSets,
        graph: ConflictGraph,
        horizon: int,
        chunk: Optional[int] = None,
        jobs: int = 1,
        checkpoint: bool = True,
    ) -> None:
        self.graph = graph
        self.horizon = horizon
        self.chunk = DEFAULT_CHUNK if chunk is None else int(chunk)
        self.jobs = int(jobs)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        self.schedule = schedule
        self.checkpoint = bool(checkpoint)
        self._order: List[Node] = graph.nodes()
        self._index: Dict[Node, int] = {p: i for i, p in enumerate(self._order)}
        # one re-iterable stream shared by every pass, so the cyclic fast
        # path materialises its cycle once, not once per query; also
        # validates horizon/chunk eagerly
        self._source = TraceStream(schedule, graph, horizon, chunk=self.chunk)
        self._stats: Optional[List[_NodeStreamStats]] = None
        self._collisions: Optional[Dict[Tuple[Node, Node], List[int]]] = None
        self._unknown: Optional[List[Tuple[int, Node]]] = None
        self._plan: Optional[_CheckpointPlan] = None
        self._warned_serial = False

    def _stream(self) -> TraceStream:
        return self._source

    # -- the shared summary pass ---------------------------------------------------
    def _block_positions(self, start: int, block: TraceMatrix, row: int) -> List[int]:
        """Ascending *global* appearance holidays of one row within a block."""
        return (start + _np.flatnonzero(block._matrix[row])).tolist()

    def _parallel_source(self) -> Optional[ScheduleOrSets]:
        """What a worker process can rebuild blocks from, or None when the
        scan cannot be split.

        Periodic and cyclic schedules are picklable and random-access, so
        workers receive the schedule itself and rebuild any chunk through
        the offset-aware fast paths; raw happy-set sequences — and
        non-cyclic explicit prefixes, which are just a validated list —
        are sliceable, so each worker receives only its block's slice
        instead of ``O(blocks)`` copies of the whole prefix.  Everything
        else — notably :class:`~repro.core.schedule.GeneratorSchedule`,
        whose future depends on its past — must be run forward in one
        process; *checkpointable* generators still parallelise, through
        :meth:`_checkpoint_plan` rather than this method.
        """
        if isinstance(self.schedule, ExplicitSchedule):
            if self.schedule.is_periodic():
                return self.schedule  # one small cycle; workers tile it
            if len(self.schedule) >= self.horizon:
                return self.schedule._sets  # validated frozensets; slice per block
            return None  # too-short prefix: fail serially, as dense would
        if isinstance(self.schedule, PeriodicSchedule):
            return self.schedule
        if not isinstance(self.schedule, Schedule):
            return self.schedule  # raw sequence: workers get their slice
        return None

    def _checkpoint_plan(self) -> Optional[_CheckpointPlan]:
        """The per-chunk checkpoint plan for a checkpointable generator
        schedule, or None when the schedule has no checkpoint support, the
        trace was built with ``checkpoint=False``, or the generator was
        already advanced before this trace could snapshot holiday 0
        (generator state cannot be rewound)."""
        if self._plan is not None:
            return self._plan
        if not self.checkpoint:
            return None
        schedule = self.schedule
        if not (isinstance(schedule, GeneratorSchedule) and schedule.checkpointable):
            return None
        if schedule.frontier() != 0:
            return None
        self._plan = _CheckpointPlan(schedule, self.chunk, self._source.num_chunks())
        return self._plan

    def _parallel_plan(self) -> Optional[Union[ScheduleOrSets, _CheckpointPlan]]:
        """What a parallel pass can fan blocks out from — a direct source
        (:meth:`_parallel_source`), a checkpoint plan, or None when the pass
        must stay serial.  Warns once per trace when ``jobs > 1`` silently
        degrades to a serial scan for lack of checkpoint support."""
        if self.jobs <= 1 or self._source.num_chunks() <= 1:
            return None
        source = self._parallel_source()
        if source is not None:
            return source
        plan = self._checkpoint_plan()
        if plan is not None:
            return plan
        if not self._warned_serial and self.checkpoint:
            self._warned_serial = True
            _LOG.warning(
                "jobs=%d has no effect for %s: the schedule must be generated "
                "forward and does not implement the checkpoint/restore protocol "
                "(GeneratorSchedule checkpoint=/restore=); running the serial "
                "chunk scan instead",
                self.jobs,
                self.schedule.describe() if isinstance(self.schedule, Schedule)
                else type(self.schedule).__name__,
            )
        return None

    def _block_payload(self, source, first_chunk: int, chunk_count: int) -> Tuple:
        """The ``(schedule, graph, horizon, chunk, first, count, offset)``
        tuple one worker needs to rebuild and scan its block.

        For a :class:`_CheckpointPlan` this advances the parent's generator
        to the block's first boundary and ships the resume handle — called
        in block order from the submission loops, the parent snapshots just
        enough to keep submitting while earlier workers already fold.
        """
        if isinstance(source, _CheckpointPlan):
            source.ensure(first_chunk)
            return (source.handles[first_chunk], self.graph, self.horizon, self.chunk,
                    first_chunk, chunk_count, 0)
        if isinstance(source, Schedule):
            return (source, self.graph, self.horizon, self.chunk, first_chunk, chunk_count, 0)
        lo = first_chunk * self.chunk
        hi = min(self.horizon, (first_chunk + chunk_count) * self.chunk)
        return (list(source[lo:hi]), self.graph, hi - lo, self.chunk, 0, chunk_count, lo)

    def _serial_blocks(self) -> Iterator[Tuple[int, TraceMatrix]]:
        """One in-order ``(start, block)`` pass over the stream, snapshotting
        per-chunk checkpoints as a side effect when the schedule supports
        them — so a serial first pass leaves the same replay handles behind
        as a parallel one."""
        plan = self._checkpoint_plan()
        stream = self._stream()
        for k in range(self._source.num_chunks()):
            start = k * self.chunk + 1
            width = min(self.chunk, self.horizon - start + 1)
            if (plan is not None and len(plan.handles) == k
                    and plan.schedule.frontier() == k * self.chunk):
                plan.ensure(k)  # frontier sits exactly at the boundary
            yield start, stream.block(start, width)

    def _replay_handles(self) -> Optional[List[GeneratorCheckpoint]]:
        """Complete per-chunk resume handles, or None when unavailable."""
        if self._plan is not None and self._plan.complete:
            return self._plan.handles
        return None

    def _single_block(self, start: int, width: int) -> TraceMatrix:
        """Build the one block covering ``start..start+width-1``, resuming a
        checkpoint when the generator's own history was already evicted."""
        schedule = self.schedule
        if isinstance(schedule, GeneratorSchedule) and schedule.evicted_below >= start:
            handles = self._replay_handles()
            if handles is not None:
                resumed = handles[(start - 1) // self.chunk].resume()
                return TraceMatrix._from_sets(resumed.prefix(width, start=start), self.graph, width)
        return self._stream().block(start, width)

    def _pass_blocks(self) -> Iterator[Tuple[int, TraceMatrix]]:
        """``(start, block)`` pairs for a dedicated (possibly repeated)
        serial pass: windowed generators whose history was evicted replay
        chunk-by-chunk from the cached checkpoints; everything else
        re-streams directly."""
        schedule = self.schedule
        if isinstance(schedule, GeneratorSchedule) and schedule.evicted_below > 0:
            handles = self._replay_handles()
            if handles is not None:
                for k in range(self._source.num_chunks()):
                    start = k * self.chunk + 1
                    width = min(self.chunk, self.horizon - start + 1)
                    resumed = handles[k].resume()
                    yield start, TraceMatrix._from_sets(
                        resumed.prefix(width, start=start), self.graph, width
                    )
                return
        yield from self._serial_blocks()

    def _scan(self) -> None:
        if self._stats is not None:
            return
        if self._source._kind == "periodic":
            self._scan_closed_form()
            return
        source = self._parallel_plan()
        if source is not None:
            self._scan_parallel(source)
            return
        stats = [_NodeStreamStats() for _ in self._order]
        edges = self.graph.edges()
        edge_rows = [(self._index[u], self._index[v]) for u, v in edges]
        collisions: List[List[int]] = [[] for _ in edges]
        unknown: List[Tuple[int, Node]] = []
        for start, block in self._pass_blocks():
            _fold_summary_block(start, block, stats, edge_rows, collisions, unknown)
        self._stats = stats
        self._collisions = {edge: collisions[k] for k, edge in enumerate(edges)}
        self._unknown = unknown

    def _scan_closed_form(self) -> None:
        """The summary pass of a perfectly periodic schedule, in closed form.

        Fills exactly the state the chunk fold would — per-node
        :class:`_NodeStreamStats` by arithmetic on ``(period, phase)``,
        per-edge collisions as the edge's CRT residue class up to the
        horizon (non-empty only for a schedule built with
        ``check_conflicts=False``), and no unknown nodes, since the table
        covers exactly the graph — in ``O(n + m + collisions)`` with no
        chunk ever built.
        """
        slots = self.schedule.assignments
        self._stats = [_periodic_node_stats(slots[p], self.horizon) for p in self._order]
        self._collisions = {
            (u, v): list(self._periodic_hits(u, v)) for u, v in self.graph.edges()
        }
        self._unknown = []

    def _periodic_hits(self, u: Node, v: Node) -> range:
        """Holidays within the horizon at which periodic nodes ``u`` and
        ``v`` are both happy."""
        slots = self.schedule.assignments
        return _residue_hits(PeriodicSchedule._congruence_class(slots[u], slots[v]), self.horizon)

    def _periodic_legality(
        self, edges: Sequence[Tuple[Node, Node]], fail_fast: bool
    ) -> Dict[int, List[Tuple[Node, Node]]]:
        """Legality collisions of a periodic schedule against ``edges`` by
        per-edge CRT.  Under ``fail_fast`` only the chunk holding the
        earliest collision is reported, every edge's hits inside it — the
        evidence the chunk scan stops with."""
        slots = self.schedule.assignments
        classes = [PeriodicSchedule._congruence_class(slots[u], slots[v]) for u, v in edges]
        last = self.horizon
        if fail_fast:
            firsts = [c[0] for c in classes if c is not None and c[0] <= last]
            if not firsts:
                return {}
            # the end of the chunk holding the earliest collision; no class
            # starts before that chunk does
            last = min((min(firsts) - 1) // self.chunk * self.chunk + self.chunk, self.horizon)
        collisions: Dict[int, List[Tuple[Node, Node]]] = {}
        for (u, v), collision in zip(edges, classes):
            for t in _residue_hits(collision, last):
                collisions.setdefault(t, []).append((u, v))
        return collisions

    def _scan_parallel(self, source) -> None:
        """The summary pass, fanned out over contiguous blocks of chunks.

        Each worker returns its block's partial per-node stats, per-edge
        collision fragments and unknown pairs; the parent folds them back
        together **in block order** via the associative
        :meth:`_NodeStreamStats.merge`, which reproduces the serial
        left-to-right state exactly.  For a checkpoint plan the submission
        loop itself runs the generator forward (payload building snapshots
        each block's boundary), pipelining the sequential generation with
        the workers' folds; the remaining per-chunk replay handles are
        captured while the pool drains.
        """
        blocks = _chunk_blocks(self._source.num_chunks(), self.jobs * BLOCKS_PER_JOB)
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(blocks))) as pool:
            futures = [
                pool.submit(_summary_block_worker, self._block_payload(source, first, count))
                for first, count in blocks
            ]
            if isinstance(source, _CheckpointPlan):
                source.ensure_all()
            partials = [future.result() for future in futures]
        stats = [_NodeStreamStats() for _ in self._order]
        edges = self.graph.edges()
        collisions: List[List[int]] = [[] for _ in edges]
        unknown: List[Tuple[int, Node]] = []
        for part_stats, part_collisions, part_unknown in partials:
            for acc, part in zip(stats, part_stats):
                acc.merge(part)
            for acc_list, part_list in zip(collisions, part_collisions):
                acc_list.extend(part_list)
            unknown.extend(part_unknown)
        self._stats = stats
        self._collisions = {edge: collisions[k] for k, edge in enumerate(edges)}
        self._unknown = unknown

    @property
    def unknown(self) -> List[Tuple[int, Node]]:
        """Global ``(holiday, node)`` pairs absent from the graph."""
        self._scan()
        return self._unknown

    def _node_stats(self, node: Node) -> _NodeStreamStats:
        self._scan()
        return self._stats[self._index[node]]

    # -- per-node queries (TraceMatrix-compatible) ---------------------------------
    def row_index(self, node: Node) -> int:
        """Row of ``node`` in the chunk matrices (KeyError for unknown nodes)."""
        return self._index[node]

    def count(self, node: Node) -> int:
        """Number of holidays within the horizon at which ``node`` is happy."""
        return self._node_stats(node).count

    def mul(self, node: Node) -> int:
        """Maximum unhappiness length of ``node`` within the horizon."""
        stats = self._node_stats(node)
        if stats.count == 0:
            return self.horizon
        internal = stats.max_diff - 1 if stats.max_diff else 0
        return max(stats.first - 1, self.horizon - stats.last, internal)

    def observed_period(self, node: Node) -> Optional[int]:
        """The constant inter-appearance difference, or None."""
        stats = self._node_stats(node)
        if stats.count < 2 or len(stats.diffs) != 1:
            return None
        return next(iter(stats.diffs))

    def happiness_rate(self, node: Node) -> float:
        """Fraction of observed holidays at which ``node`` was happy."""
        return self._node_stats(node).count / self.horizon

    def distinct_appearance_diffs(self, node: Node) -> List[int]:
        """Sorted distinct inter-appearance differences of ``node``."""
        return sorted(self._node_stats(node).diffs)

    def _row_positions_parallel(self, rows: Sequence[int]) -> Optional[List[List[int]]]:
        """Per-row ascending global appearance holidays via a fanned-out
        block pass, or None when the pass must stay serial.  Block results
        concatenate in block order, so the lists are identical to a serial
        pass's (the per-appearance determinism contract)."""
        source = self._parallel_plan()
        if source is None:
            return None
        blocks = _chunk_blocks(self._source.num_chunks(), self.jobs * BLOCKS_PER_JOB)
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(blocks))) as pool:
            futures = [
                pool.submit(
                    _appearance_block_worker,
                    self._block_payload(source, first, count) + (list(rows),),
                )
                for first, count in blocks
            ]
            if isinstance(source, _CheckpointPlan):
                source.ensure_all()
            partials = [future.result() for future in futures]
        out: List[List[int]] = [[] for _ in rows]
        for part in partials:
            for slot, positions in enumerate(part):
                out[slot].extend(positions)
        return out

    def appearances(self, node: Node) -> List[int]:
        """Sorted 1-indexed holidays at which ``node`` is happy (dedicated
        streaming pass, fanned out over chunk blocks when ``jobs > 1``; the
        result itself is O(appearances))."""
        row = self._index[node]
        parallel = self._row_positions_parallel([row])
        if parallel is not None:
            return parallel[0]
        out: List[int] = []
        for start, block in self._pass_blocks():
            out.extend(self._block_positions(start, block, row))
        return out

    def appearance_diffs(self, node: Node) -> List[int]:
        """Differences between consecutive appearances (empty if < 2)."""
        times = self.appearances(node)
        return [b - a for a, b in zip(times, times[1:])]

    def gaps(self, node: Node) -> List[int]:
        """Unhappiness interval lengths, same semantics as
        :meth:`TraceMatrix.gaps`."""
        times = self.appearances(node)
        if not times:
            return [self.horizon]
        gaps = [times[0] - 1]
        gaps.extend(b - a - 1 for a, b in zip(times, times[1:]))
        gaps.append(self.horizon - times[-1])
        return gaps

    # -- bulk queries --------------------------------------------------------------
    def muls(self) -> Dict[Node, int]:
        """``{node: mul(node)}`` for every node, in graph order."""
        return {p: self.mul(p) for p in self._order}

    def observed_periods(self) -> Dict[Node, Optional[int]]:
        """``{node: observed period or None}`` for every node."""
        return {p: self.observed_period(p) for p in self._order}

    def happiness_rates(self) -> Dict[Node, float]:
        """``{node: happiness rate}`` for every node."""
        return {p: self.happiness_rate(p) for p in self._order}

    def all_gaps(self) -> Dict[Node, List[int]]:
        """``{node: gap list}`` for every node, in one streaming pass
        (fanned out over chunk blocks when ``jobs > 1``)."""
        rows = list(range(len(self._order)))
        positions = self._row_positions_parallel(rows)
        if positions is not None:
            out: Dict[Node, List[int]] = {}
            for i, p in enumerate(self._order):
                times = positions[i]
                if not times:
                    out[p] = [self.horizon]
                    continue
                node_gaps = [times[0] - 1]
                node_gaps.extend(b - a - 1 for a, b in zip(times, times[1:]))
                node_gaps.append(self.horizon - times[-1])
                out[p] = node_gaps
            return out
        gaps: List[List[int]] = [[] for _ in self._order]
        prev = [0] * len(self._order)
        for start, block in self._pass_blocks():
            for i in range(len(self._order)):
                acc, before = gaps[i], prev[i]
                for t in self._block_positions(start, block, i):
                    acc.append(t - before - 1)
                    before = t
                prev[i] = before
        for i in range(len(self._order)):
            gaps[i].append(self.horizon - prev[i])
        return {p: gaps[i] for i, p in enumerate(self._order)}

    # -- column / edge queries -----------------------------------------------------
    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        """The recorded happy set at ``holiday`` — builds only the one chunk
        containing it."""
        if not (1 <= holiday <= self.horizon):
            raise ValueError(f"holiday {holiday} outside recorded horizon 1..{self.horizon}")
        start = holiday - (holiday - 1) % self.chunk
        width = min(self.chunk, self.horizon - start + 1)
        block = self._single_block(start, width)
        return block.happy_set(holiday - start + 1)

    def edge_collisions(self, u: Node, v: Node) -> List[int]:
        """Holidays at which ``u`` and ``v`` are simultaneously happy.

        Pairs that are edges of the trace's own graph come from the cached
        summary pass; any other pair gets its CRT residue class on a
        periodic schedule and a dedicated per-chunk row-AND scan otherwise.
        """
        self._scan()
        for key in ((u, v), (v, u)):
            if key in self._collisions:
                return list(self._collisions[key])
        if self._source._kind == "periodic":
            return list(self._periodic_hits(u, v))
        i, j = self._index[u], self._index[v]
        out: List[int] = []
        for start, block in self._pass_blocks():
            both = block._matrix[i] & block._matrix[j]
            if both.any():
                out.extend((start + _np.flatnonzero(both)).tolist())
        return out

    def conflicting_holidays(self) -> Dict[int, List[Tuple[Node, Node]]]:
        """``{holiday: [(u, v), ...]}`` over all graph edges with collisions."""
        out: Dict[int, List[Tuple[Node, Node]]] = {}
        for u, v in self.graph.edges():
            for t in self.edge_collisions(u, v):
                out.setdefault(t, []).append((u, v))
        return out

    def legality_scan(
        self, graph: ConflictGraph, fail_fast: bool = False
    ) -> Tuple[Dict[int, List[Node]], Dict[int, List[Tuple[Node, Node]]]]:
        """Per-chunk legality evidence against ``graph``'s edges.

        Returns ``(unknown_by_holiday, collisions_by_holiday)`` with global
        holidays.  With ``fail_fast`` the stream stops after the first chunk
        containing any violation — later chunks are never built, which is
        the early-exit the streaming validator advertises.  Without
        ``fail_fast``, edges matching the trace's own graph reuse the cached
        summary pass instead of streaming again; a periodic schedule
        answers every other case by per-edge CRT, building no chunk.  With
        ``jobs > 1`` the scan fans chunk blocks out to worker processes
        (checkpointable generator schedules included, via their resume
        handles); under ``fail_fast`` the parent merges block results in
        order and cancels every outstanding block past the first violating
        chunk.
        """
        edges = graph.edges()
        if not fail_fast and edges == self.graph.edges():
            self._scan()
            unknown_by_holiday: Dict[int, List[Node]] = {}
            for t, p in self._unknown:
                unknown_by_holiday.setdefault(t, []).append(p)
            collisions: Dict[int, List[Tuple[Node, Node]]] = {}
            for u, v in edges:
                for t in self._collisions[(u, v)]:
                    collisions.setdefault(t, []).append((u, v))
            return unknown_by_holiday, collisions
        if self._source._kind == "periodic":
            return {}, self._periodic_legality(edges, fail_fast)
        edge_rows = [(self._index[u], self._index[v]) for u, v in edges]
        source = self._parallel_plan()
        if source is not None:
            return self._legality_scan_parallel(source, edges, edge_rows, fail_fast)
        unknown_by_holiday = {}
        collisions = {}
        for start, block in self._pass_blocks():
            _fold_legality_block(start, block, edges, edge_rows, unknown_by_holiday, collisions)
            if fail_fast and (unknown_by_holiday or collisions):
                break
        return unknown_by_holiday, collisions

    def _legality_scan_parallel(
        self,
        source,
        edges: Sequence[Tuple[Node, Node]],
        edge_rows: Sequence[Tuple[int, int]],
        fail_fast: bool,
    ) -> Tuple[Dict[int, List[Node]], Dict[int, List[Tuple[Node, Node]]]]:
        """Per-chunk legality evidence, fanned out over chunk blocks.

        Block results are merged strictly in block order so the per-holiday
        dictionaries come out identical to a serial scan.  Under
        ``fail_fast`` each worker already truncates at its block's first
        violating chunk, and the parent stops merging (and cancels all
        outstanding futures) at the first block that reports a violation —
        exactly the first violating chunk overall, since earlier blocks are
        merged first and came back clean.
        """
        blocks = _chunk_blocks(self._source.num_chunks(), self.jobs * BLOCKS_PER_JOB)
        unknown_by_holiday: Dict[int, List[Node]] = {}
        collisions: Dict[int, List[Tuple[Node, Node]]] = {}
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(blocks))) as pool:
            futures = [
                pool.submit(
                    _legality_block_worker,
                    self._block_payload(source, first, count)
                    + (list(edges), list(edge_rows), fail_fast),
                )
                for first, count in blocks
            ]
            if isinstance(source, _CheckpointPlan):
                source.ensure_all()
            try:
                for future in futures:
                    block_unknown, block_collisions = future.result()
                    for t, nodes in block_unknown.items():
                        unknown_by_holiday.setdefault(t, []).extend(nodes)
                    for t, pairs in block_collisions.items():
                        collisions.setdefault(t, []).extend(pairs)
                    if fail_fast and (unknown_by_holiday or collisions):
                        break
            finally:
                for future in futures:  # no-op on completed futures
                    future.cancel()
        return unknown_by_holiday, collisions


#: sentinel for "no inter-appearance difference observed" in the batched
#: min-diff array (rows with < 2 appearances); guarded by count checks, so
#: it never leaks into a query result.
_NO_DIFF = 1 << 62


def _row_summary_numpy(flat, horizon: int):
    """Per-row appearance statistics of a 2-D boolean block in one sweep.

    ``nonzero`` on the flat block yields every appearance grouped by row in
    ascending column order; per-row first/last come from segment boundaries
    and the max/min inter-appearance differences from ``diff`` +
    ``maximum/minimum.reduceat`` with cross-row positions neutralised — the
    vectorized equivalent of one ``flatnonzero``/``diff`` pass per row.

    Returns ``(counts, first, last, dmax, dmin, cols, seg_start, seg_end)``:
    per-row arrays (``dmin`` is :data:`_NO_DIFF` below two appearances) plus
    the appearance columns and each row's ``[seg_start, seg_end)`` slice of
    them.
    """
    total = flat.shape[0]
    # one flat nonzero pass instead of 2-D ``nonzero`` — the row index
    # array it would compute is recoverable from one divmod, and the
    # per-row counts fall out of a bincount over it.
    pos = _np.flatnonzero(flat.ravel())
    rows_idx, cols = _np.divmod(pos, horizon)
    counts = _np.bincount(rows_idx, minlength=total).astype(_np.int64, copy=False)
    cols = cols.astype(_np.int64, copy=False)
    first = _np.zeros(total, dtype=_np.int64)
    last = _np.zeros(total, dtype=_np.int64)
    dmax = _np.zeros(total, dtype=_np.int64)
    dmin = _np.full(total, _NO_DIFF, dtype=_np.int64)
    seg_start = _np.zeros(total, dtype=_np.int64)
    seg_end = _np.zeros(total, dtype=_np.int64)
    nonempty = _np.flatnonzero(counts)
    if nonempty.size:
        seg_ends = _np.cumsum(counts[nonempty])
        seg_starts = _np.concatenate(([0], seg_ends[:-1]))
        first[nonempty] = cols[seg_starts]
        last[nonempty] = cols[seg_ends - 1]
        seg_start[nonempty] = seg_starts
        seg_end[nonempty] = seg_ends
        if cols.size > 1:
            diffs = _np.diff(cols)
            pad_max = _np.concatenate((diffs, [0]))
            pad_min = _np.concatenate((diffs, [_NO_DIFF]))
            # positions crossing from one row's segment into the next
            # carry meaningless diffs — neutralise them for both folds.
            boundary = seg_ends[:-1] - 1
            pad_max[boundary] = 0
            pad_min[boundary] = _NO_DIFF
            dmax[nonempty] = _np.maximum.reduceat(pad_max, seg_starts)
            dmin[nonempty] = _np.minimum.reduceat(pad_min, seg_starts)
    return counts, first, last, dmax, dmin, cols, seg_start, seg_end


def _muls_numpy(counts, first, last, dmax, horizon: int):
    """``mul`` of every row from :func:`_row_summary_numpy` arrays: the
    longest of the run before the first appearance, the run after the last
    and the longest run between two; ``horizon`` for a never-happy row."""
    muls = _np.maximum(first, horizon - 1 - last)
    muls = _np.maximum(muls, _np.where(counts > 1, dmax - 1, 0))
    muls[counts == 0] = horizon
    return muls


class TraceBatch:
    """``S`` schedules over one graph and horizon, evaluated in one pass.

    Stacks the occupancy traces of ``S`` *compatible* schedules — same
    :class:`~repro.core.problem.ConflictGraph`, same horizon — into a single
    ``S × n × horizon`` boolean tensor, and answers every summary query of
    the :class:`TraceMatrix` API for *all* members from one stacked
    :meth:`scan`:

    * per-node gap/run-length statistics (``mul``, observed period,
      distinct diffs, happiness rate) from a single ``nonzero``/``diff``/
      ``reduceat`` sweep over the flattened ``S·n`` row block;
    * per-edge legality evidence from one adjacency-masked AND per graph
      edge covering all members at once.

    Construction broadcasts the existing fast paths across the schedule
    axis: every periodic row in the whole batch is grouped by its period so
    each distinct period is expanded once.  Non-periodic members fall back
    to their ordinary :meth:`TraceMatrix.from_schedule` build.

    ``horizon_mode="stream"`` (or ``"auto"`` above
    :data:`AUTO_STREAM_BYTES`) degrades gracefully: member chunks are
    folded column-block by column-block through the same associative
    accumulators as :class:`StreamedTrace`, so resident memory is
    ``O(S × n × chunk)`` — the batch never materialises ``S`` dense
    matrices it could not afford per-cell.

    :meth:`member` returns a view exposing the :class:`TraceMatrix` query
    API for one schedule, answered from the shared scan; views satisfy the
    shared-trace contract of :func:`repro.core.metrics.build_trace`
    (matching graph and horizon), which is how the experiment engine runs
    the unmodified metric suite and validator over each member.
    Differential tests (``tests/core/test_batch.py``) assert every member
    query equals its per-cell counterpart.
    """

    def __init__(
        self,
        schedules: Sequence[ScheduleOrSets],
        graph: ConflictGraph,
        horizon: int,
        horizon_mode: str = "auto",
        chunk: Optional[int] = None,
    ) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon!r}")
        self.schedules: List[ScheduleOrSets] = list(schedules)
        if not self.schedules:
            raise ValueError("TraceBatch needs at least one schedule")
        self.graph = graph
        self.horizon = horizon
        self.chunk = DEFAULT_CHUNK if chunk is None else int(chunk)
        if self.chunk < 1:
            raise ValueError(f"chunk width must be >= 1, got {chunk!r}")
        #: the representation every member view reports as its ``mode`` —
        #: resolved exactly like a per-cell trace of the same shape, so a
        #: batched record's ``horizon_mode`` stamp matches per-cell runs.
        self.member_mode = resolve_horizon_mode(horizon_mode, graph.num_nodes(), horizon)
        self._order: List[Node] = graph.nodes()
        self._index: Dict[Node, int] = {p: i for i, p in enumerate(self._order)}
        self._unknown: List[List[Tuple[int, Node]]] = [[] for _ in self.schedules]
        self._tensor = None  # (S, n, horizon) bool tensor (dense mode)
        # per-(member, node) summary state for the stream arm
        self._stats: Optional[List[List[_NodeStreamStats]]] = None
        # flattened per-row summary arrays for the dense arm
        self._counts = self._first = self._last = None
        self._dmax = self._dmin = self._muls = None
        self._cols = self._seg_start = self._seg_end = None
        # graph edge -> one collision-holiday list per member
        self._collisions: Optional[Dict[Tuple[Node, Node], List[List[int]]]] = None
        self._scanned = False
        if self.member_mode == "dense":
            self._build_dense()

    def __len__(self) -> int:
        return len(self.schedules)

    def member(self, s: int) -> "_BatchMemberView":
        """The :class:`TraceMatrix`-compatible view of member ``s``."""
        if not (0 <= s < len(self.schedules)):
            raise IndexError(f"member {s} outside batch of {len(self.schedules)}")
        return _BatchMemberView(self, s)

    def members(self) -> List["_BatchMemberView"]:
        """Views of every member, in schedule order."""
        return [self.member(s) for s in range(len(self.schedules))]

    # -- stacked construction ------------------------------------------------------
    def _periodic_eligible(self, schedule: ScheduleOrSets) -> bool:
        # same test as TraceMatrix.from_schedule: the table must cover
        # exactly the observed nodes for the direct expansion to be valid.
        return isinstance(schedule, PeriodicSchedule) and set(schedule.assignments) == set(
            self._order
        )

    def _build_dense(self) -> None:
        n, horizon = len(self._order), self.horizon
        tensor = _np.zeros((len(self.schedules), n, horizon), dtype=_np.bool_)
        # C-contiguous reshape: flat row s·n + i aliases tensor[s, i].
        flat = tensor.reshape(len(self.schedules) * n, horizon)
        by_period: Dict[int, Tuple[List[int], List[int]]] = {}
        for s, schedule in enumerate(self.schedules):
            if self._periodic_eligible(schedule):
                for i, p in enumerate(self._order):
                    slot = schedule.assignments[p]
                    rows, phases = by_period.setdefault(slot.period, ([], []))
                    rows.append(s * n + i)
                    phases.append(slot.phase)
            else:
                member = TraceMatrix.from_schedule(schedule, self.graph, horizon)
                tensor[s] = member._matrix
                self._unknown[s] = member.unknown
        if by_period:
            # one arange % τ per distinct period across the WHOLE batch —
            # the broadcast form of TraceMatrix._from_periodic.
            holidays = _np.arange(1, horizon + 1, dtype=_np.int64)
            for period, (rows, phases) in by_period.items():
                mod = holidays % period
                row_idx = _np.asarray(rows, dtype=_np.intp)
                phase_arr = _np.asarray(phases, dtype=_np.int64)
                flat[row_idx] = mod[_np.newaxis, :] == phase_arr[:, _np.newaxis]
        self._tensor = tensor

    # -- the one stacked scan ------------------------------------------------------
    def scan(self) -> None:
        """Run the stacked summary pass once (idempotent).

        Triggered lazily by the first query; callers that want the shared
        cost timed separately (the experiment engine) invoke it eagerly.
        """
        if self._scanned:
            return
        if self.member_mode == "stream":
            self._scan_stream()
        else:
            self._scan_dense_numpy()
        self._scanned = True

    def _scan_dense_numpy(self) -> None:
        """One vectorized sweep (:func:`_row_summary_numpy`) over the
        flattened ``S·n`` row block."""
        total = len(self.schedules) * len(self._order)
        flat = self._tensor.reshape(total, self.horizon)
        counts, first, last, dmax, dmin, cols, seg_start, seg_end = _row_summary_numpy(
            flat, self.horizon
        )
        self._counts, self._first, self._last = counts, first, last
        self._dmax, self._dmin = dmax, dmin
        self._cols, self._seg_start, self._seg_end = cols, seg_start, seg_end
        # mul for every flat row in one vectorized formula: the per-query
        # hot path (metrics + bound certification call it per node per
        # member) collapses to an array lookup.
        self._muls = _muls_numpy(counts, first, last, dmax, self.horizon)
        collisions: Dict[Tuple[Node, Node], List[List[int]]] = {}
        for u, v in self.graph.edges():
            i, j = self._index[u], self._index[v]
            # one AND over the (S, horizon) slice pair covers every member.
            both = self._tensor[:, i, :] & self._tensor[:, j, :]
            per_member: List[List[int]] = [[] for _ in self.schedules]
            if both.any():
                hit_members, hit_cols = _np.nonzero(both)
                for s, t in zip(hit_members.tolist(), hit_cols.tolist()):
                    per_member[s].append(t + 1)
            collisions[(u, v)] = per_member
        self._collisions = collisions

    def _scan_stream(self) -> None:
        """Chunk-major stacked scan: every member's block for one column
        window is built and folded before moving to the next window, so at
        most ``S`` blocks of ``n × chunk`` are live at once."""
        streams = [
            TraceStream(schedule, self.graph, self.horizon, chunk=self.chunk)
            for schedule in self.schedules
        ]
        edges = self.graph.edges()
        edge_rows = [(self._index[u], self._index[v]) for u, v in edges]
        stats = [[_NodeStreamStats() for _ in self._order] for _ in self.schedules]
        collision_lists: List[List[List[int]]] = [
            [[] for _ in edges] for _ in self.schedules
        ]
        start = 1
        while start <= self.horizon:
            width = min(self.chunk, self.horizon - start + 1)
            for s, stream in enumerate(streams):
                block = stream.block(start, width)
                _fold_summary_block(
                    start, block, stats[s], edge_rows, collision_lists[s], self._unknown[s]
                )
            start += width
        self._stats = stats
        self._collisions = {
            edge: [collision_lists[s][k] for s in range(len(self.schedules))]
            for k, edge in enumerate(edges)
        }


class _BatchMemberView:
    """One member's :class:`TraceMatrix`-compatible window into a
    :class:`TraceBatch`.

    Summary queries are answered from the batch's shared scan; the rare
    per-appearance queries (``appearances``, ``gaps``, ``happy_set``) fall
    through to a lazily materialised ordinary trace for this member — a
    zero-copy row-block view of the stacked tensor in dense mode, a fresh
    :class:`StreamedTrace` in stream mode.  ``mode`` mirrors what a
    per-cell trace of the same shape would report.
    """

    def __init__(self, batch: TraceBatch, member: int) -> None:
        self._batch = batch
        self._member = member
        self.graph = batch.graph
        self.horizon = batch.horizon
        self.mode = batch.member_mode
        self._order = batch._order
        self._index = batch._index
        self._trace = None  # lazily materialised per-member trace

    @property
    def unknown(self) -> List[Tuple[int, Node]]:
        """Global ``(holiday, node)`` pairs absent from the graph."""
        if self._batch.member_mode == "stream":
            self._batch.scan()  # stream mode discovers unknowns during the fold
        return self._batch._unknown[self._member]

    def row_index(self, node: Node) -> int:
        """Row of ``node`` in the member's matrix (KeyError if unknown)."""
        return self._index[node]

    # -- shared-scan summary queries -----------------------------------------------
    def _flat_row(self, node: Node) -> int:
        return self._member * len(self._order) + self._index[node]

    def _vector_scan(self) -> bool:
        """True when the dense flattened arrays answer this member."""
        return self._batch.member_mode == "dense"

    def _stats(self, node: Node) -> _NodeStreamStats:
        batch = self._batch
        batch.scan()
        return batch._stats[self._member][self._index[node]]

    def count(self, node: Node) -> int:
        """Number of holidays within the horizon at which ``node`` is happy."""
        if self._vector_scan():
            self._batch.scan()
            return int(self._batch._counts[self._flat_row(node)])
        return self._stats(node).count

    def mul(self, node: Node) -> int:
        """Maximum unhappiness length of ``node`` within the horizon."""
        batch = self._batch
        if self._vector_scan():
            batch.scan()
            return int(batch._muls[self._flat_row(node)])
        stats = self._stats(node)
        if stats.count == 0:
            return self.horizon
        internal = stats.max_diff - 1 if stats.max_diff else 0
        return max(stats.first - 1, self.horizon - stats.last, internal)

    def observed_period(self, node: Node) -> Optional[int]:
        """The constant inter-appearance difference, or None."""
        batch = self._batch
        if self._vector_scan():
            batch.scan()
            row = self._flat_row(node)
            if int(batch._counts[row]) < 2:
                return None
            dmax = int(batch._dmax[row])
            return dmax if dmax == int(batch._dmin[row]) else None
        stats = self._stats(node)
        if stats.count < 2 or len(stats.diffs) != 1:
            return None
        return next(iter(stats.diffs))

    def distinct_appearance_diffs(self, node: Node) -> List[int]:
        """Sorted distinct inter-appearance differences of ``node``."""
        batch = self._batch
        if self._vector_scan():
            batch.scan()
            row = self._flat_row(node)
            if int(batch._counts[row]) < 2:
                return []
            dmax = int(batch._dmax[row])
            if dmax == int(batch._dmin[row]):  # constant — the periodic case
                return [dmax]
            segment = batch._cols[batch._seg_start[row]:batch._seg_end[row]]
            return _np.unique(_np.diff(segment)).tolist()
        return sorted(self._stats(node).diffs)

    def happiness_rate(self, node: Node) -> float:
        """Fraction of observed holidays at which ``node`` was happy."""
        return self.count(node) / self.horizon

    def _member_slice(self, array):
        """This member's contiguous block of a flat per-row summary array."""
        lo = self._member * len(self._order)
        return array[lo:lo + len(self._order)]

    # -- bulk queries --------------------------------------------------------------
    def muls(self) -> Dict[Node, int]:
        """``{node: mul(node)}`` for every node, in graph order."""
        if self._vector_scan():
            self._batch.scan()
            return dict(zip(self._order, self._member_slice(self._batch._muls).tolist()))
        return {p: self.mul(p) for p in self._order}

    def observed_periods(self) -> Dict[Node, Optional[int]]:
        """``{node: observed period or None}`` for every node."""
        if self._vector_scan():
            batch = self._batch
            batch.scan()
            counts = self._member_slice(batch._counts)
            dmax = self._member_slice(batch._dmax)
            periodic = (counts >= 2) & (dmax == self._member_slice(batch._dmin))
            return {
                p: int(dmax[i]) if periodic[i] else None
                for i, p in enumerate(self._order)
            }
        return {p: self.observed_period(p) for p in self._order}

    def happiness_rates(self) -> Dict[Node, float]:
        """``{node: happiness rate}`` for every node."""
        if self._vector_scan():
            self._batch.scan()
            counts = self._member_slice(self._batch._counts).tolist()
            return {p: c / self.horizon for p, c in zip(self._order, counts)}
        return {p: self.happiness_rate(p) for p in self._order}

    def appearance_diffs(self, node: Node) -> List[int]:
        """Differences between consecutive appearances (empty if < 2)."""
        times = self.appearances(node)
        return [b - a for a, b in zip(times, times[1:])]

    # -- column / edge queries -----------------------------------------------------
    def edge_collisions(self, u: Node, v: Node) -> List[int]:
        """Holidays at which ``u`` and ``v`` are simultaneously happy.

        Graph edges come from the batch's shared legality pass; any other
        pair falls through to the materialised member trace.
        """
        batch = self._batch
        batch.scan()
        for key in ((u, v), (v, u)):
            per_member = batch._collisions.get(key)
            if per_member is not None:
                return list(per_member[self._member])
        return self._materialized().edge_collisions(u, v)

    def conflicting_holidays(
        self, edges: Optional[Iterable[Tuple[Node, Node]]] = None
    ) -> Dict[int, List[Tuple[Node, Node]]]:
        """``{holiday: [(u, v), ...]}`` over ``edges`` (default: the graph's
        edges) with collisions, each holiday's pairs in ``edges`` order."""
        out: Dict[int, List[Tuple[Node, Node]]] = {}
        for u, v in self.graph.edges() if edges is None else edges:
            for t in self.edge_collisions(u, v):
                out.setdefault(t, []).append((u, v))
        return out

    # -- per-appearance queries (delegated) ----------------------------------------
    def _materialized(self):
        """This member as an ordinary trace (zero-copy in dense mode)."""
        if self._trace is None:
            batch, s = self._batch, self._member
            if batch.member_mode == "stream":
                self._trace = StreamedTrace(
                    batch.schedules[s], batch.graph, batch.horizon, chunk=batch.chunk
                )
            else:
                self._trace = TraceMatrix(
                    batch.graph, batch.horizon, batch._tensor[s],
                    unknown=list(batch._unknown[s]),
                )
        return self._trace

    def appearances(self, node: Node) -> List[int]:
        """Sorted 1-indexed holidays at which ``node`` is happy."""
        return self._materialized().appearances(node)

    def gaps(self, node: Node) -> List[int]:
        """Unhappiness interval lengths (see :meth:`TraceMatrix.gaps`)."""
        return self._materialized().gaps(node)

    def all_gaps(self) -> Dict[Node, List[int]]:
        """``{node: gap list}`` for every node."""
        return self._materialized().all_gaps()

    def happy_set(self, holiday: int) -> FrozenSet[Node]:
        """The recorded happy set at ``holiday`` (known nodes only)."""
        return self._materialized().happy_set(holiday)


def _scatter_columns(matrix, columns, index, on_unknown) -> None:
    """Fill ``matrix[row_of(p), col] = True`` for every ``(col, happy_set)``.

    Memberships are translated to row indices with a C-speed ``map`` over
    the index lookup; the rare column containing a node missing from the
    index rolls back its partial extend and is redone element-wise, routing
    missing nodes to ``on_unknown(col_key, node)``.  Marks are applied with
    one vectorized scatter instead of one scalar store per appearance.
    """
    lookup = index.__getitem__
    rows: List[int] = []
    cols: List[int] = []
    for key, happy in columns:
        mark = len(rows)
        try:
            rows.extend(map(lookup, happy))
        except KeyError:
            del rows[mark:]  # drop the partial extend, redo element-wise
            for p in happy:
                i = index.get(p)
                if i is None:
                    on_unknown(key, p)
                else:
                    rows.append(i)
        cols.extend(repeat(key, len(rows) - mark))
    if rows:
        matrix[_np.asarray(rows, dtype=_np.intp), _np.asarray(cols, dtype=_np.intp)] = True
