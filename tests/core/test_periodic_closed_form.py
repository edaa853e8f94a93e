"""Differential tests for the closed-form summaries of periodic schedules.

A :class:`~repro.core.schedule.PeriodicSchedule` streamed through
:class:`~repro.core.trace.StreamedTrace` never builds a chunk for its
summaries: per-node state is arithmetic on ``(period, phase)`` and per-edge
collisions are the edge's CRT residue class.  The oracle here is the chunk
fold those summaries replace — :class:`~repro.core.trace.TraceStream`
blocks folded through ``_fold_summary_block`` / ``_fold_legality_block``,
called directly — which stays exact at horizons the ``sets`` reference
cannot reach.  Compared: the whole summary state and every
``legality_scan`` variant (own edges or a foreign edge list, with and
without ``fail_fast``), plus ``edge_collisions`` for pairs that are not
edges.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import EngineConfig
from repro.core.metrics import evaluate_schedule
from repro.core.problem import ConflictGraph
from repro.core.schedule import PeriodicSchedule, SlotAssignment
from repro.core.trace import (
    StreamedTrace,
    TraceStream,
    _fold_legality_block,
    _fold_summary_block,
    _NodeStreamStats,
)
from repro.core.validation import check_independent_sets, validate_schedule
from repro.graphs.random_graphs import erdos_renyi


# ---------------------------------------------------------------------------
# the oracle: the chunk fold, driven directly
# ---------------------------------------------------------------------------

def folded_summary(schedule, graph, horizon, chunk):
    """The summary state a serial chunk scan builds."""
    order = graph.nodes()
    index = {p: i for i, p in enumerate(order)}
    edges = graph.edges()
    edge_rows = [(index[u], index[v]) for u, v in edges]
    stats = [_NodeStreamStats() for _ in order]
    collisions = [[] for _ in edges]
    unknown = []
    for start, block in TraceStream(schedule, graph, horizon, chunk=chunk):
        _fold_summary_block(start, block, stats, edge_rows, collisions, unknown)
    return (
        [(s.count, s.first, s.last, s.max_diff, sorted(s.diffs)) for s in stats],
        {edge: collisions[k] for k, edge in enumerate(edges)},
        unknown,
    )


def folded_legality(schedule, graph, horizon, chunk, edges, fail_fast):
    """The legality evidence a serial chunk scan returns."""
    index = {p: i for i, p in enumerate(graph.nodes())}
    edge_rows = [(index[u], index[v]) for u, v in edges]
    unknown_by_holiday, collisions = {}, {}
    for start, block in TraceStream(schedule, graph, horizon, chunk=chunk):
        _fold_legality_block(start, block, edges, edge_rows, unknown_by_holiday, collisions)
        if fail_fast and (unknown_by_holiday or collisions):
            break
    return unknown_by_holiday, collisions


def summary_state(trace: StreamedTrace):
    trace._scan()
    return (
        [(s.count, s.first, s.last, s.max_diff, sorted(s.diffs)) for s in trace._stats],
        trace._collisions,
        trace._unknown,
    )


def foreign_edges(graph, rng):
    """Node pairs that are mostly not edges of ``graph``, in shuffled order."""
    nodes = graph.nodes()
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
    rng.shuffle(pairs)
    return pairs[: max(1, len(pairs) // 3)]


def assert_matches_chunk_fold(schedule, graph, horizon, chunk, rng=None):
    """Every summary and legality answer of the closed form equals the fold."""
    rng = rng or random.Random(0)
    trace = StreamedTrace(schedule, graph, horizon, chunk=chunk)
    assert summary_state(trace) == folded_summary(schedule, graph, horizon, chunk)
    own = graph.edges()
    other = foreign_edges(graph, rng)
    other_graph = ConflictGraph(other, nodes=graph.nodes(), name="foreign")
    for fail_fast in (True, False):
        assert trace.legality_scan(graph, fail_fast=fail_fast) == \
            folded_legality(schedule, graph, horizon, chunk, own, fail_fast), fail_fast
        _, folded = folded_legality(schedule, graph, horizon, chunk, other_graph.edges(), fail_fast)
        assert trace.legality_scan(other_graph, fail_fast=fail_fast) == ({}, folded), fail_fast
    # ``folded`` is now the full foreign fold: every holiday each pair collides at
    for u, v in other_graph.edges():
        expected = [t for t, pairs in folded.items() if (u, v) in pairs]
        assert trace.edge_collisions(u, v) == sorted(expected), (u, v)


def random_table(graph, rng, max_period=12):
    return {p: SlotAssignment(rng.randint(1, max_period), rng.randrange(max_period))
            for p in graph.nodes()}


# ---------------------------------------------------------------------------
# random tables, legal and colliding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("chunk", (1, 10, 17, 5000))
def test_random_tables_match_chunk_fold(seed, chunk):
    """Random ``(period, phase)`` tables built with ``check_conflicts=False``
    — most have colliding edges — against chunk widths 1, one dividing
    the horizon (10 | 400), one that does not (17) and one beyond it."""
    rng = random.Random(seed)
    graph = erdos_renyi(9, 0.35, seed=seed, name=f"gnp-9-{seed}")
    schedule = PeriodicSchedule(graph, random_table(graph, rng), check_conflicts=False)
    assert_matches_chunk_fold(schedule, graph, 400, chunk, rng)


@pytest.mark.parametrize("seed", range(4))
def test_legal_tables_match_chunk_fold(seed):
    """A legal table (distinct colour phases modulo one period) has no
    collisions on its own edges; foreign pairs still may."""
    rng = random.Random(100 + seed)
    graph = erdos_renyi(10, 0.4, seed=seed, name=f"gnp-10-{seed}")
    period = 11
    table = {p: SlotAssignment(period, i) for i, p in enumerate(graph.nodes())}
    schedule = PeriodicSchedule(graph, table)
    assert schedule.find_conflict() is None
    assert_matches_chunk_fold(schedule, graph, 250, 13, rng)
    assert StreamedTrace(schedule, graph, 250, chunk=13).legality_scan(graph, fail_fast=True) \
        == ({}, {})


# ---------------------------------------------------------------------------
# boundary cases of the per-node arithmetic
# ---------------------------------------------------------------------------

P3 = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")


@pytest.mark.parametrize("table,horizon", [
    # node 2 first appears at 40 > H: it keeps the empty summary
    ({0: (2, 1), 1: (4, 0), 2: (50, 40)}, 10),
    # H < τ for every node: at most one appearance each
    ({0: (20, 3), 1: (30, 0), 2: (25, 24)}, 19),
    # H lands exactly on an appearance of every node
    ({0: (3, 0), 1: (4, 2), 2: (6, 0)}, 30),
    # τ = 1: happy every holiday (and colliding with both neighbours)
    ({0: (1, 0), 1: (3, 1), 2: (2, 0)}, 23),
    # phase 0 throughout: first appearance at τ itself
    ({0: (5, 0), 1: (7, 0), 2: (5, 0)}, 71),
    # H = 1
    ({0: (1, 0), 1: (2, 1), 2: (1, 0)}, 1),
])
@pytest.mark.parametrize("chunk", (1, 2, 7, 1000))
def test_edge_cases_match_chunk_fold(table, horizon, chunk):
    slots = {p: SlotAssignment(*slot) for p, slot in table.items()}
    schedule = PeriodicSchedule(P3, slots, check_conflicts=False)
    assert_matches_chunk_fold(schedule, P3, horizon, chunk)


def test_fail_fast_reports_the_whole_first_violating_chunk():
    """Every edge's hits inside the first violating chunk, in edge order —
    and nothing after it."""
    graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3)], name="p4")
    table = {0: SlotAssignment(6, 5), 1: SlotAssignment(3, 2),
             2: SlotAssignment(4, 3), 3: SlotAssignment(2, 1)}
    schedule = PeriodicSchedule(graph, table, check_conflicts=False)
    trace = StreamedTrace(schedule, graph, 100, chunk=10)
    unknown, collisions = trace.legality_scan(graph, fail_fast=True)
    assert unknown == {}
    assert collisions == {5: [(0, 1)], 3: [(2, 3)], 7: [(2, 3)]}
    assert collisions == folded_legality(schedule, graph, 100, 10, graph.edges(), True)[1]


# ---------------------------------------------------------------------------
# long horizons: exact where the sets reference cannot go
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("horizon,chunk", [
    (100, 7),
    (10_000, 999),
    (1_000_000, 1 << 16),
    (10_000_000, 3_000_001),
])
def test_long_horizons_match_chunk_fold(horizon, chunk):
    """Small graph, horizons 10²..10⁷, chunk widths that do not divide them;
    one edge collides every 300 holidays."""
    graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], name="c4")
    table = {0: SlotAssignment(60, 1), 1: SlotAssignment(100, 41),
             2: SlotAssignment(100, 2), 3: SlotAssignment(60, 3)}
    schedule = PeriodicSchedule(graph, table, check_conflicts=False)
    assert schedule.find_conflict() is not None
    assert_matches_chunk_fold(schedule, graph, horizon, chunk)


# ---------------------------------------------------------------------------
# end to end: jobs, the sets reference, and no chunk ever built
# ---------------------------------------------------------------------------

def test_jobs_do_not_change_closed_form():
    rng = random.Random(7)
    graph = erdos_renyi(10, 0.3, seed=7, name="gnp-10")
    schedule = PeriodicSchedule(graph, random_table(graph, rng), check_conflicts=False)
    serial = StreamedTrace(schedule, graph, 500, chunk=9, jobs=1)
    parallel = StreamedTrace(schedule, graph, 500, chunk=9, jobs=3)
    assert summary_state(parallel) == summary_state(serial)
    for fail_fast in (False, True):
        assert parallel.legality_scan(graph, fail_fast=fail_fast) == \
            serial.legality_scan(graph, fail_fast=fail_fast)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fail_fast", (False, True))
def test_reports_match_sets_reference(seed, fail_fast):
    rng = random.Random(seed)
    graph = erdos_renyi(8, 0.35, seed=seed, name=f"gnp-8-{seed}")
    schedule = PeriodicSchedule(graph, random_table(graph, rng), check_conflicts=False)
    stream = EngineConfig(horizon_mode="stream", chunk=11)
    sets = EngineConfig(backend="sets")
    assert evaluate_schedule(schedule, graph, 120, config=stream).summary() == \
        evaluate_schedule(schedule, graph, 120, config=sets).summary()

    def tuples(report):
        return [(v.kind, v.node, v.holiday, v.detail) for v in report.violations]

    assert tuples(check_independent_sets(schedule, graph, 120, fail_fast=fail_fast, config=stream)) \
        == tuples(check_independent_sets(schedule, graph, 120, fail_fast=fail_fast, config=sets))
    assert tuples(validate_schedule(schedule, graph, 120, check_periodic=True, config=stream)) \
        == tuples(validate_schedule(schedule, graph, 120, check_periodic=True, config=sets))


def test_summaries_and_legality_build_no_chunk(monkeypatch):
    """Summaries, every legality variant and non-edge collisions are pure
    arithmetic; only per-appearance queries still tile chunks."""
    rng = random.Random(3)
    graph = erdos_renyi(12, 0.3, seed=3, name="gnp-12")
    # distinct phases of one period: no pair of nodes ever collides, so the
    # answers stay small at a horizon no chunk scan could finish
    table = {p: SlotAssignment(13, i) for i, p in enumerate(graph.nodes())}
    schedule = PeriodicSchedule(graph, table)
    trace = StreamedTrace(schedule, graph, 10 ** 12, chunk=1 << 16, jobs=2)

    def no_chunks(*args, **kwargs):
        raise AssertionError("a chunk was built")

    monkeypatch.setattr(TraceStream, "block", no_chunks)
    assert set(trace.muls().values()) == {12}
    assert set(trace.observed_periods().values()) == {13}
    trace.happiness_rates()
    for fail_fast in (False, True):
        assert trace.legality_scan(graph, fail_fast=fail_fast) == ({}, {})
        foreign = ConflictGraph(foreign_edges(graph, rng), nodes=graph.nodes())
        assert trace.legality_scan(foreign, fail_fast=fail_fast) == ({}, {})
    u, v = foreign_edges(graph, rng)[0]
    assert trace.edge_collisions(u, v) == []
    with pytest.raises(AssertionError, match="a chunk was built"):
        trace.happy_set(5)
