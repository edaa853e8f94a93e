"""The generator checkpoint/restore protocol and its streaming fan-out.

Three layers under test:

1. **The contract itself** (:class:`repro.core.schedule.GeneratorSchedule`):
   ``restore(checkpoint(t))`` resumes byte-identically for every registered
   scheduler that implements the protocol, checkpoints chain (a resumed
   schedule can be checkpointed again and serializes to the same bytes as
   the original at the same frontier), handles pickle across process
   boundaries, and the error surface (non-frontier ``t``, schedules without
   the protocol) is exact.

2. **The parallel fan-out** (:class:`repro.core.trace.StreamedTrace`):
   ``jobs=1 ≡ jobs=N`` for checkpointable generator-backed schedulers —
   across dividing and non-dividing chunk widths, fail-fast legality,
   and the per-appearance second passes
   (``appearances``/``all_gaps``) — and the scan really takes the
   checkpoint plan, not the serial fallback.

3. **The degraded modes**: windowed generators replay evicted history from
   checkpoints (and raise without the protocol), ``checkpoint=False``
   forces the serial scan with identical results and never moves cache
   cells, and the serial fallback warns exactly once, naming the schedule
   and the missing protocol.
"""

from __future__ import annotations

import logging
import pickle

import pytest

from repro.algorithms.phased_greedy import PhasedGreedyScheduler
from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.core.config import EngineConfig
from repro.core.metrics import build_trace, evaluate_schedule
from repro.core.problem import ConflictGraph
from repro.core.schedule import GeneratorCheckpoint, GeneratorSchedule
from repro.core.trace import StreamedTrace
from repro.core.validation import validate_schedule
from repro.graphs.random_graphs import erdos_renyi

BACKENDS = ["numpy"]

HORIZON = 96
#: 7 and 13 do not divide 96, 16 and 32 do — both sides of the chunk-alignment
#: coin, with many narrow blocks and with few wide ones.
CHUNKS = (7, 13, 16, 32)


def _checkpointable_schedulers():
    probe = erdos_renyi(6, 0.4, seed=1, name="probe-6")
    names = []
    for name in available_schedulers():
        schedule = get_scheduler(name).build(probe, seed=0)
        if isinstance(schedule, GeneratorSchedule) and schedule.checkpointable:
            names.append(name)
    return names


CHECKPOINTABLE = _checkpointable_schedulers()


def cfg(backend=None, mode=None, chunk=None, jobs=None, checkpoint=None):
    opts = {
        "backend": backend,
        "horizon_mode": mode,
        "chunk": chunk,
        "stream_jobs": jobs,
        "checkpoint": checkpoint,
    }
    return EngineConfig(**{k: v for k, v in opts.items() if v is not None})


def report_tuples(report):
    return [(v.kind, v.node, v.holiday, v.detail) for v in report.violations]


# ---------------------------------------------------------------------------
# layer 1: the contract
# ---------------------------------------------------------------------------

def test_registry_protocol_coverage():
    """Every aperiodic generator-backed scheduler in the registry implements
    the checkpoint protocol — this list is the protocol's golden roster;
    extend it when registering a new run-forward scheduler."""
    assert set(CHECKPOINTABLE) == {
        "first-come-first-grab",
        "phased-greedy",
        "phased-greedy-distributed",
    }


@pytest.mark.parametrize("name", CHECKPOINTABLE)
class TestRoundTrip:
    T = 23
    SUFFIX = 25

    def _build(self, name):
        graph = erdos_renyi(9, 0.35, seed=7, name="gnp-9")
        return graph, (lambda: get_scheduler(name).build(graph, seed=3))

    def test_restore_resumes_byte_identically(self, name):
        graph, make = self._build(name)
        full = make().prefix(self.T + self.SUFFIX)

        schedule = make()
        schedule.happy_set(self.T)
        assert schedule.frontier() == self.T
        state = schedule.checkpoint(self.T)
        resumed = schedule.restore(state, start=self.T)
        assert resumed.start == resumed.evicted_below == self.T
        assert resumed.frontier() == self.T
        # the resumed suffix is exactly the reference run's suffix
        assert resumed.prefix(self.SUFFIX, start=self.T + 1) == full[self.T:]
        # ...and the original, continuing past its own checkpoint, agrees
        assert schedule.prefix(self.SUFFIX, start=self.T + 1) == full[self.T:]
        assert ", resumed@23" in resumed.describe()

    def test_checkpoints_chain_to_identical_bytes(self, name):
        graph, make = self._build(name)
        end = self.T + self.SUFFIX
        schedule = make()
        schedule.happy_set(self.T)
        resumed = schedule.restore(schedule.checkpoint(self.T), start=self.T)
        assert resumed.checkpointable
        resumed.happy_set(end)
        schedule.happy_set(end)
        # both sides advanced to the same frontier serialize the same state
        assert resumed.checkpoint(end) == schedule.checkpoint(end)
        # and a second-generation restore still reproduces the tail
        tail = make().prefix(end + 10)[end:]
        again = resumed.restore(resumed.checkpoint(end), start=end)
        assert again.prefix(10, start=end + 1) == tail

    def test_handle_pickles_and_resumes(self, name):
        graph, make = self._build(name)
        full = make().prefix(self.T + self.SUFFIX)
        schedule = make()
        schedule.happy_set(self.T)
        handle = schedule.checkpoint_handle(self.T)
        assert isinstance(handle, GeneratorCheckpoint)
        clone = pickle.loads(pickle.dumps(handle))
        resumed = clone.resume()
        assert resumed.prefix(self.SUFFIX, start=self.T + 1) == full[self.T:]
        assert resumed.checkpointable  # resume() re-attaches the protocol

    def test_resumed_history_is_gone(self, name):
        graph, make = self._build(name)
        schedule = make()
        schedule.happy_set(self.T)
        resumed = schedule.restore(schedule.checkpoint(self.T), start=self.T)
        with pytest.raises(ValueError, match="predates this resumed schedule"):
            resumed.happy_set(self.T)

    def test_checkpoint_only_at_frontier(self, name):
        graph, make = self._build(name)
        schedule = make()
        schedule.happy_set(self.T)
        with pytest.raises(ValueError, match="frontier"):
            schedule.checkpoint(self.T - 1)
        with pytest.raises(ValueError, match="frontier"):
            schedule.checkpoint(self.T + 1)


def test_plain_generator_is_not_checkpointable():
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    schedule = GeneratorSchedule(graph, lambda t: [t % 2], validate=False)
    assert not schedule.checkpointable
    schedule.happy_set(4)
    with pytest.raises(ValueError, match="checkpoint protocol"):
        schedule.checkpoint(4)
    with pytest.raises(ValueError, match="checkpoint protocol"):
        schedule.restore(b"", start=4)
    with pytest.raises(ValueError, match="checkpoint protocol"):
        schedule.checkpoint_handle(4)


# ---------------------------------------------------------------------------
# layer 2: the parallel fan-out (the acceptance gate)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("name", CHECKPOINTABLE)
def test_checkpointable_parallel_matches_serial(name, backend, chunk):
    """jobs=3 must take the checkpoint fan-out (not the serial fallback) and
    reproduce the serial streamed reports exactly — metrics, validation
    with and without fail-fast, and the per-appearance second passes."""
    graph = erdos_renyi(10, 0.3, seed=6, name="gnp-10")
    engine = cfg(backend=backend, mode="stream", chunk=chunk, jobs=1)

    schedule = get_scheduler(name).build(graph, seed=5)
    serial_trace = build_trace(schedule, graph, HORIZON, config=engine)
    serial = evaluate_schedule(
        schedule, graph, HORIZON, name=name, trace=serial_trace, config=cfg(backend=backend))

    schedule2 = get_scheduler(name).build(graph, seed=5)
    trace = build_trace(
        schedule2, graph, HORIZON,
        config=cfg(backend=backend, mode="stream", chunk=chunk, jobs=3))
    assert isinstance(trace, StreamedTrace) and trace.jobs == 3
    # the whole point: a checkpointable generator must NOT fall back
    assert trace._parallel_source() is None
    assert trace._parallel_plan() is not None
    parallel = evaluate_schedule(
        schedule2, graph, HORIZON, name=name, trace=trace, config=cfg(backend=backend))

    assert parallel.muls == serial.muls, (name, backend, chunk)
    assert parallel.periods == serial.periods, (name, backend, chunk)
    assert parallel.rates == serial.rates, (name, backend, chunk)
    assert parallel.summary() == serial.summary(), (name, backend, chunk)

    # per-appearance passes (parallel replay from the captured handles)
    for node in graph.nodes():
        assert trace.appearances(node) == serial_trace.appearances(node), (name, node)
    assert trace.all_gaps() == serial_trace.all_gaps(), (name, backend, chunk)

    # legality, both fail-fast settings, on fresh builds
    for fail_fast in (False, True):
        s_sched = get_scheduler(name).build(graph, seed=5)
        s_val = validate_schedule(
            s_sched, graph, HORIZON, check_periodic=True, fail_fast=fail_fast,
            config=cfg(backend=backend, mode="stream", chunk=chunk, jobs=1))
        p_sched = get_scheduler(name).build(graph, seed=5)
        p_val = validate_schedule(
            p_sched, graph, HORIZON, check_periodic=True, fail_fast=fail_fast,
            config=cfg(backend=backend, mode="stream", chunk=chunk, jobs=3))
        assert p_val.ok == s_val.ok, (name, backend, chunk, fail_fast)
        assert report_tuples(p_val) == report_tuples(s_val), (name, backend, chunk, fail_fast)


@pytest.mark.parametrize("chunk", (1, 7, 16, HORIZON, 200))
def test_per_appearance_passes_at_adversarial_chunk_geometry(chunk):
    """appearances/all_gaps under jobs=3 at chunk widths 1, non-dividing,
    dividing, == horizon and > horizon must match the dense reference."""
    graph = erdos_renyi(8, 0.35, seed=11, name="gnp-8")
    reference = get_scheduler("phased-greedy").build(graph, seed=2)
    sets = reference.prefix(HORIZON)
    expected_appearances = {
        p: [t for t, s in enumerate(sets, start=1) if p in s] for p in graph.nodes()
    }

    schedule = get_scheduler("phased-greedy").build(graph, seed=2)
    trace = StreamedTrace(schedule, graph, HORIZON, chunk=chunk, jobs=3)
    for p in graph.nodes():
        assert trace.appearances(p) == expected_appearances[p], (chunk, p)
    gaps = trace.all_gaps()
    for p in graph.nodes():
        times = expected_appearances[p]
        if not times:
            assert gaps[p] == [HORIZON]
        else:
            assert gaps[p] == (
                [times[0] - 1]
                + [b - a - 1 for a, b in zip(times, times[1:])]
                + [HORIZON - times[-1]]
            ), (chunk, p)


@pytest.mark.parametrize("jobs", (1, 3))
def test_windowed_generator_replays_evicted_history(jobs):
    """A windowed phased-greedy evicts its past during the summary scan;
    checkpoints captured at chunk boundaries must replay it for happy_set,
    appearances, all_gaps and conflicting_holidays — serial and parallel."""
    graph = erdos_renyi(9, 0.35, seed=4, name="gnp-9w")
    dense = get_scheduler("phased-greedy").build(graph, seed=7)
    sets = dense.prefix(HORIZON)

    scheduler = PhasedGreedyScheduler(initial_coloring="greedy").with_window(16)
    schedule = scheduler.build(graph, seed=7)
    trace = StreamedTrace(schedule, graph, HORIZON, chunk=16, jobs=jobs)
    trace._scan()  # the forward pass that evicts early history
    assert schedule.evicted_below > 0

    assert trace.happy_set(1) == sets[0]
    assert trace.happy_set(17) == sets[16]
    for p in graph.nodes():
        assert trace.appearances(p) == [t for t, s in enumerate(sets, start=1) if p in s]
    assert trace.conflicting_holidays() == {}
    gaps = trace.all_gaps()
    assert all(sum(g) + len(trace.appearances(p)) == HORIZON for p, g in gaps.items())


def test_windowed_generator_without_protocol_still_single_pass():
    """Without checkpoint=/restore=, a windowed generator keeps its historical
    limitation: second passes over evicted history raise."""
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    schedule = GeneratorSchedule(
        graph, lambda t: [t % 2], validate=False, window=4)
    trace = StreamedTrace(schedule, graph, 64, chunk=8, jobs=1)
    trace._scan()
    assert schedule.evicted_below > 0
    with pytest.raises(ValueError, match="evicted"):
        trace.appearances(0)


# ---------------------------------------------------------------------------
# layer 3: the knob and the warning
# ---------------------------------------------------------------------------

def test_checkpoint_false_forces_serial_with_identical_results():
    graph = erdos_renyi(9, 0.3, seed=9, name="gnp-9k")
    engine = cfg(mode="stream", chunk=13, jobs=3)

    schedule = get_scheduler("phased-greedy").build(graph, seed=1)
    default = build_trace(schedule, graph, HORIZON, config=engine)
    assert default.checkpoint and default._parallel_plan() is not None

    schedule2 = get_scheduler("phased-greedy").build(graph, seed=1)
    disabled = build_trace(
        schedule2, graph, HORIZON,
        config=cfg(mode="stream", chunk=13, jobs=3, checkpoint=False))
    assert isinstance(disabled, StreamedTrace) and disabled.checkpoint is False
    assert disabled._parallel_plan() is None  # quiet serial scan
    assert disabled.muls() == default.muls()
    assert disabled.all_gaps() == default.all_gaps()
    assert disabled.happiness_rates() == default.happiness_rates()


def test_checkpoint_knob_never_moves_default_cells():
    """checkpoint=True is the default, so it never enters non_default() and
    therefore never perturbs cell ids or cache keys minted before the knob
    existed; disabling it is an explicit override that does."""
    assert "checkpoint" not in EngineConfig().non_default()
    assert EngineConfig(checkpoint=False).non_default() == {"checkpoint": False}
    # cache_key ignores it entirely: a disabled-checkpoint run reuses cells
    assert EngineConfig(checkpoint=False).cache_key() == EngineConfig().cache_key()


def test_serial_fallback_warns_once_naming_schedule_and_reason(caplog):
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    schedule = GeneratorSchedule(graph, lambda t: [t % 2], validate=False, name="opaque-gen")
    trace = StreamedTrace(schedule, graph, 40, chunk=4, jobs=4)
    with caplog.at_level(logging.WARNING, logger="repro.core.trace"):
        trace._scan()
        trace.all_gaps()  # a second pass must not warn again
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    message = warnings[0].getMessage()
    assert "opaque-gen" in message          # names the schedule
    assert "checkpoint/restore" in message  # names the missing protocol
    assert "serial" in message              # states the consequence


@pytest.mark.parametrize(
    "make_trace",
    [
        # checkpointable schedule: parallelises, nothing to warn about
        lambda g: StreamedTrace(
            get_scheduler("phased-greedy").build(g, seed=0), g, 40, chunk=4, jobs=4),
        # jobs=1: the user never asked for parallelism
        lambda g: StreamedTrace(
            GeneratorSchedule(g, lambda t: [t % 2], validate=False), g, 40, chunk=4, jobs=1),
        # user disabled checkpointing: the serial scan is the request, not a surprise
        lambda g: StreamedTrace(
            GeneratorSchedule(g, lambda t: [t % 2], validate=False),
            g, 40, chunk=4, jobs=4, checkpoint=False),
    ],
)
def test_no_warning_when_serial_is_expected(caplog, make_trace):
    graph = ConflictGraph.from_edges([(0, 1)], name="p2")
    trace = make_trace(graph)
    with caplog.at_level(logging.WARNING, logger="repro.core.trace"):
        trace._scan()
    assert [r for r in caplog.records if r.levelno == logging.WARNING] == []
