"""The :meth:`Schedule.content_key` contract.

Equal keys over the same graph mean the same happy set at every holiday;
``None`` means the schedule cannot vouch for its content.  The experiment
engine evaluates one representative per key, so a key that collides for
two different schedules would silently copy one cell's record into
another's.  These tests hold the keys of every registered scheduler to
the schedules' actual prefixes, and pin down when a key must be ``None``.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.algorithms.phased_greedy import PhasedGreedyScheduler
from repro.algorithms.registry import available_schedulers, get_scheduler
from repro.coloring.greedy import greedy_coloring
from repro.core.schedule import ExplicitSchedule, GeneratorSchedule
from repro.graphs.suites import SMALL_WORKLOADS, get_workload

HORIZON = 64
SEEDS = range(6)


@pytest.mark.parametrize("workload", sorted(SMALL_WORKLOADS))
def test_equal_keys_mean_equal_prefixes(workload):
    """Every registered scheduler × seeds 0–5 on one graph: schedules that
    share a key share their first ``HORIZON`` happy sets — across
    schedulers too, since the key speaks about content, not provenance."""
    graph = get_workload(workload)
    by_key = defaultdict(list)
    for name in available_schedulers():
        for seed in SEEDS:
            schedule = get_scheduler(name).build(graph, seed=seed)
            key = schedule.content_key()  # before any holiday is generated
            if key is not None:
                by_key[key].append((name, seed, schedule))
    assert by_key, "no scheduler produced a key"
    # the deterministic constructions collapse their seed sweeps
    assert max(len(members) for members in by_key.values()) >= len(SEEDS)
    for members in by_key.values():
        _, _, first = members[0]
        expected = first.prefix(HORIZON)
        for name, seed, schedule in members[1:]:
            assert schedule.prefix(HORIZON) == expected, (workload, name, seed)


@pytest.mark.parametrize(
    "name", ["sequential", "round-robin-color", "degree-periodic", "color-periodic-omega",
             "phased-greedy"],
)
def test_deterministic_schedulers_key_equal_across_seeds(name):
    graph = get_workload("small/gnp")
    keys = {get_scheduler(name).build(graph, seed=seed).content_key() for seed in SEEDS}
    assert len(keys) == 1 and None not in keys


def test_phased_greedy_initial_colourings_get_different_keys():
    """Phased Greedy's whole run is fixed by its initial colouring, so two
    different (deg+1)-colourings must key apart."""
    graph = get_workload("small/path")
    forward = greedy_coloring(graph)
    backward = greedy_coloring(graph, order=list(reversed(graph.nodes())))
    assert forward.colors != backward.colors
    a = PhasedGreedyScheduler(initial_coloring=lambda g: forward).build(graph)
    b = PhasedGreedyScheduler(initial_coloring=lambda g: backward).build(graph)
    assert a.content_key() is not None and b.content_key() is not None
    assert a.content_key() != b.content_key()
    assert a.prefix(HORIZON) != b.prefix(HORIZON)


@pytest.mark.parametrize("workload", sorted(SMALL_WORKLOADS))
def test_first_come_first_grab_seeds_never_share_a_key(workload):
    graph = get_workload(workload)
    scheduler = get_scheduler("first-come-first-grab")
    keys = [scheduler.build(graph, seed=seed).content_key() for seed in range(32)]
    assert None not in keys
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", ["phased-greedy", "first-come-first-grab"])
def test_generator_key_is_none_once_a_holiday_was_generated(name):
    graph = get_workload("small/cycle")
    schedule = get_scheduler(name).build(graph, seed=3)
    assert schedule.content_key() is not None
    schedule.happy_set(1)
    assert schedule.content_key() is None


@pytest.mark.parametrize("name", ["phased-greedy", "first-come-first-grab"])
def test_resumed_schedule_has_no_key(name):
    """A schedule resumed at ``start > 0`` never had the state at holiday 0."""
    graph = get_workload("small/cycle")
    schedule = get_scheduler(name).build(graph, seed=3)
    schedule.prefix(5)
    resumed = schedule.checkpoint_handle(5).resume()
    assert resumed.start == 5 and resumed.frontier() == 5
    assert resumed.content_key() is None


@pytest.mark.parametrize("name", ["phased-greedy", "first-come-first-grab"])
def test_restore_at_holiday_zero_keys_equal(name):
    """Restoring the state at holiday 0 rebuilds the same schedule, and its
    key says so."""
    graph = get_workload("small/gnp")
    schedule = get_scheduler(name).build(graph, seed=3)
    twin = schedule.restore(schedule.checkpoint(0), 0)
    assert twin.content_key() == schedule.content_key()
    assert twin.prefix(HORIZON) == schedule.prefix(HORIZON)


def test_non_checkpointable_generators_have_no_key():
    graph = get_workload("small/path")
    step = lambda t: []  # noqa: E731
    assert GeneratorSchedule(graph, step).content_key() is None
    assert GeneratorSchedule(graph, step, checkpoint=lambda: b"").content_key() is None


def test_explicit_schedules_have_no_key():
    graph = get_workload("small/path")
    assert ExplicitSchedule(graph, [[]], cyclic=True).content_key() is None
