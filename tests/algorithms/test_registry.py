"""Tests for the scheduler registry."""

import pytest

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.algorithms.registry import available_schedulers, get_scheduler, register_scheduler
from repro.core.schedule import PeriodicSchedule, SlotAssignment
from repro.graphs.suites import expand_workload_names, get_workload


EXPECTED_BUILTINS = {
    "sequential",
    "round-robin-color",
    "first-come-first-grab",
    "phased-greedy",
    "phased-greedy-distributed",
    "color-periodic-omega",
    "color-periodic-omega-dsatur",
    "color-periodic-gamma",
    "color-periodic-delta",
    "degree-periodic",
    "degree-periodic-distributed",
}


class TestRegistry:
    def test_builtins_present(self):
        assert EXPECTED_BUILTINS <= set(available_schedulers())

    def test_get_returns_fresh_instances(self):
        a = get_scheduler("degree-periodic")
        b = get_scheduler("degree-periodic")
        assert a is not b
        assert isinstance(a, Scheduler)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            get_scheduler("does-not-exist")

    def test_register_and_overwrite_rules(self, square_with_diagonal):
        class Dummy(Scheduler):
            info = SchedulerInfo(name="dummy-test", periodic=True, local_bound="1", paper_section="-")

            def build(self, graph, seed=0):
                return PeriodicSchedule(
                    graph,
                    {p: SlotAssignment(len(graph), (i + 1) % len(graph)) for i, p in enumerate(graph.nodes())},
                )

        register_scheduler("dummy-test", Dummy, overwrite=True)
        try:
            assert "dummy-test" in available_schedulers()
            schedule = get_scheduler("dummy-test").build(square_with_diagonal)
            assert schedule.is_periodic()
            with pytest.raises(ValueError):
                register_scheduler("dummy-test", Dummy)
            register_scheduler("dummy-test", Dummy, overwrite=True)  # allowed
        finally:
            # keep the global registry clean for other tests
            from repro.algorithms import registry as _registry

            _registry._FACTORIES.pop("dummy-test", None)

    def test_every_builtin_builds_on_a_small_graph(self, square_with_diagonal):
        for name in EXPECTED_BUILTINS:
            scheduler = get_scheduler(name)
            schedule = scheduler.build(square_with_diagonal, seed=1)
            happy = schedule.happy_set(1)
            assert square_with_diagonal.is_independent_set(happy)


#: builtins whose build never reads its seed (see Scheduler.seeded)
UNSEEDED_BUILTINS = {
    "sequential",
    "round-robin-color",
    "phased-greedy",
    "color-periodic-omega",
    "color-periodic-omega-dsatur",
    "color-periodic-gamma",
    "color-periodic-delta",
    "degree-periodic",
}


class TestSeeded:
    """The ``seeded`` declaration lets the experiment engine share one
    build across seeds, so an unseeded scheduler must really ignore the
    seed: its builds at different seeds are the same schedule."""

    def test_builtin_declarations(self):
        unseeded = {name for name in EXPECTED_BUILTINS if not get_scheduler(name).seeded}
        assert unseeded == UNSEEDED_BUILTINS

    def test_user_schedulers_default_to_seeded(self):
        class Plain(Scheduler):
            info = SchedulerInfo(name="plain", periodic=True, local_bound="1", paper_section="-")

            def build(self, graph, seed=0):  # pragma: no cover - never built
                raise NotImplementedError

        assert Plain().seeded is True

    @pytest.mark.parametrize("workload", expand_workload_names(["small/*"]))
    def test_unseeded_builds_agree_across_seeds(self, workload):
        graph = get_workload(workload)
        for name in available_schedulers():
            if get_scheduler(name).seeded:
                continue
            keys = {get_scheduler(name).build(graph, seed=seed).content_key() for seed in (0, 1, 7, 2**40)}
            assert len(keys) == 1 and None not in keys, name

    def test_seeded_builtins_do_read_the_seed(self):
        """The converse, for the randomised builtins: some seed pair on
        the small suite gives different schedules."""
        graph = get_workload("small/gnp")
        for name in EXPECTED_BUILTINS - UNSEEDED_BUILTINS:
            keys = {get_scheduler(name).build(graph, seed=seed).content_key() for seed in range(4)}
            assert len(keys) > 1, name
