"""The index-based generator kernels against their dict-based definitions.

Phased Greedy (§3) steps over integer node indices and colour buckets;
first-come-first-grab draws the wake-up times of a block of holidays at
once.  The contract is that none of this is observable: the happy-set
stream and every checkpoint are byte-identical to the straightforward
node-keyed step bodies kept here as a test-local oracle.  Covered for
every ``small/*`` workload, six seeds and both initial colourings, and for
first-come-first-grab across several blocks, with checkpoints and restores
on both sides of each block edge.

The last block pins the adjacency cache the kernels read to the graph's
mutation methods — the dynamic setting of §6 adds and removes edges and
nodes after construction.
"""

from __future__ import annotations

import pickle

import pytest

import repro.algorithms.naive as naive
from repro.algorithms.naive import FCFG_BLOCK, FirstComeFirstGrabScheduler
from repro.algorithms.phased_greedy import PhasedGreedyScheduler
from repro.coloring.distributed import distributed_deg_plus_one_coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph
from repro.graphs.suites import expand_workload_names, get_workload
from repro.utils.rng import RngStream

WORKLOADS = expand_workload_names(["small/*"])
SEEDS = (0, 1, 2, 3, 7, 11)
HORIZON = 48
CHECKPOINTS = (1, 13, HORIZON)
#: first-come-first-grab runs past three block edges ...
LONG_HORIZON = 3 * FCFG_BLOCK + 5
#: ... and is cut mid-block and on both sides of an edge
BLOCK_CUTS = (
    FCFG_BLOCK // 2, FCFG_BLOCK - 1, FCFG_BLOCK, FCFG_BLOCK + 1, 2 * FCFG_BLOCK + FCFG_BLOCK // 2
)


class _DictPhasedGreedy:
    """The node-keyed Phased Greedy step: scan every node for colour ``i``,
    recolour each to the smallest colour ``> i`` its neighbours do not use."""

    def __init__(self, graph, initial):
        self.nodes = graph.nodes()
        self.nx = graph.to_networkx()
        self.colors = dict(initial.colors)
        self.holiday = 0
        self.recolor_events = 0

    def step(self):
        self.holiday += 1
        i = self.holiday
        happy = [p for p in self.nodes if self.colors[p] == i]
        for p in happy:
            taken = {self.colors[q] for q in self.nx.neighbors(p)}
            color = i + 1
            while color in taken:
                color += 1
            self.colors[p] = color
            self.recolor_events += 1
        return frozenset(happy)

    def to_bytes(self):
        colors = [self.colors[p] for p in self.nodes]
        return pickle.dumps((self.holiday, self.recolor_events, colors))


class _DictFirstComeFirstGrab:
    """The node-keyed first-come-first-grab step: one scalar draw per node,
    happy when its wake-up time beats every neighbour's."""

    def __init__(self, graph, seed):
        self.nodes = graph.nodes()
        self.nx = graph.to_networkx()
        self.rng = RngStream(seed, ("fcfg", graph.name))

    def step(self):
        wake = {p: self.rng.random() for p in self.nodes}
        return frozenset(
            p for p in self.nodes if all(wake[p] < wake[q] for q in self.nx.neighbors(p))
        )

    def to_bytes(self):
        return self.rng.getstate()


def _assert_same_stream(schedule, oracle, start=0, horizon=HORIZON, checkpoints=CHECKPOINTS):
    for t in range(start + 1, horizon + 1):
        expected = oracle.step()
        got = schedule.happy_set(t)
        assert got == expected, f"holiday {t}"
        assert list(got) == list(expected), f"holiday {t}: iteration order"
        if t in checkpoints:
            assert schedule.checkpoint(t) == oracle.to_bytes(), f"checkpoint at {t}"


def _initial(mode, graph, seed):
    if mode == "greedy":
        return greedy_coloring(graph)
    return distributed_deg_plus_one_coloring(graph, seed=seed)


@pytest.mark.parametrize("mode", ["distributed", "greedy"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_phased_greedy_matches_dict_oracle(workload, seed, mode):
    graph = get_workload(workload)
    schedule = PhasedGreedyScheduler(initial_coloring=mode).build(graph, seed=seed)
    oracle = _DictPhasedGreedy(graph, _initial(mode, graph, seed))
    _assert_same_stream(schedule, oracle)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_come_first_grab_matches_dict_oracle(workload, seed):
    graph = get_workload(workload)
    schedule = FirstComeFirstGrabScheduler().build(graph, seed=seed)
    _assert_same_stream(schedule, _DictFirstComeFirstGrab(graph, seed))


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_come_first_grab_blocks_match_dict_oracle(workload, seed):
    """Several blocks of drawn wake-up times serve the oracle's stream, and
    a checkpoint taken anywhere in a block is the per-holiday position."""
    graph = get_workload(workload)
    schedule = FirstComeFirstGrabScheduler().build(graph, seed=seed)
    _assert_same_stream(
        schedule,
        _DictFirstComeFirstGrab(graph, seed),
        horizon=LONG_HORIZON,
        checkpoints=BLOCK_CUTS + (LONG_HORIZON,),
    )


@pytest.mark.parametrize("cut", BLOCK_CUTS)
def test_first_come_first_grab_resumes_at_block_edges(cut):
    """A restore mid-block starts a fresh block at the checkpointed
    position; the resumed schedule follows the oracle and checkpoints
    correctly around its own block edges (checkpoints chain)."""
    graph = get_workload("small/gnp")
    schedule = FirstComeFirstGrabScheduler().build(graph, seed=1)
    oracle = _DictFirstComeFirstGrab(graph, 1)
    for t in range(1, cut + 1):
        assert schedule.happy_set(t) == oracle.step()
    state = schedule.checkpoint(cut)
    assert state == oracle.to_bytes()
    resumed = schedule.restore(state, start=cut)
    own_edges = tuple(cut + d for d in (1, FCFG_BLOCK - 1, FCFG_BLOCK, FCFG_BLOCK + 1))
    _assert_same_stream(
        resumed, oracle, start=cut, horizon=LONG_HORIZON, checkpoints=own_edges + (LONG_HORIZON,)
    )


def test_first_come_first_grab_short_blocks_are_the_same_stream(monkeypatch):
    """Graphs too large for a full block draw fewer holidays per block;
    the stream and checkpoints do not depend on the block length."""
    graph = get_workload("small/gnp")
    monkeypatch.setattr(naive, "FCFG_BLOCK_DRAWS", 3 * graph.num_nodes())
    schedule = FirstComeFirstGrabScheduler().build(graph, seed=2)
    _assert_same_stream(
        schedule, _DictFirstComeFirstGrab(graph, 2), checkpoints=(1, 2, 3, 4, 5, 13, HORIZON)
    )


@pytest.mark.parametrize(
    "graph",
    [
        ConflictGraph(name="empty"),
        ConflictGraph(edges=[(0, 1), (1, 2)], nodes=[3, 4], name="isolated"),
    ],
    ids=["empty", "isolated"],
)
def test_first_come_first_grab_without_neighbours(graph):
    """A node with no neighbour is a local minimum every holiday, and an
    empty graph draws nothing."""
    schedule = FirstComeFirstGrabScheduler().build(graph, seed=5)
    _assert_same_stream(
        schedule, _DictFirstComeFirstGrab(graph, 5), horizon=FCFG_BLOCK + 2,
        checkpoints=(1, FCFG_BLOCK, FCFG_BLOCK + 2),
    )


@pytest.mark.parametrize("algorithm", ["phased-greedy", "first-come-first-grab"])
def test_resumed_kernels_match_dict_oracle(algorithm):
    """A schedule restored mid-stream keeps following the oracle, so the
    restore path rebuilds the index state exactly."""
    graph = get_workload("small/gnp")
    seed, cut = 1, 13
    if algorithm == "phased-greedy":
        schedule = PhasedGreedyScheduler(initial_coloring="greedy").build(graph, seed=seed)
        oracle = _DictPhasedGreedy(graph, greedy_coloring(graph))
    else:
        schedule = FirstComeFirstGrabScheduler().build(graph, seed=seed)
        oracle = _DictFirstComeFirstGrab(graph, seed)
    for t in range(1, cut + 1):
        assert schedule.happy_set(t) == oracle.step()
    resumed = schedule.restore(schedule.checkpoint(cut), start=cut)
    _assert_same_stream(resumed, oracle, start=cut)


class TestAdjacencyCache:
    def _graph(self):
        return ConflictGraph(edges=[(0, 1), (1, 2)], name="cache-probe")

    def test_index_adjacency_follows_index_order(self):
        graph = self._graph()
        assert graph.index_adjacency() == ((1,), (0, 2), (1,))
        assert graph.index_adjacency() is graph.index_adjacency()

    def test_neighbors_returns_a_copy(self):
        graph = self._graph()
        graph.neighbors(1).append(99)
        assert graph.neighbors(1) == [0, 2]

    def test_add_edge_invalidates(self):
        graph = self._graph()
        graph.index_adjacency()
        graph.add_edge(0, 2)
        assert graph.neighbors(0) == [1, 2]
        assert graph.index_adjacency() == ((1, 2), (0, 2), (0, 1))
        graph.add_edge(2, 5)  # a new node joins at the end of the index order
        assert graph.index_of(5) == 3
        assert graph.index_adjacency() == ((1, 2), (0, 2), (0, 1, 3), (2,))

    def test_remove_edge_invalidates(self):
        graph = self._graph()
        graph.index_adjacency()
        graph.remove_edge(1, 2)
        assert graph.neighbors(2) == []
        assert graph.index_adjacency() == ((1,), (0,), ())

    def test_add_node_invalidates(self):
        graph = self._graph()
        graph.index_adjacency()
        graph.add_node(7)
        assert graph.neighbors(7) == []
        assert graph.index_adjacency() == ((1,), (0, 2), (1,), ())

    def test_phased_greedy_follows_edges_changed_mid_stream(self):
        graph = get_workload("small/gnp")
        scheduler = PhasedGreedyScheduler(initial_coloring="greedy")
        scheduler.build(graph, seed=0)
        state = scheduler.last_state
        oracle = _DictPhasedGreedy(graph, greedy_coloring(graph))
        u, v = graph.edges()[0]
        w = next(p for p in graph.nodes() if p not in (u, v) and not graph.has_edge(u, p))
        for t in range(1, HORIZON + 1):
            if t == 5:
                graph.remove_edge(u, v)
                oracle.nx.remove_edge(u, v)
            if t == 9:
                graph.add_edge(u, w)
                oracle.nx.add_edge(u, w)
            assert state.step() == oracle.step(), f"holiday {t}"
            assert state.colors == oracle.colors

    def test_schedule_built_after_mutation_sees_the_new_graph(self):
        graph = self._graph()
        FirstComeFirstGrabScheduler().build(graph, seed=0).happy_set(1)
        graph.add_edge(0, 2)
        schedule = FirstComeFirstGrabScheduler().build(graph, seed=3)
        oracle = _DictFirstComeFirstGrab(graph, 3)
        _assert_same_stream(schedule, oracle)
