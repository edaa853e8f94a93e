"""Section 3: the non-periodic, degree-bound Phased Greedy scheduler.

The algorithm keeps a legal coloring that evolves over time:

1. **Initialisation** — color the graph so that ``col(p) ≤ deg(p) + 1``
   (the paper uses the BEPS distributed algorithm; we default to our
   LOCAL-model stand-in and also allow the cheap sequential greedy coloring
   for large experiments — the guarantee only needs the ``deg+1`` property).
2. **Holiday ``i``** — every node with ``col(p) = i`` is happy, then
   immediately recolors itself with the smallest integer ``t > i`` not used
   by any neighbor.  Since ``p`` has ``deg(p)`` neighbors, the new color is
   at most ``i + deg(p) + 1``, so ``p`` is happy again within ``deg(p) + 1``
   holidays — Theorem 3.1.

The schedule is aperiodic in general (the gap of a node varies between
holidays depending on which colors its neighbors currently occupy) and
requires ``O(1)`` communication rounds per holiday; both facts are surfaced
by the E1/E6 benchmarks.
"""

from __future__ import annotations

import pickle
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.coloring.base import Coloring
from repro.coloring.distributed import distributed_deg_plus_one_coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import GeneratorSchedule, Schedule

__all__ = ["PhasedGreedyState", "PhasedGreedyScheduler"]


class PhasedGreedyState:
    """Mutable state of the Phased Greedy algorithm (the evolving coloring).

    Exposed separately from the scheduler so tests can step it manually and
    inspect the color dynamics, and so the dynamic-setting experiments can
    reuse the recoloring rule.
    """

    def __init__(self, graph: ConflictGraph, initial: Coloring) -> None:
        if initial.graph is not graph and set(initial.colors) != set(graph.nodes()):
            raise ValueError("initial coloring must cover exactly the graph's nodes")
        self.graph = graph
        self.colors: Dict[Node, int] = dict(initial.colors)
        self.holiday = 0
        self.recolor_events = 0
        self._index_state()

    def _index_state(self) -> None:
        """Derive the index-space mirror of :attr:`colors` the step runs on:
        the node list, one color per index and the ``color -> [indices]``
        buckets (each node sits in the bucket of the holiday it will next
        host)."""
        self._nodes: List[Node] = self.graph.nodes()
        self._col: List[int] = [self.colors[p] for p in self._nodes]
        self._buckets: Dict[int, List[int]] = {}
        for idx, color in enumerate(self._col):
            self._buckets.setdefault(color, []).append(idx)

    def step(self) -> FrozenSet[Node]:
        """Advance one holiday: return the happy set and recolor it.

        Implements the loop body of the *Phased Greedy Coloring* algorithm:
        at holiday ``i`` the nodes with current color ``i`` are happy, and
        each picks the smallest color ``> i`` unused among its neighbors.
        The happy nodes are exactly bucket ``i``, so a holiday costs
        ``O(sum of happy degrees)`` rather than a scan of every node; they
        are recolored in node order, as a scan would visit them.  The
        adjacency is read from the graph every holiday, so edges added or
        removed between existing nodes (§6) take effect at the next step.
        """
        self.holiday += 1
        i = self.holiday
        happy = self._buckets.pop(i, [])
        happy.sort()
        col, nodes, buckets, colors = self._col, self._nodes, self._buckets, self.colors
        adj = self.graph.index_adjacency()
        for idx in happy:
            taken = {col[j] for j in adj[idx]}
            new_color = i + 1
            while new_color in taken:
                new_color += 1
            col[idx] = new_color
            colors[nodes[idx]] = new_color
            buckets.setdefault(new_color, []).append(idx)
        self.recolor_events += len(happy)
        return frozenset([nodes[idx] for idx in happy])

    def color_of(self, node: Node) -> int:
        """Current (next-hosting-holiday) color of ``node``."""
        return self.colors[node]

    def next_hosting(self, node: Node) -> int:
        """The next holiday at which ``node`` will host (its current color)."""
        return self.colors[node]

    # -- checkpoint protocol -------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the state for :meth:`GeneratorSchedule.checkpoint`.

        The whole algorithm state is the evolving coloring plus the holiday
        counter — a pure function of the generated prefix, which is what
        makes Phased Greedy checkpointable.  Colors are stored by node
        *index* (graph order), so the bytes never depend on node pickling
        and stay compact.
        """
        return pickle.dumps((self.holiday, self.recolor_events, list(self._col)))

    @classmethod
    def from_bytes(cls, graph: ConflictGraph, state: bytes) -> "PhasedGreedyState":
        """Rebuild a state snapshotted by :meth:`to_bytes` over ``graph``."""
        holiday, recolor_events, colors = pickle.loads(state)
        nodes = graph.nodes()
        if len(colors) != len(nodes):
            raise ValueError(
                f"checkpoint carries {len(colors)} colors but graph "
                f"{graph.name!r} has {len(nodes)} nodes"
            )
        obj = cls.__new__(cls)
        obj.graph = graph
        obj.colors = dict(zip(nodes, colors))
        obj.holiday = holiday
        obj.recolor_events = recolor_events
        obj._index_state()
        return obj


def _phased_greedy_restore(graph: ConflictGraph, state: bytes) -> Callable[[int], FrozenSet[Node]]:
    """Module-level ``restore`` half of the checkpoint protocol (picklable
    by reference, so :class:`~repro.core.schedule.GeneratorCheckpoint`
    handles can cross process boundaries)."""
    resumed = PhasedGreedyState.from_bytes(graph, state)

    def step(holiday: int) -> FrozenSet[Node]:
        if holiday != resumed.holiday + 1:
            raise RuntimeError(
                f"Phased Greedy must be advanced sequentially (expected holiday "
                f"{resumed.holiday + 1}, got {holiday})"
            )
        return resumed.step()

    # resumed schedules are checkpointable in turn (checkpoints chain)
    step.checkpoint = resumed.to_bytes
    return step


class PhasedGreedyScheduler(Scheduler):
    """Theorem 3.1 scheduler: ``mul(p) ≤ deg(p) + 1``, aperiodic, O(1) rounds/holiday.

    Args:
        initial_coloring: ``"distributed"`` (default) runs the LOCAL-model
            (deg+1)-coloring for initialisation, matching the paper's setup;
            ``"greedy"`` uses the sequential greedy coloring (same guarantee,
            cheaper to construct — useful for large benchmark instances);
            alternatively a callable ``graph -> Coloring`` may be supplied.
        window: forwarded to the produced
            :class:`~repro.core.schedule.GeneratorSchedule`: ``None``
            (default) memoises the whole generated prefix, an integer turns
            the memo into a sliding window of that many holidays so a
            streamed evaluation runs at memory bounded by the window, not
            the horizon.  Windowed schedules support a single forward pass
            — see the ``GeneratorSchedule`` notes before opting in.
    """

    def __init__(
        self,
        initial_coloring: str | Callable[[ConflictGraph], Coloring] = "distributed",
        window: Optional[int] = None,
    ) -> None:
        self._initial_coloring = initial_coloring
        self._window = window
        self.last_state: Optional[PhasedGreedyState] = None
        self.init_rounds: Optional[int] = None
        self.init_messages: Optional[int] = None

    def with_window(self, window: Optional[int]) -> "PhasedGreedyScheduler":
        """A copy of this scheduler whose schedules keep a sliding window
        of ``window`` holidays (see :class:`Scheduler.with_window`)."""
        if window == self._window:
            return self
        return PhasedGreedyScheduler(self._initial_coloring, window=window)

    info = SchedulerInfo(
        name="phased-greedy",
        periodic=False,
        local_bound="deg(p) + 1",
        paper_section="§3, Theorem 3.1",
    )

    def _make_initial(self, graph: ConflictGraph, seed: int) -> Coloring:
        if callable(self._initial_coloring):
            return self._initial_coloring(graph)
        if self._initial_coloring == "distributed":
            return distributed_deg_plus_one_coloring(graph, seed=seed)
        if self._initial_coloring == "greedy":
            return greedy_coloring(graph)
        raise ValueError(
            f"unknown initial_coloring {self._initial_coloring!r}; "
            "expected 'distributed', 'greedy' or a callable"
        )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        initial = self._make_initial(graph, seed)
        if not initial.is_degree_bounded():
            raise ValueError(
                "Phased Greedy requires an initial coloring with col(p) <= deg(p) + 1"
            )
        state = PhasedGreedyState(graph, initial)
        self.last_state = state
        self.init_rounds = initial.rounds
        self.init_messages = initial.messages

        def step(holiday: int) -> FrozenSet[Node]:
            if holiday != state.holiday + 1:
                raise RuntimeError(
                    f"Phased Greedy must be advanced sequentially (expected holiday "
                    f"{state.holiday + 1}, got {holiday})"
                )
            return state.step()

        return GeneratorSchedule(
            graph,
            step,
            validate=False,
            name=self.info.name,
            window=self._window,
            checkpoint=state.to_bytes,
            restore=_phased_greedy_restore,
        )

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        """Theorem 3.1 bound ``deg(p) + 1``."""
        return lambda p: float(graph.degree(p) + 1)

    @property
    def seeded(self) -> bool:
        """False only for the sequential greedy initial colouring; the
        distributed colouring is seeded, and a supplied callable is not
        known to be seed-free."""
        return self._initial_coloring != "greedy"
