"""Baseline schedulers from the paper's introduction.

Three strawmen that frame the results:

* :class:`SequentialScheduler` — the "Trivial" example of Section 4: nodes
  take turns one at a time, giving everyone a gap of ``|P|`` regardless of
  degree.  Legal, perfectly periodic, and maximally non-local.
* :class:`RoundRobinColorScheduler` — color the graph and cycle through the
  color classes; with a ``Δ+1`` coloring this is the ``mul(p) = Δ + 1``
  solution the paper calls "not pleasing" because a one-child family waits
  for the big broods.
* :class:`FirstComeFirstGrabScheduler` — the "chaotic" randomized process:
  every holiday parents wake at random times and grab their still-available
  children; a parent is happy when it wakes before all of its in-laws.  Its
  *expected* hosting interval is ``deg(p) + 1``, the fair-share landmark the
  deterministic algorithms are measured against, but it gives no worst-case
  guarantee and is not periodic.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional

import numpy as np

from repro.algorithms.base import Scheduler, SchedulerInfo
from repro.coloring.base import Coloring
from repro.coloring.greedy import greedy_coloring
from repro.core.problem import ConflictGraph, Node
from repro.core.schedule import GeneratorSchedule, PeriodicSchedule, Schedule, SlotAssignment
from repro.utils.rng import RngStream

__all__ = [
    "SequentialScheduler",
    "RoundRobinColorScheduler",
    "FirstComeFirstGrabScheduler",
]


class SequentialScheduler(Scheduler):
    """One node per holiday, cycling through the node list.

    Every node's period is exactly ``n = |P|`` — the canonical example of a
    schedule whose quality depends on a *global* property.
    """

    info = SchedulerInfo(
        name="sequential",
        periodic=True,
        local_bound="n (global)",
        paper_section="§4 example 1",
    )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        nodes = graph.nodes()
        n = max(len(nodes), 1)
        assignments = {
            p: SlotAssignment(period=n, phase=(idx + 1) % n) for idx, p in enumerate(nodes)
        }
        return PeriodicSchedule(graph, assignments, check_conflicts=True, name=self.info.name)

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        n = graph.num_nodes()
        return lambda p: float(max(n, 1))

    @property
    def seeded(self) -> bool:
        return False


class RoundRobinColorScheduler(Scheduler):
    """Cycle through the color classes of a legal coloring.

    With ``C`` colors every node is happy exactly every ``C`` holidays:
    on holiday ``i`` the class ``(i mod C) + 1`` hosts, exactly as described
    in Section 1 ("Connection to coloring").  Using a greedy ``Δ+1``
    coloring reproduces the ``Δ + 1`` strawman; callers may inject a better
    coloring function to study how the chromatic number drives this bound.
    """

    def __init__(self, coloring_fn: Optional[Callable[[ConflictGraph], Coloring]] = None) -> None:
        self._coloring_fn = coloring_fn or greedy_coloring
        self.last_coloring: Optional[Coloring] = None

    info = SchedulerInfo(
        name="round-robin-color",
        periodic=True,
        local_bound="C (number of colors, global)",
        paper_section="§1 coloring connection",
    )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        coloring = self._coloring_fn(graph).relabel_compact()
        self.last_coloring = coloring
        num_colors = max(coloring.max_color(), 1)
        assignments: Dict[Node, SlotAssignment] = {}
        for p in graph.nodes():
            color = coloring.color_of(p) if graph.num_nodes() else 1
            # Holiday i hosts color (i mod C) + 1, i.e. color c hosts when i ≡ c - 1 (mod C).
            assignments[p] = SlotAssignment(period=num_colors, phase=(color - 1) % num_colors)
        return PeriodicSchedule(graph, assignments, check_conflicts=True, name=self.info.name)

    def bound_function(self, graph: ConflictGraph) -> Callable[[Node], float]:
        coloring = self.last_coloring or self._coloring_fn(graph).relabel_compact()
        num_colors = max(coloring.max_color(), 1)
        return lambda p: float(num_colors)

    @property
    def seeded(self) -> bool:
        return False


#: holidays of wake-up times :func:`_fcfg_step` draws in one rng call
FCFG_BLOCK = 64
#: at most this many wake-up times (8 MiB of doubles) per block, so a graph
#: with more than ``FCFG_BLOCK_DRAWS / FCFG_BLOCK`` nodes draws shorter blocks
FCFG_BLOCK_DRAWS = 1 << 20


def _fcfg_step(graph: ConflictGraph, rng: RngStream) -> Callable[[int], FrozenSet[Node]]:
    """The per-holiday body of first-come-first-grab over a given rng.

    Shared by :meth:`FirstComeFirstGrabScheduler.build` and the checkpoint
    ``restore`` path so both sides draw the exact same wake-up sequence.
    Wake-up times are drawn for a block of up to :data:`FCFG_BLOCK`
    holidays at once: one ``(rows, n)`` draw is the same stream as ``rows``
    draws of ``n`` in node order, so a block changes no holiday.  The
    strict local minima of a whole block are found in one pass: nodes are
    ranked by falling degree, so the nodes with a ``j``-th neighbour are a
    prefix of that ranking and neighbour slot ``j`` is one gather of wake-up
    rows (a jagged-diagonal layout, ``O(rows · (n + m))`` work and memory).
    Each call then serves one holiday's happy set in node order.

    The returned step carries its own ``checkpoint`` serializer: the rng
    runs ahead of the served holidays inside a block, so the position at
    the frontier is the block's start advanced by one draw per node per
    served holiday — the bytes a per-holiday draw would have left.
    """
    nodes = graph.nodes()
    n = len(nodes)
    adjacency = graph.index_adjacency()
    rows = max(1, min(FCFG_BLOCK, FCFG_BLOCK_DRAWS // max(n, 1)))
    ranking = sorted(range(n), key=lambda i: len(adjacency[i]), reverse=True)
    ranked = [adjacency[i] for i in ranking]
    slots = []  # slots[j]: the j-th neighbour of each node with one, in ranking order
    width = n
    for j in range(len(ranked[0]) if ranked else 0):
        while len(ranked[width - 1]) <= j:
            width -= 1
        slots.append(np.array([row[j] for row in ranked[:width]], dtype=np.intp))
    ranking = np.array(ranking, dtype=np.intp)
    block: List[List[int]] = []  # happy node indices of each holiday in the block
    served = 0
    block_start = b""

    def draw() -> None:
        nonlocal block, served, block_start
        block_start = rng.getstate()
        wake = np.ascontiguousarray(rng.random((rows, n)).T)
        least = np.full((n, rows), np.inf)  # least neighbour wake-up, in ranking order
        for slot in slots:
            head = least[: len(slot)]
            np.minimum(head, wake[slot], out=head)
        happy = np.empty((n, rows), dtype=bool)
        happy[ranking] = wake[ranking] < least
        holiday, node = np.nonzero(happy.T)
        cuts = np.searchsorted(holiday, np.arange(rows + 1)).tolist()
        node = node.tolist()
        block = [node[a:b] for a, b in zip(cuts, cuts[1:])]
        served = 0

    def step(holiday: int) -> FrozenSet[Node]:
        nonlocal served
        if served == len(block):
            draw()
        members = block[served]
        served += 1
        return frozenset([nodes[i] for i in members])

    def checkpoint() -> bytes:
        if served == len(block):  # at a block boundary the live position is exact
            return rng.getstate()
        position = RngStream(0, ("fcfg", graph.name))
        position.setstate(block_start)
        position.advance(served * n)
        return position.getstate()

    step.checkpoint = checkpoint
    return step


def _fcfg_restore(graph: ConflictGraph, state: bytes) -> Callable[[int], FrozenSet[Node]]:
    """Module-level ``restore`` half of the checkpoint protocol: the whole
    algorithm state is the rng position (the step body never reads the
    holiday index), so resuming is just rewinding a fresh stream to the
    serialized position.  The step's own ``checkpoint`` makes resumed
    schedules checkpointable in turn (checkpoints chain)."""
    rng = RngStream(0, ("fcfg", graph.name))
    rng.setstate(state)
    return _fcfg_step(graph, rng)


class FirstComeFirstGrabScheduler(Scheduler):
    """The randomized "first come first grab" process.

    Each holiday every parent draws an independent uniform wake-up time; a
    parent is happy when its wake-up time beats all of its in-laws' (it
    grabs every couple it shares before the other side does).  The happy set
    is exactly the set of local minima of the wake-up order, which is always
    an independent set.  Per holiday, ``P(p happy) = 1/(deg(p)+1)``.
    """

    info = SchedulerInfo(
        name="first-come-first-grab",
        periodic=False,
        local_bound="expected deg+1 (no worst-case bound)",
        paper_section="§1 fair share discussion",
    )

    def build(self, graph: ConflictGraph, seed: int = 0) -> Schedule:
        step = _fcfg_step(graph, RngStream(seed, ("fcfg", graph.name)))
        return GeneratorSchedule(
            graph,
            step,
            validate=False,
            name=self.info.name,
            checkpoint=step.checkpoint,
            restore=_fcfg_restore,
        )

    def bound_function(self, graph: ConflictGraph) -> None:
        # Randomized: no deterministic worst-case bound to certify.
        return None
