"""``stream-periodic`` and ``stream-generator``: long streamed certification.

One pass builds each scheduler's schedule of ``society`` and runs
:meth:`Session.report` (evaluate + validate: legality, the scheduler's
claimed per-node bound, and periodicity for periodic schedulers) over a
fresh :class:`Session` in ``horizon_mode="stream"``.  Throughput is
holidays evaluated *and* validated per second, median over passes; latency
is one pass's wall time per report, median over passes.

* ``stream-periodic``: ``degree-periodic`` and ``color-periodic-omega``
  at a horizon of 10⁷ with ``stream_jobs=2`` — chunks tile straight from
  the ``(period, phase)`` table, so the time is ``core.trace``'s chunk
  build, scan and merge.
* ``stream-generator``: windowed ``phased-greedy`` and
  ``first-come-first-grab`` with ``stream_jobs=1``, ``window=4096`` and
  ``chunk=1024`` — the time is the generator step in ``algorithms``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from common import Outcome, digest, median, variant_of

GRAPH = "society"
SPECS = {
    "stream-periodic": {
        "algorithms": ("degree-periodic", "color-periodic-omega"),
        "horizon": 10_000_000,
        "config": {"horizon_mode": "stream", "stream_jobs": 2},
        "window": None,
    },
    "stream-generator": {
        "algorithms": ("phased-greedy", "first-come-first-grab"),
        "horizon": 8192,
        "config": {"horizon_mode": "stream", "stream_jobs": 1, "chunk": 1024, "window": 4096},
        "window": 4096,
    },
}


def inputs(name: str, variant: int) -> Tuple[int, Dict[str, int]]:
    """``(graph seed, {algorithm: scheduler seed})`` of one input variant."""
    rng = random.Random(f"{name}/{variant}")
    graph_seed = rng.randrange(2**31)
    return graph_seed, {a: rng.randrange(2**31) for a in SPECS[name]["algorithms"]}


class Stream:
    def __init__(self, name: str, seed: int, pins: Dict[str, object]) -> None:
        from repro.algorithms.registry import get_scheduler
        from repro.api import Session  # noqa: F401  (import cost is set-up)
        from repro.core.config import EngineConfig
        from repro.graphs.suites import get_workload

        spec = SPECS[name]
        self.name = name
        self.variant = variant_of(seed)
        graph_seed, self.seeds = inputs(name, self.variant)
        self.graph = get_workload(GRAPH, seed=graph_seed)
        self.horizon = spec["horizon"]
        self.config = EngineConfig(**spec["config"])
        self.schedulers = {}
        for algorithm in spec["algorithms"]:
            scheduler = get_scheduler(algorithm)
            if spec["window"] is not None:
                scheduler = scheduler.with_window(spec["window"])
            self.schedulers[algorithm] = scheduler
        self.pinned = pins.get(str(self.variant), {})
        self.pass_seconds: List[float] = []

    def report(self, algorithm: str):
        """Build the schedule and certify it over the horizon (one fresh
        session, so nothing is reused between passes)."""
        from repro.api import Session

        scheduler = self.schedulers[algorithm]
        schedule = scheduler.build(self.graph, seed=self.seeds[algorithm])
        return schedule, Session(self.graph, config=self.config).report(
            schedule, self.horizon,
            bound=scheduler.bound_function(self.graph),
            bound_name=scheduler.info.local_bound,
            check_periodic=scheduler.info.periodic,
        )

    def fingerprint(self, result) -> Dict[str, object]:
        from repro.serve.service import report_payload, validation_payload

        return {
            "max_mul": int(result.report.max_mul),
            "digest": digest([report_payload(result.report), validation_payload(result.validation)]),
        }

    def check(self, algorithm: str, schedule, result) -> List[str]:
        problems = []
        if not result.validation.ok:
            kinds = sorted({v.kind for v in result.validation.violations})
            problems.append(f"{algorithm}: validation failed ({', '.join(kinds)})")
        if result.validation.checked_holidays != self.horizon:
            problems.append(f"{algorithm}: validated {result.validation.checked_holidays} holidays")
        if schedule.is_periodic():
            # independent of the pins: a perfectly periodic node's longest
            # wait is its period minus one
            for node, mul in result.report.muls.items():
                if mul != schedule.node_period(node) - 1:
                    problems.append(f"{algorithm}: node {node!r} mul {mul} != period - 1")
                    break
        pinned = self.pinned.get(algorithm)
        got = self.fingerprint(result)
        if pinned is None:
            problems.append(f"{algorithm}: no pinned values for variant {self.variant}")
        else:
            if got["max_mul"] != pinned["max_mul"]:
                problems.append(f"{algorithm}: max_mul {got['max_mul']} != pinned {pinned['max_mul']}")
            if got["digest"] != pinned["digest"]:
                problems.append(f"{algorithm}: report digest differs from the pinned one")
        return problems

    def warmup(self, outcome: Outcome) -> None:
        self.run_unit(outcome)
        self.pass_seconds.clear()

    def run_unit(self, outcome: Outcome) -> float:
        started = time.perf_counter()
        results = [(a,) + self.report(a) for a in self.schedulers]
        unit = time.perf_counter() - started
        ok = True
        for algorithm, schedule, result in results:
            ok = outcome.op(self.check(algorithm, schedule, result)) and ok
        if ok:
            self.pass_seconds.append(unit)
        return unit

    def end_to_end(self, outcome: Outcome) -> None:
        per_pass = median(self.pass_seconds)
        holidays = self.horizon * len(self.schedulers)
        passes = len(self.pass_seconds)
        outcome.put("throughput_per_s", holidays / per_pass, "1/s", passes)
        outcome.put("latency_p50_ms", 1000 * per_pass / len(self.schedulers), "ms", passes)
        outcome.detail("holidays_per_s", holidays / per_pass, "1/s", passes)

    def close(self) -> None:
        pass


def pinned_values(name: str, variant: int) -> Dict[str, Dict[str, object]]:
    """What ``pins.json`` holds for one variant (computed, not checked)."""
    bench = Stream(name, variant, {})
    return {a: bench.fingerprint(bench.report(a)[1]) for a in bench.schedulers}
