"""``campaign``: the researcher's path — one experiment spec, cold then warm.

One pass runs :meth:`ExperimentEngine.run` (``jobs=1``) over the fixed
6-graph × 6-scheduler spec against a fresh :class:`ResultStore` (cold:
every cell executes and is written), then replays the same spec against
the same store :data:`WARM_REPLAYS` times (warm: the store's read path
only).  Throughput is cold cells per second, median over passes; latency
is the wait for one warm replay: each pass's mean over its replays, median
over passes (a single replay takes tens of milliseconds, too short to
average out the host's swings in CPU speed).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from common import Outcome, digest, median, scratch_dir, variant_of

WORKLOADS = ("gnp-sparse", "grid", "society", "powerlaw", "tree", "gnp-dense")
ALGORITHMS = (
    "degree-periodic", "color-periodic-omega", "round-robin-color",
    "sequential", "phased-greedy", "first-come-first-grab",
)
#: scheduler seeds per (graph, scheduler) pair: 6 × 6 × 10 = 360 cells a pass
SEEDS_PER_PAIR = 10
WARM_REPLAYS = 32


def make_spec(variant: int):
    from repro.analysis.engine import ExperimentSpec

    rng = random.Random(f"campaign/{variant}")
    seeds = tuple(rng.randrange(2**31) for _ in range(SEEDS_PER_PAIR))
    return ExperimentSpec(name="perfbench-campaign", workloads=WORKLOADS,
                          algorithms=ALGORITHMS, seeds=seeds)


def canonical(records) -> List[Dict[str, object]]:
    """Records minus what legitimately differs between runs: the timing
    metrics and the ``cached`` replay stamp."""
    from repro.analysis.engine import TIMING_METRICS
    from repro.io.results import record_to_dict
    from repro.io.store import CACHED_PARAM

    out = []
    for record in records:
        payload = record_to_dict(record)
        payload["metrics"] = {k: v for k, v in payload["metrics"].items() if k not in TIMING_METRICS}
        payload["params"] = {k: v for k, v in payload["params"].items() if k != CACHED_PARAM}
        out.append(payload)
    return out


def cold_digest(variant: int) -> str:
    """The records digest of one cold pass (what ``pins.json`` holds)."""
    from repro.analysis.engine import ExperimentEngine

    return digest(canonical(ExperimentEngine(jobs=1).run(make_spec(variant))))


class Campaign:
    name = "campaign"

    def __init__(self, seed: int, pins: Dict[str, object]) -> None:
        from repro.analysis.engine import ExperimentEngine  # noqa: F401  (import cost is set-up)
        from repro.graphs.suites import get_workload
        from repro.io.store import ResultStore

        self.variant = variant_of(seed)
        self.spec = make_spec(self.variant)
        self.cells = len(self.spec.cells())
        self.pinned = pins.get(str(self.variant))
        # graph construction is part of what a researcher waits for before the
        # first run (the engine then resolves its own graphs per run)
        self.graphs = [get_workload(name) for name in WORKLOADS]
        self.dir = scratch_dir("campaign")
        self.passes = 0
        self._clear_stores()
        ResultStore(self._store_path()).close()  # store creation, as a campaign pays it
        self._clear_stores()
        self.cold_seconds: List[float] = []
        self.warm_seconds: List[float] = []

    def _store_path(self):
        return self.dir / f"pass-{self.passes}.sqlite"

    def _clear_stores(self) -> None:
        for path in self.dir.glob("pass-*.sqlite*"):
            path.unlink()

    def warmup(self, outcome: Outcome) -> None:
        """One untimed pass: lazy imports, allocator pools, first graphs."""
        self.run_unit(outcome)
        self.cold_seconds.clear()
        self.warm_seconds.clear()

    def run_unit(self, outcome: Outcome) -> float:
        from repro.analysis.engine import ExperimentEngine
        from repro.io.store import ResultStore

        started = time.perf_counter()
        store = ResultStore(self._store_path())
        self.passes += 1
        try:
            engine = ExperimentEngine(jobs=1, store=store)
            t0 = time.perf_counter()
            cold = engine.run(self.spec)
            cold_s = time.perf_counter() - t0
            cold_stats = dict(engine.stats)
            warm = []
            for _ in range(WARM_REPLAYS):
                t0 = time.perf_counter()
                records = engine.run(self.spec)
                warm.append((time.perf_counter() - t0, records, dict(engine.stats)))
        finally:
            store.close()
            self._clear_stores()
        unit = time.perf_counter() - started
        # checks run after the clock stopped
        got = digest(canonical(cold))
        problems = []
        if cold_stats["executed"] != self.cells:
            problems.append(f"cold pass executed {cold_stats['executed']} of {self.cells} cells")
        if got != self.pinned:
            problems.append(f"cold records digest {got[:12]} != pinned {str(self.pinned)[:12]}")
        if not all(r.metrics.get("legal") == 1.0 for r in cold):
            problems.append("a campaign cell produced an illegal schedule")
        if outcome.op(problems):
            self.cold_seconds.append(cold_s)
        replays_ok = True
        for _, records, stats in warm:
            problems = []
            if stats["cached"] != self.cells:
                problems.append(f"warm replay took {stats['cached']} of {self.cells} cells from the store")
            if digest(canonical(records)) != got:
                problems.append("warm replay records differ from the cold pass")
            replays_ok = outcome.op(problems) and replays_ok
        if replays_ok:
            self.warm_seconds.append(sum(seconds for seconds, _, _ in warm) / len(warm))
        return unit

    def end_to_end(self, outcome: Outcome) -> None:
        cold, warm = median(self.cold_seconds), median(self.warm_seconds)
        outcome.put("throughput_per_s", self.cells / cold, "1/s", len(self.cold_seconds))
        outcome.put("latency_p50_ms", 1000 * warm, "ms", len(self.warm_seconds))
        outcome.detail("cells_per_s", self.cells / cold, "1/s", len(self.cold_seconds))
        outcome.detail("replay_cells_per_s", self.cells / warm, "1/s", len(self.warm_seconds))

    def close(self) -> None:
        self._clear_stores()
