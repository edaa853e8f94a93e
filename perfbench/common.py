"""Shared plumbing for the benchmark: paths, statistics, results, probes.

Every module in this directory imports the program from the checkout's
``src/`` tree (there is no install step), and writes scratch files only
under ``<checkout>/.perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
PINS_PATH = BENCH_DIR / "pins.json"

#: setup is timed this many times per run (fresh processes); the median is reported
SETUP_PROBES = 5

#: the workload seed picks one of this many pinned input variants
VARIANTS = 16


def program_present() -> bool:
    """True when the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "__init__.py").is_file()


def use_checkout_sources() -> None:
    """Import ``repro`` from the checkout's ``src/`` (no install needed)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for benchmark child processes: the checkout's sources
    first on the import path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH", "")) if p
    )
    return env


def variant_of(seed: int) -> int:
    """The pinned input variant a workload seed selects."""
    return seed % VARIANTS


def digest(payload: object) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> Dict[str, Dict[str, object]]:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set of this process (or of a live child ``pid``), MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) by ``statistics.quantiles`` (exclusive)."""
    return statistics.quantiles(values, n=100)[q - 1]


def environment_stamp() -> Dict[str, object]:
    """What a result must carry so two results compare commits, not machines."""
    use_checkout_sources()
    from repro.core.trace import resolve_backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "trace_backend": resolve_backend("auto"),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


@dataclass
class Metric:
    value: float
    unit: str
    samples: Optional[int] = None  # how many observations the value summarises


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` are the declared metrics (they go into the result line);
    ``details`` are the same measurements under the workload's own names
    (``cells_per_s``, ``latency_p95_ms``, ...), printed for people.
    Every timed operation counts once in ``attempted``; an operation that
    raised or whose output failed a check counts in ``failed``.
    """

    metrics: Dict[str, Metric] = field(default_factory=dict)
    details: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def op(self, problems: Sequence[str]) -> bool:
        """Count one operation; ``problems`` lists its failed checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            # keep the first few distinct messages, not one per operation
            for message in problems:
                if message not in self.problems and len(self.problems) < 20:
                    self.problems.append(message)
        return not problems

    def put(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def detail(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.details[name] = Metric(float(value), unit, samples)


@dataclass
class Phase:
    """One measured window: per-unit wall times, and spans when traced.

    A unit is one pass (campaign, stream-*) or one request (serve).
    """

    unit_seconds: List[float] = field(default_factory=list)
    #: client seconds the phase covered (summed over concurrent clients)
    wall_seconds: float = 0.0
    #: spans of the process that did the work, and its counters
    spans: list = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    #: spans of pool workers, one list per chunk block
    worker_spans: list = field(default_factory=list)
    #: serve only: the client's request spans, the top level of its trace
    client_spans: list = field(default_factory=list)
    #: metrics a workload measures itself (serve: transport, cache)
    layer: Dict[str, float] = field(default_factory=dict)


def probe_python_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until ``workload``'s set-up
    (imports, graphs, store) is done — the wait before the first timed
    operation can begin."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT), text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def scratch_dir(name: str) -> Path:
    path = OUT_DIR / name
    path.mkdir(parents=True, exist_ok=True)
    return path

