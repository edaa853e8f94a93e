"""``serve``: ``/report`` queries against ``repro-holiday serve``.

The benchmark starts the server as a child process (through
``serve_launcher.py``, which installs the span wrappers when traced) and
drives it with a closed loop of :data:`CONNECTIONS` clients, each on one
persistent HTTP/1.1 keep-alive connection that sends its next request as
soon as the previous answer arrived.  About 80 % of the requests are *hot*
— a small fixed set of ``(workload, algorithm, seed)`` queries at horizon
2048 that the trace cache answers — and about 20 % *cold*: fresh seeds,
half periodic and half phased-greedy, which miss it.  The cache budget is
:data:`CACHE_BYTES`, which holds the hot set with room to spare, so cold
traffic evicts cold entries the way a long-running service would.

Latency is measured by the client, per request.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import BENCH_DIR, ROOT, Outcome, Phase, child_env, median, peak_rss_mb, percentile, scratch_dir

CONNECTIONS = 2
HORIZON = 2048
HOT_SHARE = 0.8
HOT_WORKLOADS = ("society", "grid", "gnp-sparse")
HOT_ALGORITHMS = ("degree-periodic", "phased-greedy")
COLD_WORKLOAD = "society"
COLD_ALGORITHMS = ("degree-periodic", "phased-greedy")
#: 4 MiB: 34 society traces at horizon 2048 (numpy), the hot set is 6
CACHE_BYTES = 4 * 1024 * 1024
#: served bodies compared byte-for-byte with the library rendering
SAMPLED_COLD = 4

Query = Tuple[str, str, int]


class Server:
    """One ``repro-holiday serve --port 0`` child process."""

    def __init__(self, spans_path=None) -> None:
        argv = [sys.executable, "-u", str(BENCH_DIR / "serve_launcher.py")]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        argv += ["--", "--port", "0", "--cache-bytes", str(CACHE_BYTES)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                                     cwd=str(ROOT), text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            deadline = time.perf_counter() + 60
            while self.get("/healthz") is None:
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> Optional[Dict[str, object]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            return json.loads(body) if response.status == 200 else None
        except OSError:
            return None
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()  # the launcher turns SIGTERM into a clean shutdown
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


def setup_seconds() -> float:
    """Launch a server and time it until ``/healthz`` answers."""
    start = time.perf_counter()
    server = Server()
    elapsed = time.perf_counter() - start
    server.stop()
    return elapsed


def post(conn: http.client.HTTPConnection, query: Query) -> Tuple[int, bytes]:
    workload, algorithm, seed = query
    body = json.dumps({"workload": workload, "algorithm": algorithm,
                       "seed": seed, "horizon": HORIZON})
    conn.request("POST", "/report", body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def library_body(query: Query) -> bytes:
    """The ``/report`` body the library path renders for ``query``."""
    from repro.algorithms.registry import get_scheduler
    from repro.api import Session
    from repro.graphs.suites import get_workload
    from repro.serve.service import report_payload, validation_payload

    workload, algorithm, seed = query
    graph = get_workload(workload)
    schedule = get_scheduler(algorithm).build(graph, seed=seed)
    combined = Session(graph).report(schedule, HORIZON)
    payload = {
        "workload": workload, "algorithm": algorithm, "seed": seed,
        "horizon": HORIZON, "n": graph.num_nodes(), "ok": combined.ok,
        "summary": combined.summary(), "report": report_payload(combined.report),
        "validation": validation_payload(combined.validation),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class Serve:
    name = "serve"

    def __init__(self, seed: int, pins: Dict[str, object]) -> None:
        rng = random.Random(f"serve/{seed}")
        self.seed = seed
        self.hot: List[Query] = [
            (w, a, rng.randrange(10**6)) for w in HOT_WORKLOADS for a in HOT_ALGORITHMS
        ]
        #: cold seeds count up from here: above every hot seed, new per request
        self.cold_base = 10**6 + rng.randrange(10**9)
        self.server: Optional[Server] = None
        self.latencies: List[float] = []
        self.hot_latencies: List[float] = []
        self.cold_latencies: List[float] = []
        self.samples: Dict[Query, bytes] = {}
        self.window = 0.0
        self.rss = 0.0
        self.phases = 0

    def _check(self, query: Query, status: int, body: bytes) -> List[str]:
        if status != 200:
            return [f"{query}: HTTP {status}"]
        try:
            answer = json.loads(body)
        except ValueError:
            return [f"{query}: response is not JSON"]
        problems = []
        if (answer.get("workload"), answer.get("algorithm"), answer.get("seed")) != query:
            problems.append(f"{query}: response answers another query")
        if answer.get("ok") is not True:
            problems.append(f"{query}: served schedule failed validation")
        return problems

    def warmup(self, outcome: Outcome) -> None:
        """Nothing in-process: each measured phase warms its own server."""

    def _client(self, index: int, deadline: float, outcome: Outcome, lock: threading.Lock,
                tracer) -> None:
        rng = random.Random(f"serve/{self.seed}/{self.phases}/{index}")
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        cold = 0
        try:
            while time.perf_counter() < deadline:
                if rng.random() < HOT_SHARE:
                    query, hot = rng.choice(self.hot), True
                else:
                    seed = self.cold_base + CONNECTIONS * cold + index
                    query, hot = (COLD_WORKLOAD, COLD_ALGORITHMS[cold % 2], seed), False
                    cold += 1
                started = time.perf_counter()
                try:
                    if tracer is not None:
                        status, body = tracer.call("serve.request", post, (conn, query), {})
                    else:
                        status, body = post(conn, query)
                    elapsed = time.perf_counter() - started
                    problems = self._check(query, status, body)
                except (OSError, http.client.HTTPException) as exc:
                    elapsed, body, problems = time.perf_counter() - started, b"", [f"{query}: {exc}"]
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
                with lock:
                    if outcome.op(problems):
                        self.latencies.append(elapsed)
                        (self.hot_latencies if hot else self.cold_latencies).append(elapsed)
                        if not hot and cold <= SAMPLED_COLD:
                            self.samples[query] = body
        finally:
            conn.close()

    def measure(self, seconds: float, outcome: Outcome, traced: bool) -> Phase:
        from spans import Tracer, load

        spans_path = scratch_dir("serve") / f"server-spans-{self.phases}.jsonl" if traced else None
        self.server = Server(spans_path)
        phase = Phase()
        try:
            # fill the cache with the hot set (and keep one body per hot query)
            warm = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
            try:
                for query in self.hot:
                    status, body = post(warm, query)
                    if outcome.op(self._check(query, status, body)):
                        self.samples[query] = body
            finally:
                warm.close()
            before = self.server.get("/metrics")["trace_cache"]
            tracer = Tracer() if traced else None
            for samples in (self.latencies, self.hot_latencies, self.cold_latencies):
                samples.clear()
            lock = threading.Lock()
            started = time.perf_counter()
            threads = [
                threading.Thread(target=self._client,
                                 args=(i, started + seconds, outcome, lock, tracer))
                for i in range(CONNECTIONS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            self.window = time.perf_counter() - started
            after = self.server.get("/metrics")["trace_cache"]
            self.rss = max(self.rss, self.server.peak_rss_mb())
        finally:
            self.server.stop()
            self.phases += 1
        phase.unit_seconds = list(self.latencies)
        phase.wall_seconds = self.window * CONNECTIONS
        lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        phase.layer = {
            "serve.cache_hit_ratio": (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
            "serve.cache_bytes": float(after["bytes"]),
            "serve.cache_evictions": float(after["evictions"] - before["evictions"]),
        }
        if traced:
            server_spans, counts = load(spans_path)
            spans_path.unlink()
            # only what the server did for requests inside the window
            phase.spans = [s for s in server_spans if s[4] >= started]
            phase.counts = dict(counts)
            phase.client_spans = list(tracer.spans)
            handler = sum(e - s for _, _, name, _, s, e in phase.spans if name == "serve.handler")
            client = sum(e - s for _, _, _, _, s, e in phase.client_spans)
            phase.layer["serve.transport_s"] = client - handler
        return phase

    def check_samples(self, outcome: Outcome) -> None:
        """Served bodies must equal the library's rendering byte for byte."""
        for query, body in sorted(self.samples.items()):
            expected = library_body(query)
            outcome.op([] if body == expected else [f"{query}: served body differs from the library's"])

    def end_to_end(self, outcome: Outcome) -> None:
        self.check_samples(outcome)
        n = len(self.latencies)
        outcome.put("throughput_per_s", n / self.window, "1/s", n)
        outcome.put("latency_p50_ms", 1000 * median(self.latencies), "ms", n)
        outcome.detail("requests_per_s", n / self.window, "1/s", n)
        outcome.detail("latency_p50_ms", 1000 * median(self.latencies), "ms", n)
        outcome.detail("latency_p95_ms", 1000 * percentile(self.latencies, 95), "ms", n)
        outcome.detail("hot_latency_p50_ms", 1000 * median(self.hot_latencies), "ms",
                       len(self.hot_latencies))
        outcome.detail("cold_latency_p50_ms", 1000 * median(self.cold_latencies), "ms",
                       len(self.cold_latencies))

    def peak_rss_mb(self) -> float:
        """The client's peak plus the server's."""
        return peak_rss_mb() + self.rss

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
