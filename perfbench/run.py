"""The holiday-scheduling benchmark: one command, three declared workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check      # every workload, short; checks names
    python3 perfbench/run.py --pin             # recompute perfbench/pins.json

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` spends half of ``--seconds`` untraced and half with the span
wrappers of ``spans.py`` installed, and reports per-layer self times and
counts (per pass, or per request on ``serve``), how much of the traced wall
time the top-level spans cover, and the tracing overhead.  Spans are written
to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from common import (
    BENCH_DIR, OUT_DIR, PINS_PATH, ROOT, SETUP_PROBES, VARIANTS, Outcome, Phase,
    environment_stamp, load_pins, median, peak_rss_mb, probe_python_setup,
    program_present, use_checkout_sources,
)

#: the workloads BENCHMARK.json declares
WORKLOADS = ("campaign", "stream-periodic", "serve")
#: runnable by name, but not declared: its run-to-run spread exceeded the
#: 0.25 bound on the 2-vCPU host the benchmark was tuned on (README.md)
ON_DEMAND = ("stream-generator",)

#: (name, unit, better) — must match BENCHMARK.json (``--self-check`` asserts it)
END_TO_END = (
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: (name, unit, better, what it should move: "end-to-end metric on workload")
PER_LAYER = (
    ("algorithms.build_s", "s", "lower", "throughput_per_s on campaign"),
    ("algorithms.build_calls", "count", "lower", "throughput_per_s on campaign"),
    ("algorithms.generate_s", "s", "lower",
     "throughput_per_s on campaign (and stream-generator); latency_p95_ms on serve; ~0 on stream-periodic"),
    ("algorithms.holidays_generated", "count", "lower",
     "throughput_per_s on campaign (and stream-generator); latency_p95_ms on serve"),
    ("trace.build_s", "s", "lower", "throughput_per_s on stream-periodic and campaign"),
    ("trace.scan_s", "s", "lower", "throughput_per_s on stream-periodic and campaign"),
    ("trace.wait_s", "s", "lower", "throughput_per_s on stream-periodic (parent waits for pool workers)"),
    ("trace.chunks", "count", "lower", "throughput_per_s on stream-periodic and campaign"),
    ("trace.bytes_computed", "B", "lower", "throughput_per_s on stream-periodic and campaign"),
    ("metrics.evaluate_s", "s", "lower", "throughput_per_s on campaign; latency_p50_ms on serve"),
    ("metrics.evaluate_calls", "count", "lower", "throughput_per_s on campaign; latency_p50_ms on serve"),
    ("validation.validate_s", "s", "lower", "throughput_per_s on campaign; latency_p50_ms on serve"),
    ("validation.validate_calls", "count", "lower",
     "throughput_per_s on campaign; latency_p50_ms on serve"),
    ("engine.run_self_s", "s", "lower", "throughput_per_s on campaign"),
    ("engine.cells_executed", "count", "lower", "throughput_per_s on campaign"),
    ("engine.cells_cached", "count", "higher", "throughput_per_s on campaign"),
    ("engine.cells_per_batch", "count", "higher", "throughput_per_s on campaign"),
    ("store.write_s", "s", "lower", "throughput_per_s on campaign"),
    ("store.rows_written", "count", "lower", "throughput_per_s on campaign"),
    ("store.lookup_s", "s", "lower", "latency_p50_ms (warm replay) on campaign"),
    ("store.hit_ratio", "ratio", "higher", "latency_p50_ms (warm replay) on campaign"),
    ("session.report_s", "s", "lower", "throughput_per_s on stream-periodic; latency_p50_ms on serve"),
    ("serve.handler_s", "s", "lower", "latency_p50_ms and latency_p95_ms on serve"),
    ("serve.transport_s", "s", "lower", "latency_p50_ms on serve"),
    ("serve.cache_hit_ratio", "ratio", "higher", "latency_p50_ms on serve"),
    ("serve.cache_bytes", "B", "lower", "peak_rss_mb on serve"),
    ("serve.cache_evictions", "count", "lower", "latency_p95_ms and peak_rss_mb on serve"),
    ("span.coverage", "ratio", "higher", "(trace quality) share of traced wall time in top-level spans"),
    ("span.unattributed", "ratio", "lower", "(trace quality) share of traced wall time outside any span"),
    ("tracing.overhead", "ratio", "lower", "(trace quality) traced / untraced median unit time"),
)

#: per-layer metrics that are not divided by the number of units
NOT_PER_UNIT = {
    "engine.cells_per_batch", "store.hit_ratio", "serve.cache_hit_ratio",
    "serve.cache_bytes", "span.coverage", "span.unattributed", "tracing.overhead",
}

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def make(name: str, seed: int, pins: Dict[str, object]):
    if name == "campaign":
        from wl_campaign import Campaign

        return Campaign(seed, pins.get("campaign", {}))
    if name.startswith("stream-"):
        from wl_stream import Stream

        return Stream(name, seed, pins.get(name, {}))
    from wl_serve import Serve

    return Serve(seed, {})


def setup_seconds(name: str, seed: int) -> float:
    """One fresh set-up of ``name``, in its own process."""
    if name == "serve":
        from wl_serve import setup_seconds as serve_setup

        return serve_setup()
    return probe_python_setup(name, seed)


def measure(workload, seconds: float, outcome: Outcome, traced: bool) -> Phase:
    """Run the workload's unit of work until ``seconds`` have passed."""
    if workload.name == "serve":
        return workload.measure(seconds, outcome, traced)
    from spans import Tracer, collect_worker_spans, instrument

    tracer = Tracer() if traced else None
    phase = Phase()
    if tracer is not None:
        instrument(tracer)
    try:
        deadline = time.perf_counter() + seconds
        attempts = 0
        while attempts == 0 or time.perf_counter() < deadline:
            attempts += 1
            try:
                phase.unit_seconds.append(workload.run_unit(outcome))
            except Exception as exc:  # the program raised: one failed operation
                outcome.op([f"{workload.name}: {type(exc).__name__}: {exc}"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.wall_seconds = sum(phase.unit_seconds)
    if tracer is not None:
        phase.spans = list(tracer.spans)
        phase.counts = dict(tracer.counts)
        phase.worker_spans = collect_worker_spans()
    return phase


def per_layer(untraced: Phase, traced: Phase) -> Dict[str, float]:
    from spans import counter_metrics, layer_metrics, top_level_seconds

    units = len(traced.unit_seconds)
    values = layer_metrics([traced.spans] + traced.worker_spans)
    values.update(counter_metrics(traced.counts))
    values.update(traced.layer)
    for name, *_ in PER_LAYER:
        values.setdefault(name, 0.0)  # a layer this workload never enters
    for name in values:
        if name not in NOT_PER_UNIT:
            values[name] /= units
    top = top_level_seconds(traced.client_spans or traced.spans)
    values["span.coverage"] = top / traced.wall_seconds
    values["span.unattributed"] = 1.0 - values["span.coverage"]
    values["tracing.overhead"] = median(traced.unit_seconds) / median(untraced.unit_seconds)
    return values


def dump_spans(name: str, seed: int, phase: Phase, stamp: Dict[str, object]) -> None:
    """Write the traced phase's spans, one JSON object per line; span ids are
    unique within one ``process``."""
    processes = [("main", phase.spans), ("client", phase.client_spans)]
    processes += [(f"worker{i}", spans) for i, spans in enumerate(phase.worker_spans)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with (OUT_DIR / f"spans-{name}-{seed}.jsonl").open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"env": stamp, "counts": phase.counts}) + "\n")
        for process, spans in processes:
            for sid, parent, span_name, group, start, end in spans:
                fh.write(json.dumps({"process": process, "id": sid, "parent": parent,
                                     "name": span_name, "group": group,
                                     "start": start, "end": end}) + "\n")


def run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Outcome, List[str]]:
    """Run one workload; returns the outcome and the lines to print first."""
    pins = load_pins()
    stamp = environment_stamp()
    lines = ["env " + json.dumps(stamp, sort_keys=True)]
    outcome = Outcome()
    setups = [] if trace else [setup_seconds(name, seed) for _ in range(SETUP_PROBES)]
    workload = make(name, seed, pins)
    try:
        workload.warmup(outcome)
        if not trace:
            phase = measure(workload, seconds, outcome, traced=False)
            try:
                workload.end_to_end(outcome)
            except statistics.StatisticsError:
                outcome.metrics.clear()  # no operation succeeded: nothing to report
            else:
                outcome.put("setup_s", median(setups), "s", len(setups))
                rss = workload.peak_rss_mb() if name == "serve" else peak_rss_mb()
                outcome.put("peak_rss_mb", rss, "MB", 1)
            lines.append(f"{name}: {len(phase.unit_seconds)} units in {phase.wall_seconds:.3f} s")
        else:
            untraced = measure(workload, seconds / 2, outcome, traced=False)
            traced = measure(workload, seconds / 2, outcome, traced=True)
            if name == "serve":
                workload.check_samples(outcome)
            unit_name = "request" if name == "serve" else "pass"
            values = per_layer(untraced, traced) if untraced.unit_seconds and traced.unit_seconds else {}
            for metric, unit, _, moves in PER_LAYER if values else ():
                per = "" if metric in NOT_PER_UNIT else f" per {unit_name}"
                outcome.put(metric, values[metric], unit, len(traced.unit_seconds))
                lines.append(f"layer {metric} = {values[metric]:.6g} {unit}{per}   -> {moves}")
            lines.append(f"{name}: traced {len(traced.unit_seconds)} units, "
                         f"untraced {len(untraced.unit_seconds)}")
            dump_spans(name, seed, traced, stamp)
    finally:
        workload.close()
    return outcome, lines


def result_line(outcome: Outcome) -> str:
    correct = outcome.failed == 0 and not outcome.problems and outcome.attempted > 0
    return json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": m.value, "unit": m.unit} for k, m in outcome.metrics.items()},
    })


def main_run(args) -> int:
    outcome, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    for label, table in (("metric", outcome.metrics), ("detail", outcome.details)):
        if label == "metric" and args.trace:
            continue
        for metric, m in table.items():
            print(f"{label} {metric} = {m.value:.6g} {m.unit} (n={m.samples})")
    print(f"error_rate = {outcome.failed / max(1, outcome.attempted):.6g} "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    for problem in outcome.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    if not outcome.metrics:
        print("no metrics: every measured operation failed", file=sys.stderr)
        return 1
    print(result_line(outcome))
    return 0


def self_check(seconds: float) -> int:
    """Run every workload briefly in both modes; the printed metric names must
    equal the ones BENCHMARK.json declares, and every check must pass."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    want = {
        0: {(m["name"], m["unit"]) for m in declared["end_to_end"]},
        1: {(m["name"], m["unit"]) for m in declared["per_layer"]},
    }
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the ones run.py runs")
    if want[0] != {(n, u) for n, u, _ in END_TO_END} or want[1] != {(n, u) for n, u, *_ in PER_LAYER}:
        problems.append("BENCHMARK.json metrics differ from run.py's tables")
    for name in WORKLOADS + ON_DEMAND:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "0",
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=600,
            )
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {(k, v["unit"]) for k, v in result["metrics"].items()}
            bad = sorted(k for k, _ in got if not NAME_RE.match(k))
            if got != want[trace]:
                problems.append(f"{label}: printed {sorted(got ^ want[trace])} differ from BENCHMARK.json")
            if bad:
                problems.append(f"{label}: bad metric names {bad}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: output checks failed: {proc.stderr.strip()[-500:]}")
            print(f"{label}: ok={not problems} attempted={result['attempted']}")
    for problem in problems:
        print("SELF-CHECK FAILED:", problem, file=sys.stderr)
    print("self-check", "passed" if not problems else "failed")
    return 1 if problems else 0


def pin() -> int:
    """Recompute every pinned digest from the program in this checkout."""
    from wl_campaign import cold_digest
    from wl_stream import pinned_values

    pins: Dict[str, Dict[str, object]] = {"campaign": {}, "stream-periodic": {}, "stream-generator": {}}
    for variant in range(VARIANTS):
        pins["campaign"][str(variant)] = cold_digest(variant)
        for name in ("stream-periodic", "stream-generator"):
            pins[name][str(variant)] = pinned_values(name, variant)
        print(f"variant {variant} pinned", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ON_DEMAND)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    use_checkout_sources()
    if args.self_check:
        return self_check(min(args.seconds, 2.0))
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workload = make(args.workload, args.seed, load_pins())
        print("ready", flush=True)
        workload.close()
        return 0
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
