"""Tests for the declarative experiment engine.

Covers the spec/cell data model (round-trip, content keys, per-cell seeds),
the horizon policy consolidation, serial-vs-parallel determinism on the
small suite, JSONL streaming, and resume-after-truncation semantics.
"""

import hashlib
import json
import sqlite3
from dataclasses import asdict, replace

import pytest

from repro.analysis.engine import (
    ExperimentCell,
    ExperimentEngine,
    ExperimentSpec,
    HorizonPolicy,
    TIMING_METRICS,
    _canonical_value,
    cell_ids_of,
    execute_cell,
    expand_grid,
    run_grid,
)
from repro.analysis.records import ExperimentRecord, ResultSet
from repro.analysis.runner import choose_horizon
from repro.core.config import EngineConfig
from repro.graphs.families import clique, star
from repro.graphs.suites import SMALL_WORKLOADS
from repro.io.results import read_records_jsonl, record_to_json_line


def tiny_spec(**overrides):
    fields = dict(
        name="t",
        workloads=("small/path", "small/clique"),
        algorithms=("sequential", "degree-periodic"),
        horizon=48,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def stripped_lines(path):
    """Sink lines with the timing metrics removed (canonical JSON)."""
    out = []
    for line in open(path):
        payload = json.loads(line)
        for key in TIMING_METRICS:
            payload["metrics"].pop(key, None)
        out.append(json.dumps(payload, sort_keys=True))
    return out


class TestHorizonPolicy:
    def test_for_graph_matches_choose_horizon(self):
        for graph in (star(3), clique(5), clique(30)):
            assert HorizonPolicy().for_graph(graph) == choose_horizon(graph)

    def test_for_bound_matches_legacy_rule(self):
        # the historical benchmarks.common.horizon_for_bound defaults
        policy = HorizonPolicy(multiplier=3, minimum=64, cap=8192)
        assert policy.for_bound(10) == 64
        assert policy.for_bound(100) == 302
        assert policy.for_bound(10_000) == 8192

    def test_explicit_short_circuits(self):
        policy = HorizonPolicy(explicit=77)
        assert policy.for_graph(clique(30)) == 77
        assert policy.for_bound(1e9) == 77
        assert policy.resolve(clique(30), bound_fn=lambda p: 1e9) == 77

    def test_resolve_extends_past_cap_for_bounds(self):
        policy = HorizonPolicy(cap=40)
        horizon = policy.resolve(clique(5), bound_fn=lambda p: 1000)
        assert horizon == 2 * 1000 + 2

    def test_round_trip(self):
        policy = HorizonPolicy(multiplier=7, minimum=8, cap=99, explicit=None)
        assert HorizonPolicy.from_dict(policy.to_dict()) == policy
        with pytest.raises(ValueError):
            HorizonPolicy.from_dict({"nope": 1})


class TestSpec:
    def test_cells_cartesian_order(self):
        spec = tiny_spec(grid={"scale": [1, 2]}, seeds=(0, 1))
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        # workload varies slowest, seed fastest
        assert [c.workload for c in cells[:8]] == ["small/path"] * 8
        assert [c.seed for c in cells[:2]] == [0, 1]
        assert cells[0].params == {"scale": 1} and cells[2].params == {"scale": 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", workloads=(), algorithms=("sequential",))
        with pytest.raises(ValueError):
            ExperimentSpec(name="t", workloads=("small/path",), algorithms=())
        with pytest.raises(ValueError):
            tiny_spec(seeds=())

    def test_scalar_grid_values_rejected(self):
        # tuple("fast") would silently expand to per-character grid points
        with pytest.raises(ValueError, match="grid values"):
            tiny_spec(grid={"mode": "fast"})
        with pytest.raises(ValueError, match="grid values"):
            tiny_spec(grid={"scale": 2})

    def test_reserved_grid_keys_rejected(self):
        # the engine stamps these params on every record; a grid key would
        # be silently clobbered in the output
        for key in ("seed", "horizon", "n", "backend", "cell_id"):
            with pytest.raises(ValueError, match="reserved"):
                tiny_spec(grid={key: [1, 2]})

    def test_glob_expansion(self):
        spec = tiny_spec(workloads=("small/*",))
        resolved = spec.resolved_workloads()
        assert set(resolved) == set(SMALL_WORKLOADS)
        with pytest.raises(KeyError):
            tiny_spec(workloads=("nope/*",)).resolved_workloads()

    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(
            grid={"scale": [1, 2]},
            seeds=(3, 4),
            policy=HorizonPolicy(multiplier=5),
            config=EngineConfig(backend="bitmask"),
            workload_params={"seed": 99},
        )
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ExperimentSpec.from_json(path) == spec
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({**spec.to_dict(), "bogus": 1})


class TestCells:
    def test_cell_ids_stable_and_distinct(self):
        cells = tiny_spec().cells()
        again = tiny_spec().cells()
        assert [c.cell_id() for c in cells] == [c.cell_id() for c in again]
        assert len({c.cell_id() for c in cells}) == len(cells)

    def test_cell_id_tracks_execution_knobs(self):
        base = tiny_spec().cells()[0]
        for changed in (
            tiny_spec(horizon=64).cells()[0],
            tiny_spec(config=EngineConfig(backend="bitmask")).cells()[0],
            tiny_spec(certify_bound=False).cells()[0],
            tiny_spec(policy=HorizonPolicy(multiplier=9)).cells()[0],
        ):
            assert changed.cell_id() != base.cell_id()

    def test_cell_seed_derivation(self):
        a, b = tiny_spec().cells()[:2]
        # same root seed, different algorithm -> decorrelated scheduler seeds
        assert a.seed == b.seed and a.cell_seed() != b.cell_seed()
        assert a.cell_seed() == tiny_spec().cells()[0].cell_seed()

    def test_execute_cell_from_registry(self):
        record = execute_cell(tiny_spec().cells()[0])
        assert record.workload == "small/path"
        assert record.metrics["legal"] == 1.0
        assert record.params["cell_id"] == tiny_spec().cells()[0].cell_id()
        assert record.params["horizon"] == 48

    def test_cells_sharing_a_workload_share_a_graph_key(self):
        from repro.analysis.engine import _graph_cache_key

        cells = tiny_spec().cells()
        path_cells = [c for c in cells if c.workload == "small/path"]
        assert len(path_cells) == 2  # one per algorithm
        assert _graph_cache_key(path_cells[0]) == _graph_cache_key(path_cells[1])
        grid_cells = tiny_spec(grid={"scale": [1, 2]}).cells()
        keys = {_graph_cache_key(c) for c in grid_cells if c.workload == "small/path"}
        assert len(keys) == 2  # distinct grid points resolve distinct graphs

    def test_execute_cell_with_override_graph(self):
        cell = ExperimentCell(
            experiment="t", workload="custom", algorithm="sequential",
            params={}, seed=0, horizon=32,
        )
        record = execute_cell(cell, graph=star(4))
        assert record.workload == "custom" and record.params["n"] == 5


class TestEngine:
    def test_serial_run_returns_spec_order(self):
        spec = tiny_spec()
        results = ExperimentEngine(jobs=1).run(spec)
        assert [(r.workload, r.algorithm) for r in results] == [
            (c.workload, c.algorithm) for c in spec.cells()
        ]

    def test_unknown_workload_raises_before_touching_sink(self, tmp_path):
        sink = tmp_path / "precious.jsonl"
        sink.write_text('{"existing": "data"}\n')
        with pytest.raises(KeyError, match="unknown workload"):
            ExperimentEngine(sink=sink).run(tiny_spec(workloads=("no-such-graph",)))
        # the typo'd run must not have truncated the existing file
        assert sink.read_text() == '{"existing": "data"}\n'

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_resume_requires_sink(self):
        with pytest.raises(ValueError, match="resume"):
            ExperimentEngine(resume=True)

    def test_sink_streams_records(self, tmp_path):
        sink = tmp_path / "out.jsonl"
        results = ExperimentEngine(jobs=1, sink=sink).run(tiny_spec())
        loaded = ResultSet.from_jsonl(sink)
        assert [record_to_json_line(r) for r in loaded] == [
            record_to_json_line(r) for r in results
        ]

    def test_serial_and_parallel_sinks_identical_on_small_suite(self, tmp_path):
        """jobs=1 and jobs=4 write byte-identical JSONL modulo timing fields."""
        spec = ExperimentSpec(
            name="det",
            workloads=("small/*",),
            algorithms=("sequential", "degree-periodic"),
            horizon=48,
        )
        serial_sink = tmp_path / "serial.jsonl"
        parallel_sink = tmp_path / "parallel.jsonl"
        serial = ExperimentEngine(jobs=1, sink=serial_sink).run(spec)
        parallel = ExperimentEngine(jobs=4, sink=parallel_sink).run(spec)
        assert len(serial) == len(parallel) == len(SMALL_WORKLOADS) * 2
        assert stripped_lines(serial_sink) == stripped_lines(parallel_sink)

    def test_resume_skips_completed_cells(self, tmp_path):
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        first = ExperimentEngine(jobs=1, sink=sink).run(spec)
        lines = sink.read_text().splitlines(keepends=True)
        assert len(lines) == 4
        # crash simulation: one record missing, one half-written
        sink.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])

        engine = ExperimentEngine(jobs=1, sink=sink, resume=True)
        resumed = engine.run(spec)
        assert engine.stats["skipped"] == 2 and engine.stats["executed"] == 2
        assert len(read_records_jsonl(sink)) == 4
        ids = [r.params["cell_id"] for r in read_records_jsonl(sink)]
        assert sorted(ids) == sorted(r.params["cell_id"] for r in first)
        # resumed ResultSet is in spec order and complete
        assert [r.params["cell_id"] for r in resumed] == [
            c.cell_id() for c in spec.cells()
        ]

    def test_resumed_sink_rewritten_in_spec_order(self, tmp_path):
        """A completed resume leaves the sink in spec order even when the
        resumed spec orders cells differently than the original run."""
        sink = tmp_path / "run.jsonl"
        ExperimentEngine(jobs=1, sink=sink).run(
            tiny_spec(workloads=("small/path", "small/clique"))
        )
        reordered = tiny_spec(workloads=("small/path", "small/star", "small/clique"))
        ExperimentEngine(jobs=1, sink=sink, resume=True).run(reordered)
        sunk = [r.params["cell_id"] for r in read_records_jsonl(sink)]
        assert sunk == [c.cell_id() for c in reordered.cells()]

    def test_resume_preserves_foreign_records(self, tmp_path):
        """Records from another spec in a shared sink are kept, not deleted,
        and never counted as completed cells of this spec."""
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        foreign = ExperimentRecord(
            experiment="other", workload="w", algorithm="a",
            metrics={}, params={"cell_id": "feedfacefeedface"},
        )
        sink.write_text(record_to_json_line(foreign) + "\n")
        engine = ExperimentEngine(jobs=1, sink=sink, resume=True)
        engine.run(spec)
        assert engine.stats["executed"] == 4
        sunk = read_records_jsonl(sink)
        assert len(sunk) == 5 and sunk[0] == foreign
        assert all(r.experiment == "t" for r in sunk[1:])

    def test_resume_preserves_non_record_lines(self, tmp_path):
        """Intact JSON lines that are not ExperimentRecords (e.g. a metadata
        header in a shared file) survive resume verbatim; only an
        unparseable final line (crash truncation) is dropped."""
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        header = '{"version": 1, "tool": "other"}'
        sink.write_text(header + "\n" + '{"experiment": truncat')
        engine = ExperimentEngine(jobs=1, sink=sink, resume=True)
        engine.run(spec)
        lines = sink.read_text().splitlines()
        assert lines[0] == header and len(lines) == 5
        assert engine.stats["executed"] == 4

    def test_resume_keeps_foreign_json_even_as_last_line(self, tmp_path):
        """Valid JSON that isn't a record is foreign wherever it sits —
        only an unparseable tail counts as crash truncation."""
        spec = tiny_spec()
        sink = tmp_path / "run.jsonl"
        header = '{"version": 1, "tool": "other"}'
        sink.write_text(header + "\n")  # header is the last (and only) line
        ExperimentEngine(jobs=1, sink=sink, resume=True).run(spec)
        lines = sink.read_text().splitlines()
        assert lines[0] == header and len(lines) == 5

    def test_glob_named_adhoc_graph_runs_literally(self):
        """A caller-provided graph whose name contains glob characters is
        run as-is, not expanded against the registry."""
        from repro.analysis.runner import compare_schedulers

        results = compare_schedulers({"net[1]": star(4)}, ["sequential"], horizon=32)
        assert [r.workload for r in results] == ["net[1]"]

    def test_resume_never_reuses_changed_adhoc_graph(self, tmp_path):
        """An ad-hoc graph's content is part of the cell id, so resume
        re-runs when the graph changes under the same workload name."""
        from repro.analysis.runner import compare_schedulers

        sink = tmp_path / "run.jsonl"
        compare_schedulers({"g": clique(4)}, ["sequential"], horizon=32, sink=sink)
        results = compare_schedulers(
            {"g": star(8)}, ["sequential"], horizon=32, sink=sink, resume=True
        )
        assert list(results)[0].params["n"] == 9  # star(8), not the stale clique

    def test_fresh_run_overwrites_sink(self, tmp_path):
        sink = tmp_path / "run.jsonl"
        sink.write_text("garbage\n")
        ExperimentEngine(jobs=1, sink=sink).run(tiny_spec())
        assert len(read_records_jsonl(sink)) == 4

    def test_runtime_registered_workload_runs_in_pool(self):
        """Graphs are resolved in the parent and shipped to workers, so a
        workload registered at runtime works with jobs>1 even on platforms
        whose workers re-import the registry fresh (spawn)."""
        from repro.graphs.families import path as path_graph
        from repro.graphs.suites import register_workload

        register_workload("runtime/engine-test", lambda seed=0: path_graph(6), overwrite=True)
        spec = ExperimentSpec(
            name="rt", workloads=("runtime/engine-test",),
            algorithms=("sequential", "degree-periodic"), horizon=32,
        )
        results = ExperimentEngine(jobs=2).run(spec)
        assert len(results) == 2
        assert all(r.metrics["legal"] == 1.0 for r in results)

    def test_compare_schedulers_via_engine_matches_direct_cells(self):
        """The thin wrapper produces exactly the engine's records."""
        from repro.analysis.runner import compare_schedulers

        workloads = {"star": star(4), "clique": clique(4)}
        direct = ExperimentEngine(jobs=1).run(
            ExperimentSpec(
                name="test", workloads=tuple(workloads),
                algorithms=("sequential", "degree-periodic"), horizon=48,
            ),
            workloads=workloads,
        )
        wrapped = compare_schedulers(
            workloads, ["sequential", "degree-periodic"], experiment="test", horizon=48
        )

        def stripped(records):
            out = []
            for r in records:
                metrics = {k: v for k, v in r.metrics.items() if k not in TIMING_METRICS}
                out.append(record_to_json_line(
                    ExperimentRecord(r.experiment, r.workload, r.algorithm, metrics, r.params)
                ))
            return out

        assert stripped(direct) == stripped(wrapped)


def _grid_runner(n):
    return [
        ExperimentRecord(
            experiment="g", workload=f"n{n}", algorithm="a", metrics={"size": float(n)}
        )
    ]


class TestHorizonMode:
    def test_spec_round_trips_horizon_mode(self, tmp_path):
        spec = tiny_spec(config=EngineConfig(horizon_mode="stream", chunk=128))
        path = tmp_path / "spec.json"
        spec.to_json(path)
        assert ExperimentSpec.from_json(path) == spec

    def test_invalid_horizon_mode_rejected(self):
        with pytest.raises(ValueError, match="horizon_mode"):
            tiny_spec(config=EngineConfig(horizon_mode="chunked"))
        with pytest.raises(ValueError, match="chunk"):
            tiny_spec(config=EngineConfig(chunk=0))
        with pytest.raises(ValueError, match="no streaming"):
            tiny_spec(config=EngineConfig(backend="sets", horizon_mode="stream"))

    def test_default_mode_keeps_pre_streaming_cell_ids(self):
        """horizon_mode='auto'/chunk=None are hashed only when they deviate
        from the defaults, so sinks recorded before streaming existed still
        resume; explicit streaming knobs change the id."""
        base = tiny_spec().cells()[0]
        assert tiny_spec(config=EngineConfig(horizon_mode="auto", chunk=None)).cells()[0].cell_id() == base.cell_id()
        assert tiny_spec(config=EngineConfig(horizon_mode="stream")).cells()[0].cell_id() != base.cell_id()
        assert tiny_spec(config=EngineConfig(chunk=64)).cells()[0].cell_id() != base.cell_id()

    def test_stream_records_match_dense_modulo_mode_stamp(self):
        from repro.io.results import record_to_json_line

        dense = ExperimentEngine(jobs=1).run(tiny_spec(config=EngineConfig(horizon_mode="dense")))
        stream = ExperimentEngine(jobs=1).run(tiny_spec(config=EngineConfig(horizon_mode="stream", chunk=7)))

        def stripped(records):
            out = []
            for r in records:
                metrics = {k: v for k, v in r.metrics.items() if k not in TIMING_METRICS}
                params = {
                    k: v for k, v in r.params.items()
                    if k not in ("horizon_mode", "cell_id")
                }
                out.append(record_to_json_line(
                    ExperimentRecord(r.experiment, r.workload, r.algorithm, metrics, params)
                ))
            return out

        assert stripped(dense) == stripped(stream)
        assert all(r.params["horizon_mode"] == "dense" for r in dense)
        assert all(r.params["horizon_mode"] == "stream" for r in stream)

    def test_auto_mode_stays_dense_at_small_horizons(self):
        results = ExperimentEngine(jobs=1).run(tiny_spec())
        assert all(r.params["horizon_mode"] == "dense" for r in results)

    def test_horizon_mode_is_reserved_grid_key(self):
        with pytest.raises(ValueError, match="reserved"):
            tiny_spec(grid={"horizon_mode": ["dense", "stream"]})


class TestRunGrid:
    def test_serial_matches_parallel(self):
        serial = run_grid({"n": [2, 4, 8]}, _grid_runner, jobs=1)
        parallel = run_grid({"n": [2, 4, 8]}, _grid_runner, jobs=3)
        assert [r.workload for r in serial] == ["n2", "n4", "n8"]
        assert [record_to_json_line(r) for r in serial] == [
            record_to_json_line(r) for r in parallel
        ]

    def test_empty_grid_runs_once(self):
        def runner():
            return [ExperimentRecord("g", "w", "a", {})]

        assert len(run_grid({}, runner)) == 1

    def test_expand_grid(self):
        assert expand_grid({"a": [1, 2], "b": ["x"]}) == [
            {"a": 1, "b": "x"},
            {"a": 2, "b": "x"},
        ]


class TestStreamJobs:
    """Per-cell streamed-scan parallelism (spec/cell `stream_jobs`)."""

    def test_spec_round_trips_stream_jobs(self, tmp_path):
        spec = tiny_spec(config=EngineConfig(horizon_mode="stream", chunk=16, stream_jobs=2))
        path = spec.to_json(tmp_path / "spec.json")
        assert ExperimentSpec.from_json(path) == spec

    def test_invalid_stream_jobs_rejected(self):
        with pytest.raises(ValueError, match="stream_jobs"):
            tiny_spec(config=EngineConfig(stream_jobs=0))

    def test_default_stream_jobs_keeps_cell_ids(self):
        """stream_jobs=1 (the default) is not hashed, so existing resume
        sinks keep working; any other value marks the cell id."""
        base = tiny_spec().cells()[0]
        assert tiny_spec(config=EngineConfig(stream_jobs=1)).cells()[0].cell_id() == base.cell_id()
        assert tiny_spec(config=EngineConfig(stream_jobs=2)).cells()[0].cell_id() != base.cell_id()

    def test_stream_jobs_records_match_serial_modulo_id_and_timing(self):
        from repro.io.results import record_to_json_line

        serial = ExperimentEngine(jobs=1).run(tiny_spec(config=EngineConfig(horizon_mode="stream", chunk=7)))
        parallel = ExperimentEngine(jobs=1).run(
            tiny_spec(config=EngineConfig(horizon_mode="stream", chunk=7, stream_jobs=2))
        )

        def stripped(records):
            out = []
            for r in records:
                metrics = {k: v for k, v in r.metrics.items() if k not in TIMING_METRICS}
                params = {k: v for k, v in r.params.items() if k != "cell_id"}
                out.append(record_to_json_line(
                    ExperimentRecord(r.experiment, r.workload, r.algorithm, metrics, params)
                ))
            return out

        assert stripped(serial) == stripped(parallel)


class TestBatching:
    """The cell-batching planner (spec/cell config `batch`)."""

    def test_spec_round_trips_batch(self, tmp_path):
        spec = tiny_spec(config=EngineConfig(batch=4))
        path = spec.to_json(tmp_path / "spec.json")
        assert ExperimentSpec.from_json(path) == spec

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            tiny_spec(config=EngineConfig(batch=0))

    def test_batch_never_changes_cell_ids(self):
        """The planner provably produces the same record for every batch
        size, so `batch` is never part of the cell id — batched and
        per-cell sinks resume each other freely."""
        base = tiny_spec().cells()[0]
        for batch in (1, 2, 4):
            assert tiny_spec(config=EngineConfig(batch=batch)).cells()[0].cell_id() == base.cell_id()

    def test_planner_groups_compatible_cells(self):
        from repro.analysis.engine import _graph_cache_key, _plan_units

        spec = tiny_spec(seeds=(0, 1, 2), config=EngineConfig(batch=4))
        cells = spec.cells()
        graphs = {_graph_cache_key(c): None for c in cells}
        units = _plan_units(list(enumerate(cells)), graphs)
        # 2 workloads x 2 algorithms x 3 seeds = 12 cells; each workload's
        # 6 compatible cells split into batches of 4 then 2
        assert sorted(len(u) for u in units) == [2, 2, 4, 4]
        for unit in units:
            keys = {_graph_cache_key(c) for _, c in unit}
            assert len(keys) == 1
        # every cell appears exactly once, in spec order within its unit
        flat = sorted(i for unit in units for i, _ in unit)
        assert flat == list(range(len(cells)))

    def test_batch_one_plans_singletons(self):
        from repro.analysis.engine import _graph_cache_key, _plan_units

        spec = tiny_spec(config=EngineConfig(batch=1))
        cells = spec.cells()
        graphs = {_graph_cache_key(c): None for c in cells}
        units = _plan_units(list(enumerate(cells)), graphs)
        assert [len(u) for u in units] == [1] * len(cells)

    def test_batched_sink_is_byte_identical_to_per_cell(self, tmp_path):
        """batch=4 and batch=1 write byte-identical JSONL modulo timing,
        serially and across the process pool."""
        def spec_with(batch):
            return tiny_spec(seeds=(0, 1), config=EngineConfig(batch=batch))

        sinks = {}
        for label, batch, jobs in (
            ("percell", 1, 1), ("batched", 4, 1), ("pooled", 4, 3),
        ):
            sink = tmp_path / f"{label}.jsonl"
            ExperimentEngine(jobs=jobs, sink=sink).run(spec_with(batch))
            sinks[label] = stripped_lines(sink)
        assert sinks["batched"] == sinks["percell"]
        assert sinks["pooled"] == sinks["percell"]

    def test_auto_batch_matches_explicit_per_cell(self, tmp_path):
        """The default config auto-sizes batches; records still match a
        forced batch=1 run exactly (modulo timing)."""
        auto_sink = tmp_path / "auto.jsonl"
        one_sink = tmp_path / "one.jsonl"
        ExperimentEngine(jobs=1, sink=auto_sink).run(tiny_spec())
        ExperimentEngine(jobs=1, sink=one_sink).run(
            tiny_spec(config=EngineConfig(batch=1))
        )
        assert stripped_lines(auto_sink) == stripped_lines(one_sink)

    def test_streamed_batches_match_per_cell(self, tmp_path):
        """Batching composes with streamed scans: oversized members degrade
        to chunked folds and still reproduce per-cell records."""
        def spec_with(batch):
            return tiny_spec(
                config=EngineConfig(horizon_mode="stream", chunk=7, batch=batch)
            )

        batched_sink = tmp_path / "batched.jsonl"
        percell_sink = tmp_path / "percell.jsonl"
        ExperimentEngine(jobs=1, sink=batched_sink).run(spec_with(4))
        ExperimentEngine(jobs=1, sink=percell_sink).run(spec_with(1))
        assert stripped_lines(batched_sink) == stripped_lines(percell_sink)
        for record in read_records_jsonl(batched_sink):
            assert record.params["horizon_mode"] == "stream"

    def test_resume_crosses_batch_sizes(self, tmp_path):
        """A sink written per-cell resumes under batching (and vice versa)
        because cell ids are batch-independent."""
        sink = tmp_path / "run.jsonl"
        ExperimentEngine(jobs=1, sink=sink).run(tiny_spec(config=EngineConfig(batch=1)))
        lines = sink.read_text().splitlines(keepends=True)
        sink.write_text("".join(lines[:2]))  # drop half the records
        engine = ExperimentEngine(
            jobs=1, sink=sink, resume=True
        )
        engine.run(tiny_spec(config=EngineConfig(batch=4)))
        assert engine.stats["skipped"] == 2 and engine.stats["executed"] == 2
        assert len(read_records_jsonl(sink)) == 4


def cached_stripped_lines(path):
    """Sink lines with timing metrics *and* the cached stamp removed."""
    out = []
    for line in open(path):
        payload = json.loads(line)
        for key in TIMING_METRICS:
            payload["metrics"].pop(key, None)
        payload["params"].pop("cached", None)
        out.append(json.dumps(payload, sort_keys=True))
    return out


class TestStoreCache:
    """The cross-campaign cell cache: a ResultStore in front of execution."""

    def test_cold_then_warm_byte_parity(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        cold_sink = tmp_path / "cold.jsonl"
        warm_sink = tmp_path / "warm.jsonl"
        cold = ExperimentEngine(sink=cold_sink, store=store)
        cold.run(tiny_spec())
        assert cold.stats == {**cold.stats, "executed": 4, "cached": 0}
        warm = ExperimentEngine(sink=warm_sink, store=store)
        warm.run(tiny_spec())
        assert warm.stats["executed"] == 0 and warm.stats["cached"] == 4
        # warm records are byte-identical modulo timing + the cached stamp
        assert cached_stripped_lines(warm_sink) == cached_stripped_lines(cold_sink)
        # and every warm record carries the provenance stamp
        for record in read_records_jsonl(warm_sink):
            assert record.params["cached"] is True
        for record in read_records_jsonl(cold_sink):
            assert "cached" not in record.params

    def test_cross_spec_overlap_computes_only_the_delta(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store).run(tiny_spec())
        # second spec shares the small/path cells, adds small/star ones
        overlapping = tiny_spec(workloads=("small/path", "small/star"))
        engine = ExperimentEngine(store=store, sink=tmp_path / "o.jsonl")
        results = engine.run(overlapping)
        assert engine.stats["cached"] == 2 and engine.stats["executed"] == 2
        # replayed + fresh records interleave in spec order
        assert [r.workload for r in results] == [
            c.workload for c in overlapping.cells()
        ]
        cached_flags = [r.params.get("cached") for r in results]
        assert cached_flags == [True, True, None, None]

    def test_no_cache_reexecutes_but_still_records(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store).run(tiny_spec())
        forced = ExperimentEngine(store=store, cache=False)
        forced.run(tiny_spec())
        assert forced.stats["executed"] == 4 and forced.stats["cached"] == 0
        # a new spec's fresh cells still land in the store under cache=False
        extra = tiny_spec(workloads=("small/star",))
        ExperimentEngine(store=store, cache=False).run(extra)
        assert all(c.cell_id() in store for c in extra.cells())

    def test_resume_via_store_indexed_lookup(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        reference_sink = tmp_path / "ref.jsonl"
        ExperimentEngine(sink=reference_sink, store=store).run(tiny_spec())
        # resume against a *missing* sink: completed cells come from the
        # store's indexed lookup and the sink is rebuilt in spec order
        resumed_sink = tmp_path / "resumed.jsonl"
        engine = ExperimentEngine(sink=resumed_sink, store=store, resume=True)
        engine.run(tiny_spec())
        assert engine.stats["skipped"] == 4 and engine.stats["executed"] == 0
        assert engine.stats["cached"] == 0
        # resumed records are not stamped cached (they are resumed, not replayed)
        assert cached_stripped_lines(resumed_sink) == cached_stripped_lines(reference_sink)
        for record in read_records_jsonl(resumed_sink):
            assert "cached" not in record.params

    def test_resume_with_store_needs_no_sink(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store).run(tiny_spec())
        engine = ExperimentEngine(store=store, resume=True)  # no sink at all
        results = engine.run(tiny_spec())
        assert engine.stats["skipped"] == 4
        assert len(results) == 4

    def test_store_accepts_path(self, tmp_path):
        engine = ExperimentEngine(store=tmp_path / "s.sqlite")
        engine.run(tiny_spec())
        assert engine.stats["executed"] == 4
        assert len(engine.store) == 4

    def test_partial_store_runs_only_misses(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        spec = tiny_spec()
        # pre-seed the store with half the cells via a narrower spec
        ExperimentEngine(store=store).run(tiny_spec(workloads=("small/path",)))
        engine = ExperimentEngine(store=store)
        engine.run(spec)
        assert engine.stats["cached"] == 2 and engine.stats["executed"] == 2
        assert len(store) == 4

    def test_campaign_tag_recorded(self, tmp_path):
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        ExperimentEngine(store=store, campaign="pilot").run(tiny_spec())
        campaigns = store.campaigns()
        assert [c["name"] for c in campaigns] == ["pilot"]
        assert campaigns[0]["cells"] == 4
        assert campaigns[0]["experiment"] == "t"
        # default campaign name is the spec name
        ExperimentEngine(store=store, cache=False).run(tiny_spec(name="t2"))
        assert {c["name"] for c in store.campaigns()} == {"pilot", "t2"}


    def test_in_place_stamp_never_leaks(self, tmp_path):
        """Warm hits are stamped ``cached`` in place on the records the
        store lookup decoded for this run alone: the stamp never reaches
        the store, two runs never share a record, and resume stays
        unstamped."""
        from repro.io.store import ResultStore

        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        spec = tiny_spec()
        cold = ExperimentEngine(store=store).run(spec)
        engine = ExperimentEngine(store=store)
        first, second = list(engine.run(spec)), list(engine.run(spec))
        with sqlite3.connect(str(path)) as conn:
            stored = [row[0] for row in conn.execute("SELECT record_json FROM cells")]
        assert len(stored) == 4
        assert not any('"cached"' in line for line in stored)
        for a, b in zip(first, second):
            assert a is not b and a.params is not b.params and a.metrics is not b.metrics
            assert a.params["cached"] is True and b.params["cached"] is True
        expected = [record_to_json_line(r) for r in second]
        first[0].params["cell_id"] = "tampered"
        first[0].params.pop("cached")
        first[0].metrics["max_mul"] = -1.0
        third = engine.run(spec)
        assert [record_to_json_line(r) for r in third] == expected
        resumed = ExperimentEngine(store=store, resume=True)
        records = resumed.run(spec)
        assert resumed.stats["skipped"] == 4 and resumed.stats["cached"] == 0
        assert all("cached" not in r.params for r in records)
        assert [record_to_json_line(r) for r in records] == [
            record_to_json_line(r) for r in cold
        ]

    def test_duplicate_cells_get_their_own_stamped_record(self, tmp_path):
        """A cell listed twice shares one cell id, and so one decoded hit:
        the second occurrence gets a copy, not the same object."""
        from repro.io.store import ResultStore

        store = ResultStore(tmp_path / "s.sqlite")
        spec = tiny_spec(workloads=("small/path",), algorithms=("sequential",), seeds=(0, 0))
        ExperimentEngine(store=store).run(spec)
        engine = ExperimentEngine(store=store)
        a, b = engine.run(spec)
        assert engine.stats["cached"] == 2
        assert a is not b and a.params is not b.params and a.metrics is not b.metrics
        assert a == b and a.params["cached"] is True
        assert len(store) == 1


class TestParamCanonicalization:
    """Golden ids locking the JSON canonicalization of exotic param shapes.

    ``json.dumps(sort_keys=True)`` cannot sort mixed str/int keys and sorts
    all-int keys numerically, so without canonicalization the same logical
    params would hash differently before and after a JSON round-trip.
    These goldens pin the canonical form (string keys, lists) — if any of
    them moves, every stored campaign invalidates silently.
    """

    GOLDEN_PARAMS = {2: "two", "nested": [1, [2, 3]], "scale": 1.5}

    def golden_cell(self, params):
        return ExperimentCell(
            experiment="golden", workload="small/path", algorithm="sequential",
            params=params, seed=7, horizon=64,
        )

    def test_golden_cell_id_nonstring_keys_nested_lists(self):
        cell = self.golden_cell(self.GOLDEN_PARAMS)
        assert cell.cell_id() == "97418b6c6ead35b3"
        assert cell.param_key() == '{"2": "two", "nested": [1, [2, 3]], "scale": 1.5}'
        assert cell.cell_seed() == 17584579850082232586

    def test_json_roundtrip_preserves_identity(self):
        """Int keys and tuples hash identically to their JSON spellings."""
        cell = self.golden_cell(self.GOLDEN_PARAMS)
        roundtripped = self.golden_cell(json.loads(cell.param_key()))
        assert roundtripped.cell_id() == cell.cell_id()
        assert roundtripped.cell_seed() == cell.cell_seed()
        tupled = self.golden_cell({"2": "two", "nested": (1, (2, 3)), "scale": 1.5})
        assert tupled.cell_id() == cell.cell_id()

    def test_golden_derive_seed(self):
        from repro.utils.rng import derive_seed

        assert derive_seed(7, "cell", "a", "b") == 107431294533931834

    def test_plain_string_params_unchanged(self):
        """Canonicalization is a no-op for ordinary specs — the golden id
        regime of PR 4/6 sinks must not move."""
        cell = ExperimentCell(
            experiment="golden", workload="small/path", algorithm="sequential",
            params={"scale": 2}, seed=0, horizon=32,
        )
        assert cell.param_key() == json.dumps({"scale": 2}, sort_keys=True)
        assert cell.cell_id() == "f5a2b3294ef2c885"


def reference_cell_id(cell):
    """The cell id as one ``json.dumps`` of the whole identity dict — the
    definition every identity template must reproduce byte for byte."""
    identity = {
        "experiment": cell.experiment,
        "workload": cell.workload,
        "algorithm": cell.algorithm,
        "params": _canonical_value(dict(cell.params)),
        "seed": cell.seed,
        "horizon": cell.horizon,
        "policy": asdict(cell.policy),
        "backend": cell.config.backend,
        "certify_bound": cell.certify_bound,
        "workload_params": _canonical_value(dict(cell.workload_params)),
        "graph_key": cell.graph_key,
    }
    identity.update(
        {k: v for k, v in cell.config.non_default().items() if k not in ("backend", "batch")}
    )
    payload = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def exotic_cells():
    """Cells whose fields stress the JSON writing: ``%`` signs, non-ASCII
    and escaped characters, int keys, tuples, floats, negative and huge
    ints, ``None``, ``bool`` and an int-valued float policy."""
    configs = [
        EngineConfig(),
        EngineConfig(backend="bitmask", horizon_mode="stream", chunk=7, window=3),
        EngineConfig(stream_jobs=3, checkpoint=False, batch=2),
    ]
    policies = [HorizonPolicy(), HorizonPolicy(multiplier=4.0), HorizonPolicy(explicit=10)]
    fields = [
        dict(experiment="100% %s %% e\u00e9 \"q\"\n", params={}, seed=0),
        dict(experiment="t", params={2: "two", "x": (1, 2.5), "u": "\u00fc"}, seed=-3),
        dict(experiment="t", params={"flag": True, "none": None}, seed=2**70,
             horizon=64, certify_bound=False),
        dict(experiment="t", params={"nested": {"b": [1, {"a": 0}]}}, seed=1,
             workload_params={"seed": 3, "scale": 1.5}, graph_key="%d"),
    ]
    return [
        ExperimentCell(workload="small/path", algorithm="seq%uential", policy=policy,
                       config=config, **extra)
        for config in configs
        for policy in policies
        for extra in fields
    ]


class TestIdentityTemplates:
    def test_cell_id_equals_reference_json(self):
        cells = exotic_cells()
        assert [c.cell_id() for c in cells] == [reference_cell_id(c) for c in cells]

    def test_cell_ids_of_equals_per_cell_ids(self):
        """Equal-comparing policies (4 == 4.0) serialise differently, so
        ``cell_ids_of`` must not share one template between them."""
        cells = exotic_cells()
        assert cell_ids_of(cells) == [c.cell_id() for c in cells]
        int_policy = replace(cells[0], policy=HorizonPolicy(multiplier=4))
        float_policy = replace(cells[0], policy=HorizonPolicy(multiplier=4.0))
        ids = cell_ids_of([int_policy, float_policy])
        assert ids == [int_policy.cell_id(), float_policy.cell_id()]
        assert ids[0] != ids[1]

    def test_policy_to_dict_is_a_plain_field_dict(self):
        policy = HorizonPolicy(multiplier=5, minimum=8, cap=99, explicit=None)
        assert policy.to_dict() == asdict(policy)
        assert list(policy.to_dict()) == ["multiplier", "minimum", "cap", "explicit"]
        assert HorizonPolicy.from_dict(policy.to_dict()) == policy
