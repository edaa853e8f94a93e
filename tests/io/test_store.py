"""Tests for the persistent result store (the cross-campaign cell cache).

Covers the SQLite-backed :class:`~repro.io.store.ResultStore` itself
(content-keyed writes, indexed lookups, filtered queries, JSONL interop),
the truncated-sink warning in :mod:`repro.io.results`, and concurrent
writers — two engine processes sharing one WAL-mode store.  The engine's
cache *semantics* (cold→warm parity, overlap deltas, ``--no-cache``) live
in ``tests/analysis/test_engine.py``.
"""

import json
import logging
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import ExperimentEngine, ExperimentSpec
from repro.analysis.records import ExperimentRecord, ResultSet
from repro.io.results import read_records_jsonl, record_to_json_line, write_records_jsonl
from repro.io.store import CACHED_PARAM, ResultStore


def make_record(cell_id, workload="small/path", algorithm="sequential",
                seed=0, horizon=48, experiment="t", **params):
    all_params = {"cell_id": cell_id, "seed": seed, "horizon": horizon, **params}
    return ExperimentRecord(
        experiment=experiment, workload=workload, algorithm=algorithm,
        metrics={"max_mul": 3.0, "legal": 1.0, "measure_seconds": 0.01},
        params=all_params,
    )


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            record = make_record("aa" * 8)
            assert store.put(record) is True
            assert len(store) == 1
            assert "aa" * 8 in store
            got = store.get("aa" * 8)
            assert record_to_json_line(got) == record_to_json_line(record)
            assert store.get("bb" * 8) is None

    def test_put_is_idempotent_first_writer_wins(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            first = make_record("aa" * 8)
            again = make_record("aa" * 8, extra="changed")
            assert store.put(first, campaign="one") is True
            assert store.put(again, campaign="two") is False
            assert len(store) == 1
            # content unchanged: the first write is the record of record
            assert record_to_json_line(store.get("aa" * 8)) == record_to_json_line(first)

    def test_put_requires_cell_id(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            bare = ExperimentRecord("t", "w", "a", {"max_mul": 1.0}, {})
            with pytest.raises(ValueError, match="cell_id"):
                store.put(bare)

    def test_lookup_returns_only_hits_in_one_probe(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            records = [make_record(f"{i:016x}") for i in range(10)]
            assert store.put_many(records) == 10
            wanted = [f"{i:016x}" for i in range(5)] + ["ff" * 8]
            hits = store.lookup(wanted)
            assert sorted(hits) == sorted(f"{i:016x}" for i in range(5))

    def test_lookup_chunks_past_sqlite_variable_limit(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            ids = [f"{i:016x}" for i in range(1100)]  # > 999 bind variables
            store.put_many([make_record(cid) for cid in ids])
            assert len(store.lookup(ids)) == 1100

    def test_query_filters_push_down(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put_many(
                [
                    make_record(f"{i:016x}", workload=f"w{i % 2}",
                                algorithm="sequential", seed=i, horizon=32 * (1 + i % 3),
                                scale=i % 2 == 0)
                    for i in range(12)
                ],
                campaign="sweep",
            )
            assert len(store.query(workload="w0")) == 6
            assert len(store.query(seed=3)) == 1
            assert len(store.query(seed=(0, 5))) == 6
            assert len(store.query(horizon=32)) == 4
            assert len(store.query(campaign="sweep")) == 12
            assert len(store.query(campaign="other")) == 0
            assert len(store.query(workload="w0", limit=2)) == 2
            # params filter via json_extract, booleans included
            assert len(store.query(params={"scale": True})) == 6
            assert len(store.query(params={"cell_id": "0" * 15 + "1"})) == 1

    def test_query_insertion_order_and_resultset_from_store(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            ids = [f"{i:016x}" for i in (3, 1, 2)]
            for cid in ids:
                store.put(make_record(cid))
            assert [r.params["cell_id"] for r in store.query()] == ids
            rs = ResultSet.from_store(store, workload="small/path")
            assert isinstance(rs, ResultSet)
            assert len(rs) == 3

    def test_campaigns_listing_and_first_registration_wins(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.register_campaign("c1", experiment="e1", spec_json="{}")
            store.register_campaign("c1", experiment="changed")
            store.put(make_record("aa" * 8), campaign="c1")
            store.put(make_record("bb" * 8), campaign="c1")
            listed = store.campaigns()
            assert [c["name"] for c in listed] == ["c1"]
            assert listed[0]["experiment"] == "e1"
            assert listed[0]["cells"] == 2

    def test_reopen_persists(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(make_record("aa" * 8))
        with ResultStore(path) as store:
            assert len(store) == 1
            assert "aa" * 8 in store

    def test_close_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.close()
        store.close()


class TestJsonlInterop:
    def test_import_export_roundtrip_byte_identical(self, tmp_path):
        source = tmp_path / "source.jsonl"
        records = [make_record(f"{i:016x}", seed=i) for i in range(4)]
        write_records_jsonl(source, records)
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.import_jsonl(source, campaign="imported") == 4
            # re-import is a no-op (content-keyed)
            assert store.import_jsonl(source) == 0
            out = store.export_jsonl(tmp_path / "export.jsonl")
        assert out.read_bytes() == source.read_bytes()

    def test_import_strips_cached_stamp(self, tmp_path):
        """A warm sink (cached: true stamps) imports as canonical records."""
        warm = tmp_path / "warm.jsonl"
        stamped = ExperimentRecord(
            "t", "w", "a", {"max_mul": 1.0},
            {"cell_id": "aa" * 8, CACHED_PARAM: True},
        )
        write_records_jsonl(warm, [stamped])
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.import_jsonl(warm) == 1
            got = store.get("aa" * 8)
            assert CACHED_PARAM not in got.params

    def test_import_requires_cell_ids(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        write_records_jsonl(bad, [ExperimentRecord("t", "w", "a", {}, {})])
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ValueError, match="cell_id"):
                store.import_jsonl(bad)


class TestTruncatedSinkWarning:
    def test_truncated_trailing_line_warns_with_byte_offset(self, tmp_path, caplog):
        sink = tmp_path / "out.jsonl"
        good = record_to_json_line(make_record("aa" * 8))
        sink.write_text(good + "\n" + '{"experiment": "t", "work', encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.io.results"):
            records = read_records_jsonl(sink)
        assert len(records) == 1
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert str(sink) in message
        # the truncated line starts right after the good line + newline
        expected_offset = len((good + "\n").encode("utf-8"))
        assert f"byte offset {expected_offset}" in message
        assert ":2:" in message  # line number

    def test_malformed_middle_line_still_raises(self, tmp_path):
        sink = tmp_path / "out.jsonl"
        good = record_to_json_line(make_record("aa" * 8))
        sink.write_text("not json\n" + good + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed"):
            read_records_jsonl(sink)

    def test_strict_rejects_truncated_tail(self, tmp_path):
        sink = tmp_path / "out.jsonl"
        sink.write_text('{"broken', encoding="utf-8")
        with pytest.raises(ValueError):
            read_records_jsonl(sink, strict=True)


class TestImportTruncated:
    """``results import`` on a crash-truncated sink: the completed prefix
    lands in the store and the byte-offset warning surfaces — both through
    the library call and through the CLI."""

    def _truncated_sink(self, tmp_path):
        sink = tmp_path / "truncated.jsonl"
        good = [record_to_json_line(make_record(f"{i:016x}")) for i in range(3)]
        sink.write_text("\n".join(good) + "\n" + '{"experiment": "t", "half', encoding="utf-8")
        return sink, len(("\n".join(good) + "\n").encode("utf-8"))

    def test_import_jsonl_keeps_prefix_and_warns_with_offset(self, tmp_path, caplog):
        sink, offset = self._truncated_sink(tmp_path)
        with ResultStore(tmp_path / "s.sqlite") as store:
            with caplog.at_level(logging.WARNING, logger="repro.io.results"):
                added = store.import_jsonl(sink, campaign="salvage")
            assert added == 3 and len(store) == 3
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 1
        assert f"byte offset {offset}" in messages[0]
        assert ":4:" in messages[0]  # the truncated line number

    def test_cli_results_import_surfaces_the_warning(self, tmp_path, capsys, monkeypatch):
        import repro.utils.logging as repro_logging
        from repro.cli import main

        # pristine logging state so the CLI's configure() binds the handler
        # to this test's captured stderr
        root = logging.getLogger("repro")
        monkeypatch.setattr(repro_logging, "_configured", False)
        monkeypatch.setattr(root, "handlers", [])

        sink, offset = self._truncated_sink(tmp_path)
        store_path = tmp_path / "s.sqlite"
        exit_code = main(["results", "import", str(store_path), str(sink)])
        out, err = capsys.readouterr()

        assert exit_code == 0
        assert "3 new cells" in out
        assert f"byte offset {offset}" in err
        assert "truncated trailing record" in err
        with ResultStore(store_path) as store:
            assert len(store) == 3


_WORKER = """
import sys
sys.path.insert(0, {src!r})
from repro.analysis.engine import ExperimentEngine, ExperimentSpec
spec = ExperimentSpec(
    name="concurrent",
    workloads=("small/path", "small/clique", "small/star", "small/cycle"),
    algorithms=(sys.argv[2],),
    horizon=48,
    seeds=(0, 1),
)
engine = ExperimentEngine(store=sys.argv[1])
engine.run(spec)
print(engine.stats["executed"])
"""


class TestConcurrentWriters:
    def test_two_engine_processes_share_one_store(self, tmp_path):
        """Two engines writing the same WAL store concurrently: no errors,
        no lost cells, overlapping cells written exactly once."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        store_path = tmp_path / "shared.sqlite"
        script = _WORKER.format(src=src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store_path), algorithm],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for algorithm in ("sequential", "degree-periodic")
        ]
        outputs = [p.communicate(timeout=120) for p in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
        with ResultStore(store_path) as store:
            # 4 workloads × 2 seeds per algorithm, disjoint algorithms
            assert len(store) == 16
            recs = store.query(experiment="concurrent")
            assert len({r.params["cell_id"] for r in recs}) == 16

    def test_same_spec_raced_writes_once(self, tmp_path):
        """Both processes run the *same* cells: content-keyed INSERT OR
        IGNORE keeps exactly one copy per cell."""
        src = str(Path(__file__).resolve().parents[2] / "src")
        store_path = tmp_path / "shared.sqlite"
        script = _WORKER.format(src=src)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store_path), "sequential"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outputs = [p.communicate(timeout=120) for p in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
        with ResultStore(store_path) as store:
            assert len(store) == 8


class TestWarmReplayIsReadOnly:
    def test_cached_replay_runs_while_another_connection_holds_the_write_lock(
        self, tmp_path
    ):
        """A fully cached replay issues no write statement, so another
        connection's open write transaction cannot block it.  Registering
        the already-known campaign used to run ``INSERT OR IGNORE`` anyway,
        which waited for the lock and then raised ``database is locked``."""
        path = tmp_path / "s.sqlite"
        spec = ExperimentSpec(
            name="locked", workloads=("small/path",), algorithms=("sequential",),
            seeds=(0, 1),
        )
        with ResultStore(path) as store:
            ExperimentEngine(store=store).run(spec)
        holder = sqlite3.connect(str(path), isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            with ResultStore(path, timeout=0.2) as store:
                engine = ExperimentEngine(store=store)
                engine.run(spec)
                assert engine.stats["cached"] == 2 and engine.stats["executed"] == 0
                # the lock is real: a new campaign name still has to write
                with pytest.raises(sqlite3.OperationalError, match="locked"):
                    store.register_campaign("another")
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        with ResultStore(path) as store:
            store.register_campaign("another")
            assert {c["name"] for c in store.campaigns()} == {"locked", "another"}


class TestOpenStoreFacade:
    def test_api_open_store(self, tmp_path):
        from repro.api import open_store

        with open_store(tmp_path / "s.sqlite") as store:
            assert isinstance(store, ResultStore)
            store.put(make_record("aa" * 8))
        with open_store(tmp_path / "s.sqlite") as store:
            assert len(store) == 1
