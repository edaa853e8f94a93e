"""Persistent result store: a cross-campaign cell cache behind SQLite.

JSONL sinks (:mod:`repro.io.results`) resume *one* spec, but every new
campaign recomputes every cell from scratch — "has any campaign ever run
this cell?" is unanswerable from a directory of append-only files.  The
:class:`ResultStore` answers it in one indexed lookup: every record is
keyed by its content-addressed ``cell_id`` (SHA-256 over the cell identity
and execution knobs, :meth:`repro.analysis.engine.ExperimentCell.cell_id`),
so results are immutable, addressable, and shareable across campaigns —
two specs overlapping on 90% of their grid pay for the 10% delta.

The store is an **I/O concern, not an execution knob**: it never appears on
:class:`~repro.core.config.EngineConfig` and never moves a ``cell_id``.
JSONL stays the wire format — the stored payload *is* the canonical record
line, so a cache hit replays byte-identical content, and
:meth:`import_jsonl` / :meth:`export_jsonl` round-trip between the two
representations losslessly.

Backend: stdlib :mod:`sqlite3` in WAL mode (readers never block the writer,
two engine processes can share one store), with a schema kept deliberately
Postgres-portable — ``TEXT``/``INTEGER`` columns, JSON carried as text, no
SQLite-only column types; the one SQLite-ism is ``json_extract`` in
parameter filters (``jsonb ->>`` under Postgres).  See ``docs/storage.md``.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.records import ExperimentRecord
from repro.io.results import record_to_json_line
from repro.utils.logging import get_logger

__all__ = ["ResultStore", "CACHED_PARAM"]

_log = get_logger("io.store")

_PathLike = Union[str, Path]

#: the param stamped (as ``true``) on records replayed from the store, so a
#: sink always tells fresh computation from cache hits.  Like the timing
#: metrics, it is a provenance field: comparisons between warm and cold
#: sinks strip it alongside ``TIMING_METRICS``.
CACHED_PARAM = "cached"

#: Portable DDL: TEXT/INTEGER only, JSON as text, timestamps as ISO-8601
#: strings — everything here pastes into Postgres with ``IF NOT EXISTS``
#: intact and no type edits.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    name        TEXT PRIMARY KEY,
    experiment  TEXT,
    spec_json   TEXT,
    created_at  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    cell_id      TEXT PRIMARY KEY,
    experiment   TEXT NOT NULL,
    workload     TEXT NOT NULL,
    algorithm    TEXT NOT NULL,
    params_json  TEXT NOT NULL,
    seed         INTEGER,
    horizon      INTEGER,
    config_json  TEXT,
    metrics_json TEXT NOT NULL,
    record_json  TEXT NOT NULL,
    campaign     TEXT,
    created_at   TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cells_identity
    ON cells (workload, algorithm, seed, horizon);
CREATE INDEX IF NOT EXISTS idx_cells_experiment ON cells (experiment);
CREATE INDEX IF NOT EXISTS idx_cells_campaign ON cells (campaign);
"""

#: chunk size for ``WHERE cell_id IN (...)`` lookups — comfortably below
#: SQLite's default 999-variable statement limit.
_LOOKUP_CHUNK = 400


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _record_from_json(record_json: str) -> ExperimentRecord:
    """Decode a stored ``record_json`` straight into a record.

    Every stored line was written by :func:`record_to_json_line`, so all
    five keys are present, and the freshly decoded ``metrics``/``params``
    dicts become the record's own: nothing else references them, so unlike
    :func:`~repro.io.results.record_from_dict` this makes no copy.
    """
    payload = json.loads(record_json)
    return ExperimentRecord(
        experiment=payload["experiment"],
        workload=payload["workload"],
        algorithm=payload["algorithm"],
        metrics=payload["metrics"],
        params=payload["params"],
    )


def _as_int(value: object) -> Optional[int]:
    """Identity columns are best-effort indexes, never the source of truth
    (that is ``record_json``), so a non-integral value degrades to NULL."""
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


class ResultStore:
    """A content-keyed store of experiment records, shared across campaigns.

    Open it directly or as a context manager::

        with ResultStore("results.sqlite") as store:
            store.put_many(records, campaign="sweep-1")
            hits = store.lookup(cell_ids)       # {cell_id: record}, indexed

    Writes are idempotent by construction: ``cell_id`` is content-derived,
    so inserting the same cell twice (same process or a concurrent one) is
    a no-op — first writer wins, and both writers were about to write the
    same bytes anyway (modulo timing fields).
    """

    def __init__(
        self, path: _PathLike, timeout: float = 30.0, threadsafe: bool = False
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Autocommit (isolation_level=None): every INSERT lands immediately,
        # which is what makes a crash-interrupted campaign resumable from
        # the store, and busy_timeout covers writer collisions under WAL.
        # threadsafe=True allows one store to be shared across threads (the
        # serving layer's read-through); callers there serialize statement
        # execution themselves, and the stdlib sqlite3 build is in serialized
        # threading mode anyway (sqlite3.threadsafety == 3).
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=timeout,
            isolation_level=None,
            check_same_thread=not threadsafe,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.path)!r}, cells={len(self)})"

    # -- campaigns -----------------------------------------------------------
    def register_campaign(
        self,
        name: str,
        experiment: Optional[str] = None,
        spec_json: Optional[str] = None,
    ) -> None:
        """Record a campaign (first registration wins; later ones are no-ops).

        A campaign is a provenance tag, not a partition: cells carry the
        campaign that *first computed* them, and later campaigns reading
        those cells as cache hits never re-tag them.

        A known name costs one read: the insert (a write statement, which
        takes SQLite's write lock) runs only when the name is absent, so a
        fully cached replay never waits on another process's write
        transaction.  ``OR IGNORE`` keeps two processes that both saw the
        name absent harmless.
        """
        known = self._conn.execute(
            "SELECT 1 FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if known is not None:
            return
        self._conn.execute(
            "INSERT OR IGNORE INTO campaigns (name, experiment, spec_json, created_at) "
            "VALUES (?, ?, ?, ?)",
            (name, experiment, spec_json, _now()),
        )

    def campaigns(self) -> List[Dict[str, object]]:
        """Registered campaigns with their cell counts, oldest first."""
        rows = self._conn.execute(
            "SELECT c.name, c.experiment, c.created_at, "
            "       (SELECT COUNT(*) FROM cells WHERE cells.campaign = c.name) "
            "FROM campaigns c ORDER BY c.created_at, c.name"
        ).fetchall()
        return [
            {"name": name, "experiment": experiment, "created_at": created, "cells": count}
            for name, experiment, created, count in rows
        ]

    # -- writes --------------------------------------------------------------
    def put(
        self,
        record: ExperimentRecord,
        campaign: Optional[str] = None,
        config_json: Optional[str] = None,
    ) -> bool:
        """Insert one record under its ``cell_id``; returns True if new.

        The record must carry ``params["cell_id"]`` (every engine record
        does).  Re-inserting an existing cell is a no-op — content-keyed
        results never change, so first writer wins.
        """
        return self.put_many([record], campaign=campaign, config_json=config_json) == 1

    def put_many(
        self,
        records: Iterable[ExperimentRecord],
        campaign: Optional[str] = None,
        config_json: Optional[str] = None,
    ) -> int:
        """Insert many records in one transaction; returns how many were new.

        Records are stored in canonical form: the :data:`CACHED_PARAM`
        provenance stamp (present when importing a warm sink) is dropped, so
        a replayed hit is byte-identical whether its store was filled by an
        engine run or by :meth:`import_jsonl` of that run's sink.
        """
        rows = []
        for record in records:
            if CACHED_PARAM in record.params:
                params = {k: v for k, v in record.params.items() if k != CACHED_PARAM}
                record = ExperimentRecord(
                    experiment=record.experiment,
                    workload=record.workload,
                    algorithm=record.algorithm,
                    metrics=dict(record.metrics),
                    params=params,
                )
            cell_id = record.params.get("cell_id")
            if not isinstance(cell_id, str) or not cell_id:
                raise ValueError(
                    "record has no params['cell_id'] content key; only engine "
                    "records (or JSONL exported from a store) can be stored"
                )
            rows.append(
                (
                    cell_id,
                    record.experiment,
                    record.workload,
                    record.algorithm,
                    json.dumps(dict(record.params), sort_keys=True, default=repr),
                    _as_int(record.params.get("seed")),
                    _as_int(record.params.get("horizon")),
                    config_json,
                    json.dumps(dict(record.metrics), sort_keys=True),
                    record_to_json_line(record),
                    campaign,
                    _now(),
                )
            )
        if not rows:
            return 0
        before = self._conn.total_changes
        self._conn.executemany(
            "INSERT OR IGNORE INTO cells (cell_id, experiment, workload, algorithm, "
            "params_json, seed, horizon, config_json, metrics_json, record_json, "
            "campaign, created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            rows,
        )
        return self._conn.total_changes - before

    # -- indexed reads -------------------------------------------------------
    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0])

    def __contains__(self, cell_id: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM cells WHERE cell_id = ?", (cell_id,)
        ).fetchone()
        return row is not None

    def get(self, cell_id: str) -> Optional[ExperimentRecord]:
        """The record stored under ``cell_id``, or None."""
        row = self._conn.execute(
            "SELECT record_json FROM cells WHERE cell_id = ?", (cell_id,)
        ).fetchone()
        if row is None:
            return None
        return _record_from_json(row[0])

    def lookup(self, cell_ids: Sequence[str]) -> Dict[str, ExperimentRecord]:
        """``{cell_id: record}`` for every given id present in the store.

        One indexed ``IN`` probe per :data:`_LOOKUP_CHUNK` ids — this is the
        engine's cache (and resume) fast path, O(hits) instead of
        re-parsing a whole JSONL sink.  Each hit is decoded once into a
        record the caller owns outright (see :func:`_record_from_json`).
        """
        out: Dict[str, ExperimentRecord] = {}
        ids = list(dict.fromkeys(cell_ids))  # dedup, keep order
        for start in range(0, len(ids), _LOOKUP_CHUNK):
            chunk = ids[start : start + _LOOKUP_CHUNK]
            placeholders = ",".join("?" * len(chunk))
            rows = self._conn.execute(
                f"SELECT cell_id, record_json FROM cells WHERE cell_id IN ({placeholders})",
                chunk,
            ).fetchall()
            for cell_id, record_json in rows:
                out[cell_id] = _record_from_json(record_json)
        return out

    # -- filtered queries ----------------------------------------------------
    def query(
        self,
        experiment: Optional[str] = None,
        workload: Optional[str] = None,
        algorithm: Optional[str] = None,
        campaign: Optional[str] = None,
        seed: Union[int, Tuple[int, int], None] = None,
        horizon: Union[int, Tuple[int, int], None] = None,
        params: Optional[Mapping[str, object]] = None,
        limit: Optional[int] = None,
    ) -> List[ExperimentRecord]:
        """Records matching every given filter, in insertion order.

        ``seed`` / ``horizon`` accept an exact value or an inclusive
        ``(lo, hi)`` range; both push down onto the identity index.
        ``params`` matches scalar record params by key via ``json_extract``
        (the one spelling that differs under Postgres: ``jsonb ->>``).
        """
        where: List[str] = []
        args: List[object] = []
        for column, value in (
            ("experiment", experiment),
            ("workload", workload),
            ("algorithm", algorithm),
            ("campaign", campaign),
        ):
            if value is not None:
                where.append(f"{column} = ?")
                args.append(value)
        for column, value in (("seed", seed), ("horizon", horizon)):
            if value is None:
                continue
            if isinstance(value, tuple):
                lo, hi = value
                where.append(f"{column} BETWEEN ? AND ?")
                args.extend([int(lo), int(hi)])
            else:
                where.append(f"{column} = ?")
                args.append(int(value))
        for key, value in (params or {}).items():
            # json_extract returns JSON scalars: booleans surface as 0/1.
            where.append("json_extract(params_json, ?) = ?")
            args.append(f'$."{key}"')
            args.append(int(value) if isinstance(value, bool) else value)
        sql = "SELECT record_json FROM cells"
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += " ORDER BY rowid"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        rows = self._conn.execute(sql, args).fetchall()
        return [_record_from_json(r[0]) for r in rows]

    # -- JSONL interop (the wire format) -------------------------------------
    def import_jsonl(self, path: _PathLike, campaign: Optional[str] = None) -> int:
        """Load a JSONL sink into the store; returns how many cells were new.

        Every line must be a record carrying ``params["cell_id"]`` — i.e. an
        engine sink or a prior :meth:`export_jsonl`.  A truncated trailing
        line is skipped with a warning (:func:`repro.io.results.read_records_jsonl`).
        """
        from repro.io.results import read_records_jsonl

        records = read_records_jsonl(path)
        added = self.put_many(records, campaign=campaign)
        _log.info("imported %s: %d records, %d new cells", path, len(records), added)
        return added

    def export_jsonl(self, path: _PathLike, **filters: object) -> Path:
        """Write :meth:`query` results to a JSONL file (the engine sink
        format); the stored canonical lines are replayed byte-for-byte."""
        from repro.io.results import write_records_jsonl

        return write_records_jsonl(path, self.query(**filters))  # type: ignore[arg-type]
