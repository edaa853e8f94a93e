"""Declarative experiment engine: specs in, streamed records out.

The layer between *one* scheduler×graph run (:mod:`repro.analysis.runner`)
and a whole empirical campaign.  An :class:`ExperimentSpec` is pure data —
named workloads (resolved through :mod:`repro.graphs.suites`), registered
schedulers, a parameter grid, seeds, a :class:`HorizonPolicy` and one
:class:`~repro.core.config.EngineConfig` of trace-engine knobs (backend,
horizon representation, chunk width, streamed-scan workers) — and an
:class:`ExperimentEngine` executes its
cartesian product of cells with pluggable executors:

* ``jobs=1`` — in-process serial loop (no pool overhead);
* ``jobs=N`` — :class:`concurrent.futures.ProcessPoolExecutor` fan-out.

Before execution a **batching planner** groups compatible cells — same
workload graph, same resolved horizon, same :class:`EngineConfig` — into
units of up to ``config.batch`` schedules (default: auto-sized from
:data:`~repro.core.trace.AUTO_STREAM_BYTES`), and each multi-cell unit is
evaluated through one stacked :class:`~repro.core.trace.TraceBatch` kernel
instead of one trace per cell.  Batching is purely a wall-clock
optimisation: every record is assembled by the same code path as per-cell
execution over a member view of the stacked trace, so a batched run's sink
is byte-identical to a per-cell run modulo the timing metrics (asserted by
``tests/core/test_batch.py`` / ``tests/analysis/test_engine.py``).  With
``jobs=N`` the pool fans out across units, one future per batch.

Records stream to a JSONL *sink* as cells complete, but always in spec
order (a small reorder buffer holds out-of-order completions), so a serial
and a parallel run of the same spec produce **byte-identical** files modulo
the timing metrics.  That determinism rests on per-cell seeding: every
cell's scheduler seed is derived from ``(workload, algorithm, params,
seed)`` via :func:`repro.utils.rng.derive_seed`, never from execution
order or worker identity.

Every cell also carries a content-keyed :attr:`~ExperimentCell.cell_id`
(a SHA-256 over the cell identity and the spec's execution knobs), which is
what makes interrupted runs resumable: ``resume=True`` reads the sink,
keeps the completed cells it finds, and re-runs only the missing ones.

The same content key powers the **cross-campaign cache**: attach a
:class:`~repro.io.store.ResultStore` (``store=``) and every planned cell is
looked up by ``cell_id`` before execution — hits replay the stored record
straight to the sink (stamped ``cached: true``), misses run and are written
back, so two specs sharing 90% of their grid pay for the 10% delta.  The
store is an I/O concern: it never changes a ``cell_id`` or a computed
record, and the JSONL sink remains the wire format.  With a store attached,
``resume=True`` also resolves through one indexed lookup instead of
re-parsing the sink.
"""

from __future__ import annotations

import collections.abc
import hashlib
import itertools
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.records import ExperimentRecord, ResultSet
from repro.core.config import EngineConfig
from repro.core.problem import ConflictGraph
from repro.core.trace import AUTO_STREAM_BYTES, DEFAULT_CHUNK, TraceBatch, dense_trace_bytes
from repro.graphs.suites import expand_workload_names, get_workload
from repro.utils.logging import get_logger
from repro.utils.rng import derive_seed

__all__ = [
    "HorizonPolicy",
    "ExperimentSpec",
    "ExperimentCell",
    "ExperimentEngine",
    "cell_ids_of",
    "execute_cell",
    "expand_grid",
    "run_grid",
]

_log = get_logger("analysis.engine")

#: metric keys that measure wall-clock time and therefore legitimately
#: differ between two otherwise identical runs of the same spec.
TIMING_METRICS = ("build_seconds", "measure_seconds")

#: record params the engine stamps on every cell; grid keys must not shadow
#: them or the swept values would be silently clobbered in the output.
RESERVED_PARAMS = frozenset(
    {"horizon", "n", "backend", "seed", "cell_seed", "cell_id", "horizon_mode"}
)


# ---------------------------------------------------------------------------
# horizon policy (shared by analysis.runner and benchmarks.common)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HorizonPolicy:
    """How long to observe a schedule before measuring it.

    One object consolidates the two historically duplicated rules:

    * :meth:`for_graph` — the degree rule of ``analysis.runner``: several
      multiples of the Section 5 period ``2·(Δ+1)``, clamped to
      ``[minimum, cap]``;
    * :meth:`for_bound` — the bound rule of ``benchmarks.common``: several
      multiples of a stated per-node bound, clamped the same way.

    :meth:`resolve` combines them the way ``run_scheduler`` always has:
    degree rule first, then (uncapped) extension so a claimed per-node bound
    can actually be witnessed twice.  ``explicit`` short-circuits everything
    — a spec with a fixed horizon evaluates every cell over that horizon.

    The policy decides how *long* to observe; how the observation is
    *represented* (dense matrix vs. streamed chunks) is the spec's
    ``horizon_mode``/``chunk`` — see :mod:`repro.core.trace`.
    """

    multiplier: int = 4
    minimum: int = 32
    cap: int = 20_000
    explicit: Optional[int] = None

    def _clamp(self, horizon: int) -> int:
        return max(self.minimum, min(horizon, self.cap))

    def for_graph(self, graph: ConflictGraph) -> int:
        """Horizon from the degree rule alone."""
        if self.explicit is not None:
            return self.explicit
        return self._clamp(self.multiplier * 2 * (graph.max_degree() + 1))

    def for_bound(self, worst_bound: float) -> int:
        """Horizon long enough to witness a per-node bound several times."""
        if self.explicit is not None:
            return self.explicit
        return self._clamp(int(self.multiplier * worst_bound) + 2)

    def resolve(
        self,
        graph: ConflictGraph,
        bound_fn: Optional[Callable[[object], float]] = None,
    ) -> int:
        """The horizon ``run_scheduler`` uses when none is given explicitly."""
        if self.explicit is not None:
            return self.explicit
        horizon = self.for_graph(graph)
        if bound_fn is not None and graph.num_nodes() > 0:
            worst_bound = max(bound_fn(p) for p in graph.nodes())
            horizon = max(horizon, int(2 * worst_bound) + 2)
        return horizon

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (for spec files and cell hashing).  The
        fields are scalars, so a plain field dict needs no deep copy."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "HorizonPolicy":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown HorizonPolicy fields: {sorted(unknown)}")
        return cls(**payload)


# ---------------------------------------------------------------------------
# grid expansion (canonical home; re-exported by analysis.sweeps)
# ---------------------------------------------------------------------------

def expand_grid(param_lists: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """All combinations of the given parameter lists, as dictionaries.

    The iteration order is deterministic: parameters vary fastest in the
    order they appear last in the mapping (standard cartesian-product order).
    """
    if not param_lists:
        return [{}]
    names = list(param_lists.keys())
    combos = itertools.product(*(param_lists[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]


# ---------------------------------------------------------------------------
# spec and cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment as pure data.

    ``workloads`` are registry names (glob patterns like ``small/*`` expand
    against :func:`repro.graphs.suites.available_workloads`) or keys of the
    graph mapping passed to :meth:`ExperimentEngine.run`.  ``grid`` values
    must be JSON-serializable; each grid point is forwarded to the workload
    factory (filtered to the parameters it accepts) and recorded verbatim in
    the cell's params.  ``workload_params`` are fixed factory parameters
    shared by every cell (e.g. a workload-construction seed), not swept.
    """

    name: str
    workloads: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    grid: Mapping[str, Tuple[object, ...]] = field(default_factory=dict)
    seeds: Tuple[int, ...] = (0,)
    horizon: Optional[int] = None
    policy: HorizonPolicy = field(default_factory=HorizonPolicy)
    certify_bound: bool = True
    workload_params: Mapping[str, object] = field(default_factory=dict)
    #: every trace-engine execution knob for every cell — backend, horizon
    #: representation, chunk width, per-cell streamed-scan workers, generator
    #: window, batch size — on one EngineConfig.  Non-default knobs are
    #: hashed into cell ids (except ``batch``, which never changes a record);
    #: defaults leave ids (and therefore resumable sinks) untouched.
    config: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        grid = dict(self.grid)
        for key, values in grid.items():
            if key in RESERVED_PARAMS:
                raise ValueError(
                    f"grid key {key!r} collides with a reserved record field; "
                    "sweep scheduler seeds via 'seeds', fix the horizon via "
                    "'horizon', or rename the parameter"
                )
            # tuple("fast") would silently become per-character grid points
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise ValueError(
                    f"grid values for {key!r} must be a list of values, got {values!r}"
                )
        object.__setattr__(self, "grid", {k: tuple(v) for k, v in grid.items()})
        object.__setattr__(self, "workload_params", dict(self.workload_params))
        if not self.workloads:
            raise ValueError("spec needs at least one workload")
        if not self.algorithms:
            raise ValueError("spec needs at least one algorithm")
        if not self.seeds:
            raise ValueError("spec needs at least one seed")

    def resolved_workloads(self, extra: Sequence[str] = ()) -> List[str]:
        """Workload names with glob patterns expanded."""
        return expand_workload_names(self.workloads, extra=extra)

    def cells(self, extra_workloads: Sequence[str] = ()) -> List["ExperimentCell"]:
        """The ordered cartesian product: workload × algorithm × grid × seed."""
        # Cells share the grid-point dicts and the spec's workload_params:
        # nothing mutates a cell's mappings (records copy them), so a
        # per-cell copy would only cost time.
        grid_points = expand_grid(self.grid)
        out: List[ExperimentCell] = []
        for workload in self.resolved_workloads(extra=extra_workloads):
            for algorithm in self.algorithms:
                for params in grid_points:
                    for seed in self.seeds:
                        out.append(
                            ExperimentCell(
                                experiment=self.name,
                                workload=workload,
                                algorithm=algorithm,
                                params=params,
                                seed=seed,
                                horizon=self.horizon,
                                policy=self.policy,
                                certify_bound=self.certify_bound,
                                workload_params=self.workload_params,
                                config=self.config,
                            )
                        )
        return out

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form of the whole spec."""
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "algorithms": list(self.algorithms),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "seeds": list(self.seeds),
            "horizon": self.horizon,
            "policy": self.policy.to_dict(),
            "certify_bound": self.certify_bound,
            "workload_params": dict(self.workload_params),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        data = dict(payload)
        policy = data.pop("policy", None)
        config = data.pop("config", None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        if policy is not None:
            data["policy"] = (
                policy if isinstance(policy, HorizonPolicy) else HorizonPolicy.from_dict(policy)
            )
        if config is not None:
            data["config"] = (
                config if isinstance(config, EngineConfig) else EngineConfig.from_dict(config)
            )
        return cls(**data)

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the spec to a JSON file (the CLI ``--spec`` format)."""
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return out

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def _canonical_value(value: object) -> object:
    """A JSON-canonical copy of a param value: mapping keys stringified
    (recursively), tuples as lists.

    ``json.dumps(sort_keys=True)`` cannot even *sort* a dict mixing ``str``
    and ``int`` keys, and sorts all-``int`` keys numerically — so the same
    logical params could hash differently (or crash) depending on whether
    they had round-tripped through JSON yet.  Canonicalizing first makes
    ``param_key``/``cell_id`` total and stable: a no-op for the all-string
    params every spec produces (golden ids unchanged), and locked by golden
    tests for the exotic shapes (non-string keys, nested lists)."""
    if isinstance(value, collections.abc.Mapping):
        return {str(k): _canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    return value


def graph_fingerprint(graph: ConflictGraph) -> str:
    """Content hash of a graph (name, nodes, edges).

    Stamped into the :meth:`ExperimentCell.cell_id` of cells whose graph was
    passed ad hoc (shadowing the registry), so resume never reuses a record
    produced from different graph content under the same workload name.
    """
    payload = repr(
        (graph.name, sorted(map(repr, graph.nodes())), sorted(map(repr, graph.edges())))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


#: the per-cell fields of a cell's identity, in the sorted key order
#: ``json.dumps(sort_keys=True)`` writes them in — the order of the values
#: :meth:`ExperimentCell._id_from` fills into an identity template.
_CELL_IDENTITY_FIELDS = (
    "algorithm", "certify_bound", "experiment", "graph_key", "horizon",
    "params", "seed", "workload", "workload_params",
)


def _json_fragment(value: object) -> str:
    """``json.dumps(value, sort_keys=True)``, short-cut for the scalar types
    that make up almost every cell identity."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value, sort_keys=True)


def _mapping_fragment(mapping: Mapping[str, object]) -> str:
    """The identity JSON of a params mapping: canonical (see
    :func:`_canonical_value`), with the empty mapping short-cut."""
    return _json_fragment(_canonical_value(dict(mapping))) if mapping else "{}"


def _identity_template(policy: HorizonPolicy, config: EngineConfig) -> str:
    """The JSON text of a cell identity, ``json.dumps(identity,
    sort_keys=True)``, with its spec-wide part written out and one ``%s``
    slot per :data:`_CELL_IDENTITY_FIELDS` entry.

    The spec-wide part is the policy, the backend and the non-default
    :class:`EngineConfig` knobs.  Only non-default knobs mark the id
    (:meth:`EngineConfig.non_default`): the horizon representation and the
    parallelism knobs — including ``checkpoint``, whose default-True value
    therefore never moves a pre-checkpoint id — never change a record, so
    ids (and resumable sinks) recorded before each knob existed stay valid.
    ``backend`` predates the config and is always hashed, exactly as it was
    pre-consolidation.  ``batch`` is never hashed: the batching planner
    provably produces the same record for every batch size (differentially
    tested), so hashing it would declare equivalent runs mutually
    unresumable.
    """
    shared: Dict[str, object] = {"policy": policy.to_dict(), "backend": config.backend}
    shared.update(
        {k: v for k, v in config.non_default().items() if k not in ("backend", "batch")}
    )
    entries = {k: json.dumps(v, sort_keys=True).replace("%", "%%") for k, v in shared.items()}
    entries.update(dict.fromkeys(_CELL_IDENTITY_FIELDS, "%s"))
    return "{" + ", ".join(
        f"{encode_basestring_ascii(key)}: {entries[key]}" for key in sorted(entries)
    ) + "}"


@dataclass(frozen=True)
class ExperimentCell:
    """One executable cell of a spec, self-contained and picklable."""

    experiment: str
    workload: str
    algorithm: str
    params: Mapping[str, object]
    seed: int
    horizon: Optional[int] = None
    policy: HorizonPolicy = field(default_factory=HorizonPolicy)
    certify_bound: bool = True
    workload_params: Mapping[str, object] = field(default_factory=dict)
    #: the spec's EngineConfig, carried whole (see ExperimentSpec.config).
    config: EngineConfig = field(default_factory=EngineConfig)
    #: content hash of an ad-hoc (non-registry) graph; None for registry
    #: workloads, whose content is already determined by name + params.
    graph_key: Optional[str] = None

    def param_key(self) -> str:
        """Canonical string form of the grid point (stable across processes
        and across a JSON round-trip — see :func:`_canonical_value`)."""
        return json.dumps(_canonical_value(dict(self.params)), sort_keys=True)

    def cell_seed(self) -> int:
        """The scheduler seed for this cell.

        Derived from ``(workload, algorithm, params, seed)`` with the same
        SHA-based derivation the rest of the package uses, so it is identical
        in every process and independent of execution order — the property
        that makes ``jobs=1`` and ``jobs=N`` runs byte-identical.
        """
        return derive_seed(self.seed, "cell", self.workload, self.algorithm, self.param_key())

    def cell_id(self) -> str:
        """Content key identifying this cell within a results sink.

        Hashes the cell identity *and* the execution knobs that change the
        measured numbers (horizon, policy, backend, certification), so a
        resumed run only skips cells that were produced by an equivalent
        spec.  The other :class:`EngineConfig` knobs are hashed only when
        they deviate from the defaults: dense and stream produce identical
        records and parallelism never changes one, so a default config keeps
        the cell ids (and therefore resumable sinks) of runs recorded before
        each knob existed — asserted against golden PR 4 ids in
        ``tests/core/test_config.py``.  :func:`cell_ids_of` computes the
        same ids for many cells at once.
        """
        return self._id_from(_identity_template(self.policy, self.config))

    def _id_from(self, template: str) -> str:
        """Fill this cell's fields into an :func:`_identity_template` and hash
        the resulting identity JSON."""
        payload = template % (
            _json_fragment(self.algorithm),
            _json_fragment(self.certify_bound),
            _json_fragment(self.experiment),
            _json_fragment(self.graph_key),
            _json_fragment(self.horizon),
            _mapping_fragment(self.params),
            _json_fragment(self.seed),
            _json_fragment(self.workload),
            _mapping_fragment(self.workload_params),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def describe(self) -> str:
        """Short human-readable label for logs."""
        bits = f"{self.workload} × {self.algorithm}"
        if self.params:
            bits += f" {self.param_key()}"
        return f"{bits} seed={self.seed}"


def cell_ids_of(cells: Sequence[ExperimentCell]) -> List[str]:
    """``[cell.cell_id() for cell in cells]``, writing the spec-wide part of
    the identity once per distinct ``(policy, config)`` pair, not per cell.

    The pairs are told apart by object identity, which is exact within one
    call (the cells keep every object alive) where value equality is not:
    ``HorizonPolicy(multiplier=4)`` equals ``HorizonPolicy(multiplier=4.0)``
    but hashes to a different id.  Nothing outlives the call.
    """
    templates: Dict[Tuple[int, int], str] = {}
    out: List[str] = []
    for cell in cells:
        key = (id(cell.policy), id(cell.config))
        template = templates.get(key)
        if template is None:
            template = templates[key] = _identity_template(cell.policy, cell.config)
        out.append(cell._id_from(template))
    return out


def _graph_params(cell: ExperimentCell) -> Dict[str, object]:
    """The workload-factory parameters of a cell (fixed + grid point)."""
    return {**cell.workload_params, **cell.params}


def _graph_cache_key(cell: ExperimentCell) -> Tuple[str, str]:
    """Cells with the same workload and factory parameters share one graph."""
    return (
        cell.workload,
        json.dumps(_canonical_value(_graph_params(cell)), sort_keys=True, default=repr),
    )


def execute_cell(
    cell: ExperimentCell, graph: Optional[ConflictGraph] = None
) -> ExperimentRecord:
    """Run one cell and return its record.

    When ``graph`` is ``None`` the workload is rebuilt from the registry in
    the calling process.  The engine always resolves graphs up front and
    passes them in (pickled to pool workers), so worker processes never
    depend on runtime ``register_workload`` calls that only happened in the
    parent (spawn-based platforms re-import the registry fresh).
    """
    # Imported here, not at module level: runner imports HorizonPolicy from
    # this module, so the engine->runner edge must stay lazy.
    from repro.analysis.runner import run_scheduler
    from repro.algorithms.registry import get_scheduler

    if graph is None:
        graph = get_workload(cell.workload, **_graph_params(cell))
    scheduler = get_scheduler(cell.algorithm)
    outcome = run_scheduler(
        scheduler,
        graph,
        horizon=cell.horizon,
        seed=cell.cell_seed(),
        certify_bound=cell.certify_bound,
        policy=cell.policy,
        config=cell.config,
    )
    return _record_from_outcome(cell, graph, outcome)


def _record_from_outcome(
    cell: ExperimentCell, graph: ConflictGraph, outcome
) -> ExperimentRecord:
    """Assemble one cell's record from its run outcome.

    The single assembly point shared by per-cell and batched execution, so
    record layout (params, key order, stamped values) is identical by
    construction across executors.
    """
    params: Dict[str, object] = dict(cell.params)
    params.update(
        {
            "horizon": outcome.horizon,
            "n": graph.num_nodes(),
            "backend": cell.config.backend,
            "seed": cell.seed,
            "cell_seed": cell.cell_seed(),
            "cell_id": cell.cell_id(),
            "horizon_mode": outcome.horizon_mode,
        }
    )
    return ExperimentRecord(
        experiment=cell.experiment,
        workload=cell.workload,
        algorithm=cell.algorithm,
        metrics=outcome.metrics(),
        params=params,
    )


def _execute_indexed(
    payload: Tuple[int, ExperimentCell, Optional[ConflictGraph]]
) -> Tuple[int, ExperimentRecord]:
    """Process-pool entry point: tag each result with its cell index."""
    index, cell, graph = payload
    return index, execute_cell(cell, graph=graph)


def _resolve_cell_horizon(cell: ExperimentCell, graph: ConflictGraph) -> int:
    """The horizon this cell will run at, resolved without building a
    schedule — :meth:`~repro.algorithms.base.Scheduler.bound_function` is
    independent of :meth:`build`, so the planner and the batch worker both
    reach exactly the horizon ``run_scheduler`` would."""
    from repro.algorithms.registry import get_scheduler

    if cell.horizon is not None:
        return cell.horizon
    scheduler = get_scheduler(cell.algorithm)
    if cell.config.window is not None:
        scheduler = scheduler.with_window(cell.config.window)
    bound_fn = scheduler.bound_function(graph) if cell.certify_bound else None
    return cell.policy.resolve(graph, bound_fn)


def _auto_batch_size(num_nodes: int, horizon: int, config: EngineConfig) -> int:
    """Default batch cap: as many schedules as keep the stacked trace within
    :data:`~repro.core.trace.AUTO_STREAM_BYTES` (per-chunk in stream mode,
    full-horizon in dense mode)."""
    engine = config.resolve(num_nodes, horizon)
    width = horizon if engine.mode != "stream" else min(engine.chunk or DEFAULT_CHUNK, horizon)
    member_bytes = dense_trace_bytes(num_nodes, width, engine.backend)
    return max(1, AUTO_STREAM_BYTES // max(1, member_bytes))


def _plan_units(
    pending: Sequence[Tuple[int, ExperimentCell]],
    graphs: Mapping[Tuple[str, str], ConflictGraph],
) -> List[List[Tuple[int, ExperimentCell]]]:
    """Group pending cells into execution units.

    Cells land in the same unit exactly when a stacked kernel can evaluate
    them together: same workload graph, same resolved horizon, same
    :class:`EngineConfig` and certification setting.  Units respect spec
    order within each group, are capped at ``config.batch`` members
    (default :func:`_auto_batch_size`), and ``backend="sets"`` cells — which
    have no matrix representation to stack — always run per-cell.
    """
    units: List[List[Tuple[int, ExperimentCell]]] = []
    open_units: Dict[Tuple, List[Tuple[int, ExperimentCell]]] = {}
    for index, cell in pending:
        config = cell.config
        graph = graphs[_graph_cache_key(cell)]
        if config.backend == "sets" or config.batch == 1:
            units.append([(index, cell)])
            continue
        horizon = _resolve_cell_horizon(cell, graph)
        cap = (
            config.batch
            if config.batch is not None
            else _auto_batch_size(graph.num_nodes(), horizon, config)
        )
        if cap <= 1:
            units.append([(index, cell)])
            continue
        key = (_graph_cache_key(cell), horizon, config, cell.certify_bound)
        unit = open_units.get(key)
        if unit is None or len(unit) >= cap:
            unit = []
            open_units[key] = unit
            units.append(unit)
        unit.append((index, cell))
    return units


def _execute_batch(
    payload: Tuple[Sequence[Tuple[int, ExperimentCell]], Optional[ConflictGraph]]
) -> List[Tuple[int, ExperimentRecord]]:
    """Run one planner unit and return its indexed records, in unit order.

    Single-cell units take the ordinary :func:`execute_cell` path.  Larger
    units build every member schedule, stack them into one
    :class:`~repro.core.trace.TraceBatch`, run the stacked scan once, and
    evaluate/validate each member through the unmodified metric and
    validation entry points over its batch view — so every record is what
    per-cell execution would have produced, modulo the timing metrics (the
    shared scan cost is amortised evenly into each member's
    ``measure_seconds``).
    """
    indexed, graph = payload
    if len(indexed) == 1:
        index, cell = indexed[0]
        return [(index, execute_cell(cell, graph=graph))]
    # Lazy imports mirror execute_cell: the engine->runner edge stays lazy.
    from repro.analysis.runner import RunOutcome
    from repro.algorithms.registry import get_scheduler
    from repro.core.metrics import evaluate_schedule
    from repro.core.validation import validate_schedule

    first_cell = indexed[0][1]
    config = first_cell.config
    if graph is None:
        graph = get_workload(first_cell.workload, **_graph_params(first_cell))
    horizon = _resolve_cell_horizon(first_cell, graph)
    built = []
    for _, cell in indexed:
        scheduler = get_scheduler(cell.algorithm)
        if config.window is not None:
            scheduler = scheduler.with_window(config.window)
        start = time.perf_counter()
        schedule = scheduler.build(graph, seed=cell.cell_seed())
        build_seconds = time.perf_counter() - start
        bound_fn = scheduler.bound_function(graph) if cell.certify_bound else None
        built.append((scheduler, schedule, bound_fn, build_seconds))
    engine_choice = config.resolve(graph.num_nodes(), horizon)
    start = time.perf_counter()
    batch = TraceBatch(
        [schedule for _, schedule, _, _ in built],
        graph,
        horizon,
        backend=engine_choice.backend,
        horizon_mode=engine_choice.mode,
        chunk=engine_choice.chunk,
    )
    batch.scan()
    shared_seconds = (time.perf_counter() - start) / len(indexed)
    out: List[Tuple[int, ExperimentRecord]] = []
    for member, ((index, cell), (scheduler, schedule, bound_fn, build_seconds)) in enumerate(
        zip(indexed, built)
    ):
        view = batch.member(member)
        start = time.perf_counter()
        report = evaluate_schedule(
            schedule, graph, horizon, name=scheduler.name, trace=view, config=config
        )
        validation = validate_schedule(
            schedule,
            graph,
            horizon,
            bound=bound_fn,
            bound_name=scheduler.info.local_bound,
            check_periodic=scheduler.info.periodic,
            skip_isolated=True,
            trace=view,
            config=config,
        )
        measure_seconds = (time.perf_counter() - start) + shared_seconds
        bound_satisfied = None
        if bound_fn is not None:
            bound_satisfied = not any(
                v.kind == "bound-exceeded" for v in validation.violations
            )
        outcome = RunOutcome(
            scheduler_name=scheduler.name,
            graph_name=graph.name,
            horizon=horizon,
            schedule=schedule,
            report=report,
            validation=validation,
            build_seconds=build_seconds,
            bound_satisfied=bound_satisfied,
            backend=config.backend,
            measure_seconds=measure_seconds,
            horizon_mode=view.mode,
            jobs=config.stream_jobs,
            config=config,
        )
        out.append((index, _record_from_outcome(cell, graph, outcome)))
    return out


def _record_line(record: ExperimentRecord) -> str:
    from repro.io.results import record_to_json_line

    return record_to_json_line(record)


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class ExperimentEngine:
    """Executes an :class:`ExperimentSpec`, streaming records to a sink.

    Parameters:
        jobs: worker processes; ``1`` runs in-process (no pool).
        sink: optional JSONL path records are appended to, in spec order,
            flushed as each cell's turn comes up.
        resume: read the sink first and skip cells whose ``cell_id`` already
            has a record (a malformed trailing line is dropped and its cell
            re-run).  With a store attached, completed cells are resolved
            through one indexed ``cell_id`` lookup instead of re-parsing
            the sink, and the sink is rebuilt from the store's records.
        store: optional :class:`~repro.io.store.ResultStore` (or a path to
            one, opened on first use) acting as a cross-campaign cell
            cache: planned cells already in the store replay their stored
            record (stamped ``cached: true``) instead of executing, and
            freshly executed records are written back as they are emitted.
        cache: set ``False`` to disable cache *lookups* while still
            recording fresh results into the store (a forced re-run that
            leaves the store warm for the next campaign).
        campaign: tag written on every stored record; defaults to the
            spec name.  Stored campaigns are listed by
            :meth:`ResultStore.campaigns`.

    After :meth:`run`, :attr:`stats` holds ``{"total", "skipped",
    "cached", "executed", "wall_seconds"}`` for the last run —
    ``skipped`` counts resume hits, ``cached`` store replays, and
    ``executed`` only cells that actually ran.
    """

    def __init__(
        self,
        jobs: int = 1,
        sink: Optional[Union[str, Path]] = None,
        resume: bool = False,
        store: Optional[Union[str, Path, "ResultStore"]] = None,
        cache: bool = True,
        campaign: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if resume and sink is None and store is None:
            raise ValueError("resume=True requires a sink or a store to resume from")
        self.jobs = jobs
        self.sink = Path(sink) if sink is not None else None
        self.resume = resume
        if store is not None and not hasattr(store, "lookup"):
            # path-like: open (creating if missing) with the default settings
            from repro.io.store import ResultStore

            store = ResultStore(store)
        self.store = store
        self.cache = cache
        self.campaign = campaign
        self.stats: Dict[str, object] = {}

    # -- sink helpers --------------------------------------------------------
    def _load_completed(
        self, expected_ids: Sequence[str]
    ) -> Tuple[Dict[str, ExperimentRecord], List[str]]:
        """Split the sink into this spec's completed records and foreign lines.

        Returns ``(completed, foreign)``: ``completed`` keyed by cell id,
        ``foreign`` the raw lines that belong to anything else — other specs'
        records and even non-record JSON lines are preserved verbatim, so a
        shared results file loses nothing on resume.  The only line ever
        dropped is an unparseable *final* line: in an append-only stream
        that is the signature of a crash-truncated write, and dropping it is
        what makes its cell re-run.  Rewrites the sink (atomically) to
        ``foreign + completed-in-spec-order``.
        """
        from repro.io.results import record_from_dict

        if self.sink is None or not self.sink.exists():
            return {}, []
        expected = set(expected_ids)
        completed: Dict[str, ExperimentRecord] = {}
        foreign: List[str] = []
        raw_lines = [line for line in self.sink.read_text(encoding="utf-8").splitlines() if line.strip()]
        for lineno, line in enumerate(raw_lines):
            try:
                payload = json.loads(line)
            except ValueError:
                if lineno == len(raw_lines) - 1:
                    continue  # crash-truncated tail
                foreign.append(line)
                continue
            try:
                record = record_from_dict(payload)
            except (KeyError, TypeError, ValueError):
                # valid JSON that just isn't a record (metadata header, other
                # tool's line) — foreign, preserved wherever it sits
                foreign.append(line)
                continue
            cell_id = record.params.get("cell_id")
            if isinstance(cell_id, str) and cell_id in expected:
                completed[cell_id] = record
            else:
                foreign.append(line)
        self._rewrite_lines(
            foreign + [_record_line(completed[c]) for c in expected_ids if c in completed]
        )
        return completed, foreign

    def _open_sink(self):
        if self.sink is None:
            return None
        self.sink.parent.mkdir(parents=True, exist_ok=True)
        # Sink-based resume appends after the kept prefix; store-based resume
        # rebuilds the sink from the store's records, so it starts fresh.
        mode = "a" if (self.resume and self.store is None) else "w"
        return self.sink.open(mode, encoding="utf-8")

    def _rewrite_lines(self, lines: Sequence[str]) -> None:
        """Atomically replace the sink's content with the given JSONL lines."""
        tmp = self.sink.with_name(self.sink.name + ".tmp")
        tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        tmp.replace(self.sink)

    # -- execution -----------------------------------------------------------
    def run(
        self,
        spec: ExperimentSpec,
        workloads: Optional[Mapping[str, ConflictGraph]] = None,
    ) -> ResultSet:
        """Execute every cell of ``spec`` and return all records in spec order.

        ``workloads`` optionally maps names to pre-built graphs, shadowing
        the registry — this is how :func:`~repro.analysis.runner.compare_schedulers`
        runs ad-hoc graphs through the engine.  All graphs (ad-hoc and
        registry-built) are resolved once in this process and pickled to
        pool workers, so runtime ``register_workload`` calls work under any
        multiprocessing start method.
        """
        from repro.graphs.suites import available_workloads
        from repro.io.results import record_to_json_line

        workloads = dict(workloads or {})
        cells = spec.cells(extra_workloads=tuple(workloads))
        # Ad-hoc graphs shadow the registry by name only; stamp their content
        # into the cell ids so resume can't reuse a record produced from a
        # different graph under the same name.
        fingerprints = {name: graph_fingerprint(g) for name, g in workloads.items()}
        cells = [
            replace(cell, graph_key=fingerprints[cell.workload])
            if cell.workload in fingerprints
            else cell
            for cell in cells
        ]
        # Catch typo'd plain names before the sink is opened (and possibly
        # truncated) rather than inside the first worker.
        known = set(available_workloads())
        unknown = sorted(
            {c.workload for c in cells if c.workload not in workloads and c.workload not in known}
        )
        if unknown:
            raise KeyError(
                f"unknown workload(s): {', '.join(unknown)}; "
                "see repro.graphs.suites.available_workloads()"
            )
        cell_ids = cell_ids_of(cells)
        if self.resume and self.store is not None:
            # Indexed resume: one chunked PRIMARY KEY probe replaces a full
            # sink re-parse.  The sink is rebuilt from the store at the end,
            # so foreign lines (a concept of shared JSONL files, not of the
            # keyed store) don't apply on this path.
            completed, foreign = self.store.lookup(cell_ids), []
        elif self.resume:
            completed, foreign = self._load_completed(cell_ids)
        else:
            completed, foreign = {}, []

        start = time.perf_counter()
        pending = [
            (i, cell) for i, cell in enumerate(cells) if cell_ids[i] not in completed
        ]
        # Cross-campaign cache: probe the store for every still-pending cell
        # and replay hits instead of executing them.  Hits are stamped
        # ``cached: true`` (a provenance field, stripped alongside the timing
        # metrics when comparing runs; the store never persists it — see
        # ResultStore.put_many) and flow to the sink like fresh records; only
        # misses reach the batching planner — a fully warm campaign builds no
        # graphs and runs no kernels at all.  ``lookup`` decodes a fresh
        # record per id that nothing else references, so the stamp goes on in
        # place; only a cell listed twice in the spec shares its id's record
        # and gets a copy of its own.
        cache_hits: Dict[int, ExperimentRecord] = {}
        if self.store is not None and self.cache and pending:
            from repro.io.store import CACHED_PARAM

            hits = self.store.lookup([cell_ids[i] for i, _ in pending])
            if hits:
                for i, _ in pending:
                    record = hits.get(cell_ids[i])
                    if record is None:
                        continue
                    if CACHED_PARAM in record.params:
                        record = replace(
                            record, metrics=dict(record.metrics), params=dict(record.params)
                        )
                    record.params[CACHED_PARAM] = True
                    cache_hits[i] = record
                pending = [(i, c) for i, c in pending if i not in cache_hits]
        campaign = self.campaign or spec.name
        config_json = spec.config.to_json()
        if self.store is not None:
            self.store.register_campaign(
                campaign,
                experiment=spec.name,
                spec_json=json.dumps(spec.to_dict(), sort_keys=True),
            )
        # Resolve every distinct graph once, in this process: ad-hoc graphs
        # come from the override mapping, registry names are built here (not
        # in workers, which on spawn platforms would miss runtime
        # registrations), and cells sharing a workload share one instance.
        graphs: Dict[Tuple[str, str], ConflictGraph] = {}
        for _, cell in pending:
            key = _graph_cache_key(cell)
            if key not in graphs:
                graphs[key] = (
                    workloads[cell.workload]
                    if cell.workload in workloads
                    else get_workload(cell.workload, **_graph_params(cell))
                )
        _log.info(
            "experiment %s: %d cells (%d resumed, %d cache hits, %d to run, jobs=%d)",
            spec.name, len(cells), len(cells) - len(pending) - len(cache_hits),
            len(cache_hits), len(pending), self.jobs,
        )

        records: Dict[int, ExperimentRecord] = {
            i: completed[cell_ids[i]] for i, _ in enumerate(cells) if cell_ids[i] in completed
        }
        records.update(cache_hits)
        sink_fh = self._open_sink()
        emitted = 0  # cells whose records have reached the sink, in spec order
        try:
            def emit_ready() -> None:
                nonlocal emitted
                while emitted < len(cells) and emitted in records:
                    record = records[emitted]
                    fresh = cell_ids[emitted] not in completed
                    if sink_fh is not None and fresh:
                        sink_fh.write(record_to_json_line(record) + "\n")
                        sink_fh.flush()
                    if self.store is not None and fresh and emitted not in cache_hits:
                        # Write freshly executed records back as their turn
                        # comes up (same crash-durability as the sink: a
                        # completed prefix survives).  Replayed hits are
                        # already stored — re-putting them would be a no-op
                        # INSERT OR IGNORE, skipped to keep the warm path
                        # read-only.
                        self.store.put(record, campaign=campaign, config_json=config_json)
                    emitted += 1

            units = _plan_units(pending, graphs)
            if self.jobs == 1 or len(units) <= 1:
                for unit in units:
                    if len(unit) == 1:
                        index, cell = unit[0]
                        records[index] = self._run_one(cell, graphs, index, len(cells))
                    else:
                        for index, record in self._run_batch(unit, graphs, len(cells)):
                            records[index] = record
                    emit_ready()
            else:
                self._run_pool(units, graphs, records, len(cells), emit_ready)
            emit_ready()
        finally:
            if sink_fh is not None:
                sink_fh.close()

        if self.resume and self.sink is not None and completed:
            # A resumed run appends fresh cells after the kept prefix; once
            # complete, rewrite the sink (atomically) as foreign lines
            # followed by this spec's records in spec order, so every finished
            # run of the same spec produces the same file layout.
            self._rewrite_lines(
                foreign + [_record_line(records[i]) for i in range(len(cells))]
            )

        wall = time.perf_counter() - start
        self.stats = {
            "total": len(cells),
            "skipped": len(completed),
            "cached": len(cache_hits),
            "executed": len(pending),
            "wall_seconds": wall,
        }
        _log.info(
            "experiment %s done: %d cells in %.3fs (%d executed, %d cached, %d resumed)",
            spec.name, len(cells), wall, len(pending), len(cache_hits), len(completed),
        )
        return ResultSet(records[i] for i in range(len(cells)))

    def _run_one(
        self,
        cell: ExperimentCell,
        graphs: Mapping[Tuple[str, str], ConflictGraph],
        index: int,
        total: int,
    ) -> ExperimentRecord:
        start = time.perf_counter()
        record = execute_cell(cell, graph=graphs[_graph_cache_key(cell)])
        _log.info(
            "cell %d/%d %s: max_mul=%s (%.3fs)",
            index + 1, total, cell.describe(),
            record.metrics.get("max_mul"), time.perf_counter() - start,
        )
        return record

    def _run_batch(
        self,
        unit: Sequence[Tuple[int, ExperimentCell]],
        graphs: Mapping[Tuple[str, str], ConflictGraph],
        total: int,
    ) -> List[Tuple[int, ExperimentRecord]]:
        start = time.perf_counter()
        results = _execute_batch((list(unit), graphs[_graph_cache_key(unit[0][1])]))
        wall = time.perf_counter() - start
        for index, record in results:
            _log.info(
                "cell %d/%d %s: max_mul=%s (batched)",
                index + 1, total, record.workload + " × " + record.algorithm,
                record.metrics.get("max_mul"),
            )
        _log.info(
            "batch of %d cells (%s, horizon %s): %.3fs",
            len(unit), unit[0][1].workload, results[0][1].params.get("horizon"), wall,
        )
        return results

    def _run_pool(
        self,
        units: Sequence[Sequence[Tuple[int, ExperimentCell]]],
        graphs: Mapping[Tuple[str, str], ConflictGraph],
        records: Dict[int, ExperimentRecord],
        total: int,
        emit_ready: Callable[[], None],
    ) -> None:
        max_workers = min(self.jobs, len(units))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            # The graph is pickled once per unit, not once per worker: workers
            # must not resolve names themselves (runtime registrations don't
            # exist in spawned children), and per-worker caching isn't worth
            # the machinery at the graph sizes this package runs.  Parallelism
            # moves *across* units — one future per (possibly batched) unit.
            futures = {
                pool.submit(
                    _execute_batch, (list(unit), graphs[_graph_cache_key(unit[0][1])])
                )
                for unit in units
            }
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    for index, record in future.result():
                        records[index] = record
                        _log.info(
                            "cell %d/%d %s: max_mul=%s",
                            index + 1, total, record.workload + " × " + record.algorithm,
                            record.metrics.get("max_mul"),
                        )
                emit_ready()


# ---------------------------------------------------------------------------
# generic grid execution (backs analysis.sweeps.sweep)
# ---------------------------------------------------------------------------

def _invoke_runner(
    payload: Tuple[Callable[..., Iterable[ExperimentRecord]], Dict[str, object]]
) -> List[ExperimentRecord]:
    runner, params = payload
    return list(runner(**params))


def run_grid(
    param_lists: Mapping[str, Sequence[object]],
    runner: Callable[..., Iterable[ExperimentRecord]],
    jobs: int = 1,
) -> ResultSet:
    """Apply ``runner(**params)`` over a parameter grid, merging all records.

    Results are merged in grid order (``Executor.map`` yields in submission
    order).  With ``jobs > 1`` the runner is executed in worker processes
    and must be picklable (a module-level function); closures require
    ``jobs=1``.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    combos = expand_grid(param_lists)
    results = ResultSet()
    if jobs == 1 or len(combos) <= 1:
        for params in combos:
            results.extend(runner(**params))
        return results
    with ProcessPoolExecutor(max_workers=min(jobs, len(combos))) as pool:
        for batch in pool.map(_invoke_runner, [(runner, params) for params in combos]):
            results.extend(batch)
    return results
