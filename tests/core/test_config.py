"""Tests for :class:`repro.core.config.EngineConfig`.

Covers JSON round-trip, ``resolve()`` (including the legacy ``bitmask``
spelling of the numpy backend), the consolidated sets/stream error, integer-only count knobs, ``config=`` as the
one keyword spelling at every entry point, and cell-id stability —
default-config ids must be byte-identical to golden ids captured from the
PR 4 codebase, so every results sink recorded before the consolidation
still resumes.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.algorithms.registry import get_scheduler
from repro.analysis.engine import TIMING_METRICS, ExperimentEngine, ExperimentSpec, HorizonPolicy
from repro.analysis.runner import run_scheduler
from repro.core.config import DEFAULT_CONFIG, EngineConfig, config_with
from repro.core.metrics import build_trace, evaluate_schedule
from repro.core.problem import ConflictGraph
from repro.core.validation import validate_schedule

#: Golden ids captured from the PR 4 codebase (before EngineConfig existed)
#: for the spec below.  If these move, every pre-consolidation resume sink
#: is silently invalidated — do not update them to make a test pass.
GOLDEN_SPEC_CELL_IDS = [
    "a1da7a1db9503525",
    "3ddba7b07c603593",
    "7d61c0f477c70843",
    "094eba57b28432f8",
]
GOLDEN_CELL_SEED = 5418252142010239343
#: same capture for a spec whose backend (hashed since PR 1) is non-default.
GOLDEN_BITMASK_CELL_ID = "54f7ef816f6185a2"

#: Each further shape that reaches the hash, as golden_spec() overrides:
#: a non-default HorizonPolicy, every non-default EngineConfig knob that is
#: hashed (and ``batch``, which is not), workload_params, certify_bound and
#: a grid point.
HASHED_SHAPES = {
    "policy": dict(horizon=None, policy=HorizonPolicy(multiplier=6, minimum=16, cap=4096)),
    "policy_explicit": dict(horizon=None, policy=HorizonPolicy(explicit=96)),
    "stream_chunk": dict(config=EngineConfig(horizon_mode="stream", chunk=128)),
    "stream_jobs": dict(config=EngineConfig(stream_jobs=2)),
    "window": dict(config=EngineConfig(window=256)),
    "checkpoint_off": dict(config=EngineConfig(checkpoint=False)),
    "workload_params": dict(workload_params={"seed": 3}),
    "certify_off": dict(certify_bound=False),
    "grid": dict(workloads=("grid",), grid={"scale": (1, 2)}),
    "combined": dict(
        policy=HorizonPolicy(multiplier=3),
        certify_bound=False,
        workload_params={"seed": 5},
        config=EngineConfig(backend="bitmask", horizon_mode="stream", chunk=16,
                            stream_jobs=2, window=64, checkpoint=False, batch=4),
    ),
}
#: Ids of the HASHED_SHAPES specs, captured before cell ids were written
#: from identity templates.  Do not update them to make a test pass.
GOLDEN_SHAPE_CELL_IDS = {
    "policy": ["9a6f809d49e32e32", "a3dc6bcea2f2c65d", "43f47ded11c20735", "be62780208b501d6"],
    "policy_explicit": [
        "2610eca7d475a2e5", "f50d9c69d3ba8afd", "76d1391b62c6bf34", "930315f700ca5f0d",
    ],
    "stream_chunk": [
        "a3da6c4fc4b3e837", "79fdcc0e698bc8cf", "020a957d0f72d348", "70df05d2c544e764",
    ],
    "stream_jobs": [
        "b9406b4c3109e192", "03e61cd62a39d3bf", "7d5492fb0e8ab24d", "0461599f603aa847",
    ],
    "window": ["6ef2ecba4b7e6e3c", "141f01924eb02615", "572dc034d4e6baa9", "6ccc14aaa9e414a2"],
    "checkpoint_off": [
        "64f0c7a9b0b7f7a8", "7118b5dd70e04fe6", "43fdeba525d767b5", "d15ab2555f6fbd07",
    ],
    "workload_params": [
        "d7b86e623e876c80", "9660ee4ec9b20e86", "5ed138a7238f3ea1", "bf5af314424c75de",
    ],
    "certify_off": [
        "cb2541dde257c58d", "e07c8f65a4bc7788", "8351e4e32d2b0e69", "0aa9401321d245d0",
    ],
    "grid": ["ef820315726a751e", "60dd94f2622d5bd6", "29557bb7cbd9a5c5", "83a2a3614edec3fe"],
    "combined": [
        "9e32cf194d68ff99", "7e6cb2f6938e4e5c", "1fde9799bf7ff68b", "142c1216573316a0",
    ],
}
#: an ad-hoc graph run through the engine (its fingerprint is the graph_key).
GOLDEN_ADHOC_CELL_ID = "132499970d5ae1f9"


def golden_spec(**overrides):
    fields = dict(
        name="t",
        workloads=("small/path", "small/clique"),
        algorithms=("sequential", "degree-periodic"),
        horizon=48,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


# ---------------------------------------------------------------------------
# the dataclass itself
# ---------------------------------------------------------------------------

class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config == DEFAULT_CONFIG
        assert config.non_default() == {}
        assert config.describe() == "EngineConfig()"

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            EngineConfig().backend = "numpy"

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="cuda")
        with pytest.raises(ValueError, match="horizon_mode"):
            EngineConfig(horizon_mode="chunked")
        with pytest.raises(ValueError, match="chunk"):
            EngineConfig(chunk=0)
        with pytest.raises(ValueError, match="stream_jobs"):
            EngineConfig(stream_jobs=0)
        with pytest.raises(ValueError, match="window"):
            EngineConfig(window=0)
        with pytest.raises(ValueError, match="batch"):
            EngineConfig(batch=0)
        with pytest.raises(ValueError, match="checkpoint"):
            EngineConfig(checkpoint="yes")

    def test_sets_stream_rejected_with_one_message(self):
        """The historical asymmetry: backend='sets' + streaming used to raise
        two differently-worded errors depending on whether a prebuilt trace
        was passed.  Now the combination dies at config construction with a
        single message, before any call-site branching."""
        with pytest.raises(ValueError, match="no streaming mode") as construct:
            EngineConfig(backend="sets", horizon_mode="stream")
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        schedule = get_scheduler("degree-periodic").build(graph, seed=0)
        matrix = schedule.trace(8)
        with pytest.raises(ValueError, match="no streaming mode") as with_trace:
            build_trace(
                schedule, graph, 8, trace=matrix,
                config=EngineConfig(backend="sets", horizon_mode="stream"),
            )
        with pytest.raises(ValueError, match="no streaming mode") as without_trace:
            build_trace(
                schedule, graph, 8,
                config=EngineConfig(backend="sets", horizon_mode="stream"),
            )
        assert str(with_trace.value) == str(without_trace.value) == str(construct.value)

    def test_non_default_lists_only_overrides(self):
        config = EngineConfig(backend="numpy", chunk=64)
        assert config.non_default() == {"backend": "numpy", "chunk": 64}
        assert "chunk=64" in config.describe()

    def test_config_with_layers_overrides(self):
        base = EngineConfig(horizon_mode="stream", chunk=32)
        layered = config_with(base, backend="numpy")
        assert layered == EngineConfig(backend="numpy", horizon_mode="stream", chunk=32)
        assert config_with(None) == DEFAULT_CONFIG


class TestJsonRoundTrip:
    def test_round_trip(self):
        config = EngineConfig(
            backend="numpy", horizon_mode="stream", chunk=1 << 12, stream_jobs=3, window=500
        )
        assert EngineConfig.from_json(config.to_json()) == config
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_json_is_canonical_and_flat(self):
        payload = json.loads(EngineConfig().to_json())
        assert payload == {
            "backend": "auto",
            "horizon_mode": "auto",
            "chunk": None,
            "stream_jobs": 1,
            "window": None,
            "batch": None,
            "checkpoint": True,
        }

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown EngineConfig"):
            EngineConfig.from_dict({"backend": "auto", "threads": 4})


# ---------------------------------------------------------------------------
# resolve()
# ---------------------------------------------------------------------------

class TestResolve:
    def test_auto_resolves_to_available_backend(self):
        engine = EngineConfig().resolve()
        assert engine.backend == "numpy"
        assert engine.mode == "auto"  # no sizes given: representation open
        assert engine.uses_matrix

    def test_sets_resolves_to_sets_mode(self):
        engine = EngineConfig(backend="sets").resolve(10, 1000)
        assert engine.backend == "sets" and engine.mode == "sets"
        assert not engine.uses_matrix

    def test_auto_mode_resolves_by_size(self):
        config = EngineConfig(backend="numpy")
        assert config.resolve(60, 10_000).mode == "dense"
        assert config.resolve(60, 10**9).mode == "stream"

    def test_explicit_mode_passes_through(self):
        assert EngineConfig(horizon_mode="dense").resolve(60, 10**9).mode == "dense"
        assert EngineConfig(horizon_mode="stream").resolve(1, 1).mode == "stream"

    def test_resolved_carries_all_knobs(self):
        engine = EngineConfig(
            backend="numpy", horizon_mode="stream", chunk=7, stream_jobs=2, window=99
        ).resolve(4, 100)
        assert (engine.chunk, engine.stream_jobs, engine.window) == (7, 2, 99)
        assert engine.checkpoint is True
        assert EngineConfig(checkpoint=False).resolve(4, 100).checkpoint is False


class TestBitmaskAlias:
    """``"bitmask"`` named a pure-Python engine that no longer exists.  It
    stays accepted as a spelling of the numpy backend, so spec files and
    store rows that name it still load and keep their cell ids."""

    def test_resolves_to_numpy(self):
        assert EngineConfig(backend="bitmask").resolve().backend == "numpy"

    def test_run_gives_the_numpy_metrics(self):
        def run(backend):
            spec = ExperimentSpec(
                name="alias",
                workloads=("small/star",),
                algorithms=("phased-greedy",),
                seeds=(7,),
                config=EngineConfig(backend=backend),
            )
            (record,) = ExperimentEngine().run(spec)
            metrics = {k: v for k, v in record.metrics.items() if k not in TIMING_METRICS}
            return metrics, record.params["backend"]

        legacy, legacy_stamp = run("bitmask")
        current, current_stamp = run("numpy")
        assert legacy == current
        # the config spelling is what gets stamped (and hashed)
        assert (legacy_stamp, current_stamp) == ("bitmask", "numpy")


# ---------------------------------------------------------------------------
# cell-id stability against the PR 4 goldens
# ---------------------------------------------------------------------------

class TestCellIdStability:
    def test_default_config_ids_match_pr4_goldens(self):
        cells = golden_spec().cells()
        assert [c.cell_id() for c in cells] == GOLDEN_SPEC_CELL_IDS
        assert cells[0].cell_seed() == GOLDEN_CELL_SEED

    def test_nondefault_backend_id_matches_pr4_golden(self):
        spec = ExperimentSpec(
            name="golden",
            workloads=("small/star",),
            algorithms=("phased-greedy",),
            seeds=(7,),
            config=EngineConfig(backend="bitmask"),
        )
        assert spec.cells()[0].cell_id() == GOLDEN_BITMASK_CELL_ID

    def test_window_marks_cell_id_only_when_set(self):
        base = golden_spec().cells()[0]
        windowed = golden_spec(config=EngineConfig(window=256)).cells()[0]
        assert windowed.cell_id() != base.cell_id()
        assert golden_spec(config=EngineConfig()).cells()[0].cell_id() == base.cell_id()

    @pytest.mark.parametrize("shape", sorted(GOLDEN_SHAPE_CELL_IDS))
    def test_every_hashed_shape_matches_golden(self, shape):
        cells = golden_spec(**HASHED_SHAPES[shape]).cells()
        assert [c.cell_id() for c in cells] == GOLDEN_SHAPE_CELL_IDS[shape]

    def test_adhoc_graph_key_matches_golden(self):
        """An ad-hoc graph's content fingerprint reaches the id via the
        engine (``graph_key``), so the pin goes through ``run``."""
        graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 3)], name="adhoc-path")
        spec = ExperimentSpec(
            name="adhoc", workloads=("mine",), algorithms=("sequential",), horizon=32
        )
        records = ExperimentEngine().run(spec, workloads={"mine": graph})
        assert [r.params["cell_id"] for r in records] == [GOLDEN_ADHOC_CELL_ID]


# ---------------------------------------------------------------------------
# spec serialization: new format + legacy payload migration
# ---------------------------------------------------------------------------

class TestSpecSerialization:
    def test_spec_round_trips_config(self, tmp_path):
        spec = golden_spec(
            config=EngineConfig(backend="numpy", horizon_mode="stream", chunk=128, window=64)
        )
        path = spec.to_json(tmp_path / "spec.json")
        assert ExperimentSpec.from_json(path) == spec
        assert json.loads(path.read_text())["config"]["chunk"] == 128

    def test_flat_spec_payload_rejected_naming_keys(self):
        """Spec JSON written before the consolidation carried the engine
        knobs as flat top-level keys.  Only ``config`` spells them now, so
        such a file is rejected with an error naming every flat key."""
        payload = {
            "name": "old",
            "workloads": ["small/path"],
            "algorithms": ["sequential"],
            "grid": {},
            "seeds": [0],
            "horizon": 48,
            "policy": {"multiplier": 4, "minimum": 32, "cap": 20000, "explicit": None},
            "backend": "bitmask",
            "certify_bound": True,
            "workload_params": {},
            "horizon_mode": "stream",
            "chunk": 32,
            "stream_jobs": 2,
        }
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec.from_dict(payload)
        assert str(excinfo.value) == (
            "unknown ExperimentSpec fields: "
            "['backend', 'chunk', 'horizon_mode', 'stream_jobs']"
        )


# ---------------------------------------------------------------------------
# count knobs are ints, nothing that merely converts to one
# ---------------------------------------------------------------------------

COUNT_KNOBS = ("chunk", "stream_jobs", "window", "batch")
NOT_INTS = ("8", 2.5, True)


class TestIntegerKnobs:
    @pytest.mark.parametrize("knob", COUNT_KNOBS)
    @pytest.mark.parametrize("value", NOT_INTS, ids=repr)
    def test_constructor_rejects_non_int(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be an int"):
            EngineConfig(**{knob: value})

    @pytest.mark.parametrize("knob", COUNT_KNOBS)
    @pytest.mark.parametrize("value", NOT_INTS, ids=repr)
    def test_spec_payload_rejects_non_int(self, knob, value):
        payload = golden_spec().to_dict()
        payload["config"] = {knob: value, "horizon_mode": "stream"}
        with pytest.raises(ValueError, match=f"{knob} must be an int"):
            ExperimentSpec.from_dict(payload)

    def test_valid_ints_still_accepted(self):
        config = EngineConfig(chunk=8, stream_jobs=2, window=16, batch=4)
        assert (config.chunk, config.stream_jobs, config.window, config.batch) == (8, 2, 16, 4)
        assert EngineConfig(chunk=None, window=None, batch=None) == DEFAULT_CONFIG
        with pytest.raises(ValueError, match="stream_jobs must be an int"):
            EngineConfig(stream_jobs=None)


# ---------------------------------------------------------------------------
# config= is the one spelling; everything after the paper's inputs is
# keyword-only
# ---------------------------------------------------------------------------

def _stale_calls():
    from repro.analysis.engine import ExperimentCell
    from repro.analysis.runner import compare_schedulers
    from repro.core.validation import (
        certify_local_bound,
        certify_periodicity,
        check_independent_sets,
    )

    def bound(p):
        return 10

    return {
        "evaluate_schedule-5th-positional":
            lambda s, g: evaluate_schedule(s, g, 16, "name", "numpy"),
        "validate_schedule-backend-kwarg":
            lambda s, g: validate_schedule(s, g, 16, backend="numpy"),
        "build_trace-4th-positional":
            lambda s, g: build_trace(s, g, 16, "numpy"),
        "build_trace-mode-kwarg":
            lambda s, g: build_trace(s, g, 16, mode="stream"),
        "check_independent_sets-jobs-kwarg":
            lambda s, g: check_independent_sets(s, g, 16, jobs=2),
        "certify_local_bound-7th-positional":
            lambda s, g: certify_local_bound(s, g, 16, bound, "b", False, "numpy"),
        "certify_periodicity-4th-positional":
            lambda s, g: certify_periodicity(s, 16, True, "numpy"),
        "run_scheduler-backend-kwarg":
            lambda s, g: run_scheduler(get_scheduler("sequential"), g, 16, backend="numpy"),
        "compare_schedulers-stream_jobs-kwarg":
            lambda s, g: compare_schedulers({"g": g}, ["sequential"], stream_jobs=2),
        "compare_schedulers-jobs-positional":
            lambda s, g: compare_schedulers({"g": g}, ["sequential"], "e", 16, 0, True, 2),
        "ExperimentSpec-chunk-kwarg":
            lambda s, g: golden_spec(chunk=16),
        "ExperimentCell-backend-kwarg":
            lambda s, g: ExperimentCell("e", "w", "sequential", {}, 0, backend="numpy"),
    }


STALE_CALLS = _stale_calls()


@pytest.mark.parametrize("call", list(STALE_CALLS.values()), ids=list(STALE_CALLS))
def test_stale_engine_spelling_is_a_type_error(call):
    graph = ConflictGraph.from_edges([(0, 1), (1, 2)], name="p3")
    schedule = get_scheduler("degree-periodic").build(graph, seed=0)
    with pytest.raises(TypeError):
        call(schedule, graph)


# ---------------------------------------------------------------------------
# the window knob reaches schedulers through run_scheduler
# ---------------------------------------------------------------------------

class TestWindowPlumbing:
    def test_window_reconfigures_supporting_scheduler(self):
        graph = ConflictGraph.from_edges([(0, 1), (1, 2), (2, 0)], name="k3")
        config = EngineConfig(horizon_mode="stream", chunk=16, window=32)
        outcome = run_scheduler(
            get_scheduler("phased-greedy"), graph, horizon=400, seed=3, config=config
        )
        plain = run_scheduler(
            get_scheduler("phased-greedy"), graph, horizon=400, seed=3,
            config=EngineConfig(horizon_mode="stream", chunk=16),
        )
        assert outcome.schedule.evicted_below > 0  # the window actually evicted
        assert outcome.report.summary() == plain.report.summary()

    def test_window_is_ignored_by_periodic_schedulers(self):
        graph = ConflictGraph.from_edges([(0, 1)], name="p2")
        config = EngineConfig(window=8)
        outcome = run_scheduler(
            get_scheduler("degree-periodic"), graph, horizon=32, config=config
        )
        reference = run_scheduler(get_scheduler("degree-periodic"), graph, horizon=32)
        assert outcome.report.summary() == reference.report.summary()

    def test_with_window_returns_self_when_unchanged(self):
        scheduler = get_scheduler("degree-periodic")
        assert scheduler.with_window(64) is scheduler  # base: unsupported, ignored
        phased = get_scheduler("phased-greedy")
        assert phased.with_window(None) is phased
        assert phased.with_window(64) is not phased


def test_replace_derives_config_variants():
    config = EngineConfig(horizon_mode="stream", chunk=64)
    assert replace(config, stream_jobs=4).chunk == 64
    with pytest.raises(ValueError, match="no streaming mode"):
        replace(config, backend="sets")
