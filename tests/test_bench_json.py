"""``BENCH_*.json`` files carry the environment they were measured in."""

import json
import os
import platform

import numpy
import pytest


def test_written_file_carries_env_stamp(tmp_path, monkeypatch):
    common = pytest.importorskip("benchmarks.common")
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    record = common.bench_record("measure_stage", horizon=64, seconds=0.5, backend="numpy")
    path = common.write_bench_json("envcheck", [record], meta={"quick": True})
    assert path == tmp_path / "BENCH_envcheck.json"
    payload = json.loads(path.read_text())
    env = payload["env"]
    assert set(env) == {"python", "numpy", "trace_backend", "cpu_count", "git_sha"}
    assert env["python"] == payload["python"] == platform.python_version()
    assert env["numpy"] == numpy.__version__
    assert env["trace_backend"] == "numpy"
    assert env["cpu_count"] == os.cpu_count()
    assert isinstance(env["git_sha"], str) and env["git_sha"]
    assert payload["records"] == [record] and payload["quick"] is True
