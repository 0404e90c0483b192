"""The benchmark-trajectory export CI uses (``benchmarks/export_json.py``).

Part of the ``serving`` lane: the exporter serves real bursts through
``InferenceServer``, and CI uploads its output as the ``BENCH_serving.json``
artifact — so its schema is contract, not convention.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.serving

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def export_json_module():
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import export_json
    finally:
        sys.path.pop(0)
    return export_json


def test_export_writes_schema_ci_uploads(export_json_module, tmp_path, capsys):
    output = tmp_path / "BENCH_serving.json"
    code = export_json_module.main(["--output", str(output), "--requests", "6"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(output.read_text())

    assert set(payload) == {
        "meta",
        "serving",
        "robustness",
        "observability",
        "async_conn_scaling",
    }
    assert payload["meta"]["workload"] == "lenet5"
    for scenario in ("batch_1", "dynamic_batching"):
        burst = payload["serving"][scenario]
        assert burst["requests"] == 6
        assert burst["throughput_rps"] > 0
        assert burst["latency_p99_ms"] >= burst["latency_p50_ms"] > 0
        assert burst["bitwise_match_vs_run_batch"] is True
        assert sum(burst["flush_reasons"].values()) >= 1
    assert payload["serving"]["batching_speedup"] > 0
    robustness = payload["robustness"]
    assert robustness["injected"] == {"crash": 1}
    assert robustness["replica_restarts"] == 1
    assert robustness["batches_recovered"] == 1
    assert robustness["batches_failed"] == 0
    assert robustness["requests_failed"] == 0
    assert robustness["bitwise_match_vs_run_batch"] is True
    observability = payload["observability"]
    assert observability["traces_finished"] == 6
    assert observability["traces_dropped"] == 0
    stage_means = observability["stage_mean_ms"]
    assert stage_means["e2e"] > 0
    for stage in ("admit", "queue_wait", "replica_execute", "deliver"):
        assert stage in stage_means
    scaling = payload["async_conn_scaling"]
    assert set(scaling) == {"async"}
    assert scaling["async"], "async sweep is empty"
    for point in scaling["async"]:
        # The front-end must clear every sweep point outright.
        assert "error" not in point, point
        assert point["connections"] > 0
        assert point["all_ok_bitwise"] is True, point
        assert point["throughput_rps"] > 0


def test_export_rejects_bad_request_counts(export_json_module, tmp_path):
    with pytest.raises(SystemExit):
        export_json_module.main(
            ["--output", str(tmp_path / "x.json"), "--requests", "0"]
        )


def test_ci_workflow_runs_every_lane():
    """The workflow file names each lane CI promises (kept honest here)."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for command in (
        "python -m pytest -x -q",
        "python -m pytest -q -m docs",
        "python -m pytest -q -m serving",
        "python -m pytest -q -m chaos",
        "python -m pytest -q -m obs",
        "python -m pytest -q -m asynchttp",
        "tests/test_docs.py::test_http_api_doc_matches_registered_routes",
        "python -m pytest -q benchmarks -m smoke",
        "python3 perfbench/run.py --workload serve-open --seed 1 --seconds 3 --trace 1",
        "python benchmarks/export_json.py --output BENCH_serving.json",
        "--trace-out TRACE_serving.json",
        "ruff check .",
        "ruff format --check .",
    ):
        assert command in workflow, f"CI lane missing from ci.yml: {command}"
    assert "BENCH_serving.json" in workflow
    assert "upload-artifact" in workflow
