"""Smoke test of the benchmark itself, at 50 birds / n = 20 / 2 replays.

Run explicitly (it is outside tier-1's ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_smoke.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import run as cli  # noqa: E402
from benchmarks.perf.trace import REQUEST_ROOT, summarize_request  # noqa: E402
from benchmarks.perf.workloads import (  # noqa: E402
    WORKLOADS,
    Scale,
    statements,
    statements_sha256,
)

SMALL = Scale(num_birds=50, min_replays=2, n=20)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARED["per_layer"]}
#: layer metrics that are counts of engine work, not times or ratios of
#: times: these must repeat exactly.
EXACT_PREFIXES = ("wal.", "storage.")


@pytest.fixture(scope="module")
def traced_twice():
    """Every workload, traced, twice on one seed (``seconds=0``: exactly
    ``min_replays`` replays)."""
    return {
        name: [cli.run_once(name, 7, 0, trace=True, scale=SMALL)
               for _ in range(2)]
        for name in WORKLOADS
    }


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert DECLARED["paths"] == ["benchmarks/perf"]
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_statement_list_is_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]
    first = statements(workload, 7, SMALL)
    assert first == statements(workload, 7, SMALL)
    assert len(first) == 20
    assert statements_sha256(first) == statements_sha256(
        statements(workload, 7, SMALL))
    assert statements_sha256(first) != statements_sha256(
        statements(workload, 8, SMALL))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted(traced_twice, name, capsys):
    result = traced_twice[name][0]
    assert result["correct"], result["notes"]
    assert set(result["end_to_end"]) == set(END_TO_END)
    assert set(result["metrics"]) == set(PER_LAYER)
    for key, value in result["end_to_end"].items():
        assert math.isfinite(value) and value > 0, key
    for key, value in result["metrics"].items():
        assert math.isfinite(value), key
    line = cli.report(result, cli._units(DECLARED))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1 and line["failed"] == 0
    for key, metric in line["metrics"].items():
        assert metric["unit"] == PER_LAYER[key]["unit"]
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == line


def test_untraced_run_reports_the_end_to_end_metrics(capsys):
    result = cli.run_once("read_indexed", 7, 0, trace=False, scale=SMALL)
    line = cli.report(result, cli._units(DECLARED))
    assert line["correct"]
    assert set(line["metrics"]) == set(END_TO_END)
    for key, metric in line["metrics"].items():
        assert metric["unit"] == END_TO_END[key]["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
    assert result["provenance"]["replays"] == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(traced_twice, name):
    first, second = traced_twice[name]
    assert (first["provenance"]["statements_sha256"]
            == second["provenance"]["statements_sha256"])
    for key in ("pages_per_stmt", "space_amp", "ok_frac"):
        assert first["end_to_end"][key] == second["end_to_end"][key], key
    for key, metric in PER_LAYER.items():
        if key.startswith(EXACT_PREFIXES) and metric["unit"] in ("count", "B"):
            assert first["metrics"][key] == second["metrics"][key], key


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_sum_to_the_root_span(traced_twice, name):
    for request in traced_twice[name][0]["requests"]:
        total = sum(layer[0] for layer in request["layers"].values())
        assert total == pytest.approx(request["end"] - request["start"],
                                      abs=1e-9)
        assert all(layer[0] > -1e-9 for layer in request["layers"].values())


def test_summarize_request_nests_by_containment():
    spans = sorted([
        ("server.frame_decode", 0.0, 1.0, 1, 0),
        ("txn.session", 2.0, 9.0, 2, 0),
        ("summaries.get", 3.0, 6.0, 2, 0),
        ("storage.heap", 4.0, 5.0, 2, 100),
        ("summaries.get", 6.0, 8.0, 2, 0),
        ("server.marshal", 10.0, 11.0, 1, 40),
    ], key=lambda s: (s[1], -s[2]))
    summary = summarize_request(spans)
    layers = summary["layers"]
    assert (summary["start"], summary["end"]) == (0.0, 11.0)
    assert layers["txn.session"] == [2.0, 1, 0]
    assert layers["summaries.get"] == [4.0, 2, 0]
    assert layers["storage.heap"] == [1.0, 1, 100]
    assert layers[REQUEST_ROOT][0] == 2.0  # 1..2 and 9..10
    assert summary["edges"]["summaries.get>storage.heap"] == [1, 100]
    assert sum(layer[0] for layer in layers.values()) == 11.0
