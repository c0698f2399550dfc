"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import sys
import time

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from spans import Recorder  # noqa: E402


def _run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01",
         "--trace", str(trace)],
        tiny=True,
    )
    out = capsys.readouterr().out.strip().splitlines()
    return code, out, json.loads(out[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = workloads.per_layer_units() if trace else workloads.END_TO_END
    assert list(result["metrics"]) == list(units)
    for name, unit in units.items():
        assert result["metrics"][name]["unit"] == unit
        value = result["metrics"][name]["value"]
        assert np.isfinite(value)
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit for line in lines
        ), name
    for name in ("error_rate", *([] if trace else workloads.UNBOUNDED)):
        assert any(line.split()[:1] == [name] for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_matrix(monkeypatch):
    real = workloads.separation_matrix

    def corrupted(*args, **kwargs):
        matrix = real(*args, **kwargs)
        matrix.values[0] = 2.0
        return matrix

    monkeypatch.setattr(workloads, "separation_matrix", corrupted)


def _corrupt_scores(monkeypatch):
    real = workloads.anomaly_scores

    def corrupted(forest, ds):
        scores = real(forest, ds)
        scores[0] = 2.0
        return scores

    monkeypatch.setattr(workloads, "anomaly_scores", corrupted)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("pairwise-numeric", _corrupt_matrix),
        ("mixed-missing", _corrupt_matrix),
        ("score-serving", _corrupt_scores),
    ],
)
def test_corrupted_output_counts_as_failure(capsys, monkeypatch, workload, corrupt):
    corrupt(monkeypatch)
    code, _, result = _run(capsys, workload, 0)
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_missing_sources_exit_without_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "mixed-missing", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_self_time_excludes_children():
    rec = Recorder(enabled=True)
    rec.job = "op0"
    with rec.span("outer"):
        time.sleep(0.01)
        with rec.span("inner"):
            time.sleep(0.02)
    outer, inner = rec.spans
    assert inner.parent == outer.sid and outer.job == inner.job == "op0"
    self_s = rec.per_job("outer")["op0"]
    assert self_s == pytest.approx(outer.duration - inner.duration)
    assert 0.005 < self_s < inner.duration


def test_disabled_recorder_keeps_nothing():
    rec = Recorder(enabled=False)
    with rec.span("call") as sp:
        pass
    assert sp is None and rec.spans == []


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        workloads.per_layer_units()
    )
