"""Fast tests of the benchmark itself, at smoke input size.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import tracer as tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=1, trace=0, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_declared_metric(workload, trace):
    code, details, result = bench(workload, trace=trace)
    assert code == 0, details["problems"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        for name, entry in details["metrics"].items():
            assert entry["unit"], name
        assert details["metrics"]["error_rate"]["value"] == 0.0
    assert details["machine"]["src_lines"] > 0
    assert details["descriptors"]["vocab_size"] > 0


def test_traced_run_separates_the_regimes():
    _, _, enc = bench("encoding-phrases", trace=1)
    _, details, match = bench("matching-sentences", trace=1)
    enc, match = enc["metrics"], match["metrics"]
    assert enc["embeddings.EncoderLayer.encode_columns.calls"]["value"] > 0
    assert enc["distillation.MatchingSoftmaxObjective.__call__.calls"]["value"] == 0
    assert match["embeddings.EncoderLayer.encode_columns.calls"]["value"] == 0
    assert match["distillation.MatchingSoftmaxObjective.__call__.calls"]["value"] > 0
    assert match["trace.lane_spans"]["value"] > 0
    assert details["trace"]["lane_spans_missing"] == ""


def test_same_seed_same_accuracy_and_inputs():
    _, first, _ = bench("encoding-phrases", seed=4)
    _, again, _ = bench("encoding-phrases", seed=4)
    _, other, _ = bench("encoding-phrases", seed=5)
    assert first["metrics"]["test_accuracy"] == again["metrics"]["test_accuracy"]
    assert first["descriptors"] == again["descriptors"]
    assert first["descriptors"] != other["descriptors"]


@pytest.mark.parametrize("workload,check", [
    ("encoding-phrases", "finite_loss"),
    ("encoding-phrases", "fold_argmax"),
    ("matching-sentences", "soft_rows"),
    ("deploy-infer", "mdl_bytes"),
    ("ingest-vectors", "unk_mean"),
])
def test_broken_output_is_counted(workload, check):
    code, details, result = bench(workload, 1, 0, "--break-check", check)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert details["metrics"]["error_rate"]["value"] > 0


def test_absent_span_is_reported_not_fatal(monkeypatch, tmp_path):
    spans = tracing.SPANS + [("model.no_such_function", ("calls",), None, {"deploy-infer"}, set())]
    monkeypatch.setattr(tracing, "SPANS", spans)
    tr = tracing.Tracer(str(tmp_path))
    tr.install()
    tr.uninstall()
    assert tr.absent == ["model.no_such_function"]
    assert tracing.coverage_errors([], "deploy-infer", tr.absent) == [
        f"{name} never fired on deploy-infer"
        for name, _, _, must, _ in tracing.SPANS[:-1] if "deploy-infer" in must
    ]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "a", 0, 100, "pass-1", 1, None),
        (2, 1, "b", 10, 40, "pass-1", 1, None),
        (3, 1, "b", 30, 60, "pass-1", 2, None),  # overlaps: another lane
    ]
    assert tracing.self_times(spans) == {1: 50, 2: 30, 3: 30}


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the command fails
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
