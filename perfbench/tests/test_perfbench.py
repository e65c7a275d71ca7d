"""Tests of the benchmark itself: its contract, its tracer and its traced runs.

    python3 -m pytest perfbench/tests

The traced-run tests run every workload through ``perfbench/run.py`` (the
infer-full workload twice), so the module takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

# Per-layer metrics that must be non-zero on the workload where the layer works.
WORKS_ON = {
    "train-desk": [
        "dataset.load_frame_ms", "dataset.load_frame.calls", "augment.ms",
        "backbone.fwd_ms", "spfpn.cost_volumes_ms", "spfpn.aggregate_ms",
        "disphead.fwd_ms", "decoder.query_pe_ms", "decoder.mhsa_ms", "decoder.cross_ms",
        "decoder.ffn_ms", "model.loss_ms", "tensor.backward_ms", "tensor.graph_nodes",
        "tensor.graph_bytes", "optim.step_ms", "checkpoint.save_ms",
    ] + [f"ops.{op}.{m}" for op in tracer.TRACED_OPS
         for m in ("fwd_ms", "bwd_ms", "calls", "out_bytes")],
    "infer-full": [
        "backbone.fwd_ms", "spfpn.cost_volumes_ms", "spfpn.aggregate_ms", "disphead.fwd_ms",
        "decoder.query_pe_ms", "decoder.mhsa_ms", "decoder.cross_ms", "decoder.ffn_ms",
        "detect.decode_ms", "detect.nms_ms", "detect.candidates", "detect.nms_keep_ratio",
        "kitti_io.write_label_ms", "evalkit.ap_ms", "evalkit.iou_calls",
    ] + [f"ops.{op}.{m}" for op in tracer.TRACED_OPS for m in ("fwd_ms", "calls", "out_bytes")],
    "prep-desk": [
        "synth.scene_ms", "kitti_io.write_ppm_ms", "disphead.block_match_ms",
        "pseudogt.valid_frac",
    ],
}
ZERO_ON_INFER = ["tensor.backward_ms", "optim.step_ms", "model.loss_ms",
                 "tensor.graph_nodes", "tensor.graph_bytes"]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _traced(workload: str) -> dict:
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _traced(w) for w in run.WORKLOADS}


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_names = (list(tracer.TIME_METRICS) + list(tracer.COUNT_METRICS)
                   + list(tracer.RATIO_METRICS)
                   + [f"trace_overhead.{m}" for m in run.END_TO_END])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer_names)


def test_self_time_subtracts_only_same_family_children():
    t = tracer.Tracer()

    def op():
        return 1

    def inner():
        return t.call("ops.matmul.fwd", "op", op, (), {})

    def outer():
        return t.call("decoder.mhsa", "module", inner, (), {})

    t.call("backbone.fwd", "module", outer, (), {})
    selfs = t.self_times()
    (_, b0, b1, _, _), (_, m0, m1, parent, _), (_, o0, o1, op_parent, op_fparent) = t.spans
    assert parent == 0 and op_parent == 1 and op_fparent == -1
    assert selfs["backbone.fwd"] == pytest.approx((b1 - b0) - (m1 - m0))
    assert selfs["decoder.mhsa"] == pytest.approx(m1 - m0)  # the op stays in it
    assert selfs["ops.matmul.fwd"] == pytest.approx(o1 - o0)


def test_untraced_run_prints_the_end_to_end_metrics():
    proc = _run("--workload", "prep-desk", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert list(record["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())
    for name in ("synth_frames_per_s", "pseudogt_frames_per_s", "error_rate"):
        assert name in proc.stdout


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "prep-desk", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layers_do_work_where_they_should(traced_runs, workload):
    record = traced_runs[workload]
    assert record["correct"]
    metrics = record["metrics"]
    idle = [name for name in WORKS_ON[workload] if not metrics[name]["value"] > 0]
    assert idle == []


def test_training_layers_are_idle_in_inference(traced_runs):
    metrics = traced_runs["infer-full"]["metrics"]
    assert {name: metrics[name]["value"] for name in ZERO_ON_INFER} == dict.fromkeys(
        ZERO_ON_INFER, 0.0)


def test_traced_run_prints_every_per_layer_metric(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    for record in traced_runs.values():
        assert sorted(record["metrics"]) == sorted(names)


@pytest.mark.parametrize("workload", ["train-desk", "infer-full"])
def test_counts_repeat_exactly(traced_runs, workload):
    again = _traced(workload)["metrics"]
    first = traced_runs[workload]["metrics"]
    counted = [n for n in first if n.endswith(".calls") or n == "detect.candidates"]
    assert {n: first[n]["value"] for n in counted} == {n: again[n]["value"] for n in counted}
