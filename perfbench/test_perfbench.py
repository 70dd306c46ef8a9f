"""Self-tests of the benchmark: BENCHMARK.json, span coverage, layer-row
alignment and determinism. Run from the repository root with

    python3 -m pytest -q perfbench

The traced runs are the real workloads at the smallest size (--seconds 1),
about two minutes in all on 2 cores.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads as wl

sys.path.insert(0, str(run.ROOT / "src"))
from bitcontext import costmodel as cm  # noqa: E402

ALL = frozenset(wl.WORKLOADS)
WITH_MLP = frozenset({"bcdnet1", "tiny-train"})

# Span -> workloads whose traced run must call it (sweep64 has no MLP block).
EXPECTED_SPANS = {
    "bittensor.binary_gemm": ALL,
    "bittensor.binary_conv2d": ALL,
    "bittensor.pack": ALL,
    "bittensor.pack_filters": ALL,
    "bittensor.weight_scale": ALL,
    "blocks.reconstruct_short": WITH_MLP,
    "blocks.reconstruct_long": WITH_MLP,
    "blocks.BinaryConvBlock.forward": ALL,
    "blocks.BinaryConvBlock.infer_packed": ALL,
    "blocks.BinaryMlpBlock.forward": WITH_MLP,
    "blocks.BinaryMlpBlock.infer_packed": WITH_MLP,
    "blocks.StemConv.infer_packed": ALL,
    "blocks.Classifier.infer_packed": ALL,
    "autograd.conv2d": ALL,
    "autograd.im2col": ALL,
    "autograd.token_fc": WITH_MLP,
    "autograd.binarize": ALL,
    "autograd.batchnorm": ALL,
    "autograd.rprelu": ALL,
    "autograd.quartile_shift": WITH_MLP,
    "autograd.cross_entropy": ALL,
    "autograd.backward": ALL,
    "network.forward": ALL,
    "network.forward_packed": ALL,
    "train.AdamW.step": ALL,
    "data.augment_batch": ALL,
}

COUNT_METRICS = (
    "bittensor.binary_gemm.calls", "bittensor.binary_gemm.pad_bit_frac",
    "bittensor.pack_filters.calls_per_batch",
    "bittensor.weight_scale.calls_per_batch",
    "network.forward.peak_alloc_mb", "network.forward_packed.peak_alloc_mb",
    "network.save.bytes", "costmodel.bops", "costmodel.flops",
    "train.final_loss",
)


@pytest.fixture(scope="module")
def traced_twice():
    """Two traced runs per workload with the same seed."""
    return {name: [run.run_workload(name, seed=7, seconds=1, trace=True)
                   for _ in range(2)]
            for name in sorted(wl.WORKLOADS)}


def _calls(rec, span):
    return sum(route.get(span, {}).get("calls", 0) for route in rec["spans"].values())


def test_benchmark_json_matches_the_runner():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_every_wrapper_has_an_expected_workload():
    import bitcontext
    declared = {name for _, _, name, _ in tracing.span_targets(bitcontext)}
    assert declared | {"data.augment_batch"} == set(EXPECTED_SPANS)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(list(range(30))) == (19, pytest.approx(100 * 20 / 30))
    assert run.tail([5, 1, 3]) == (5, 100.0)


def test_blas_threads_above_nproc_are_refused(monkeypatch):
    nproc = len(os.sched_getaffinity(0))
    monkeypatch.setenv("OMP_NUM_THREADS", str(nproc + 1))
    with pytest.raises(run.BenchError):
        run.child_env()


def test_without_the_program_it_fails_without_a_result():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for src in run.HERE.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny-train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_span_coverage_and_layer_rows(traced_twice, name):
    rec = traced_twice[name][0]
    assert rec["failed"] == 0
    missing = [s for s, where in EXPECTED_SPANS.items()
               if name in where and _calls(rec, s) == 0]
    assert not missing, f"spans that never fired on {name}: {missing}"
    spec = wl.WORKLOADS[name].spec()
    assert [r["layer"] for r in rec["layers"]] \
        == [r.name for r in cm.count_network(spec).rows]
    for row in rec["layers"]:
        assert row["float_ms"] > 0 and row["packed_ms"] > 0, row
    assert set(rec["metrics"]) == {n for n, _, _ in run.PER_LAYER}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_count_metrics_repeat_exactly(traced_twice, name):
    a, b = traced_twice[name]
    for metric in COUNT_METRICS:
        assert a["metrics"][metric] == b["metrics"][metric], metric
    for span in EXPECTED_SPANS:
        assert _calls(a, span) == _calls(b, span), span


def test_a_single_differing_bit_fails_the_batches_of_that_pool_entry():
    gate_dir = run.OUT / "gate-check"
    shutil.rmtree(gate_dir, ignore_errors=True)
    gate_dir.mkdir(parents=True)
    logits = np.arange(6, dtype=np.float32).reshape(2, 3)
    off = logits.copy()
    off.view(np.uint32)[0, 0] ^= 1
    np.savez(gate_dir / "float.npz", b0=logits, b1=logits)
    np.savez(gate_dir / "packed.npz", b0=logits, b1=off)
    route = {"ok": [True] * 4, "pool": 2, "failures": []}
    phases = {"float": route, "packed": route}
    gate = run.exactness_gate(phases, gate_dir)
    shutil.rmtree(gate_dir)
    assert gate == [True, False]
    assert run.count_ops(phases, gate) == (8, 4)
