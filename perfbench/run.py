"""The bitcontext benchmark. From the root of a checkout:

    python3 perfbench/run.py --workload sweep64 --seed 1 --seconds 30 --trace 0

runs the workload's phases (see workloads.py) one after another, each in
its own child process, checks the outputs, prints every metric by name
with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reruns the phases with spans recorded and
reports the per-layer metrics, the per-network-layer table and the
tracing overhead. Full records go to perfbench/out/<workload>[-trace]/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170  # the whole run, all phases included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# (name, unit, better); BENCHMARK.json lists the same names with bounds.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("packed_img_per_s", "img/s", "higher"),
    ("float_img_per_s", "img/s", "higher"),
    ("packed_ms_p50", "ms", "lower"),
    ("packed_ms_tail", "ms", "lower"),
    ("float_ms_p50", "ms", "lower"),
    ("float_ms_tail", "ms", "lower"),
    ("train_samples_per_s", "samples/s", "higher"),
    ("train_step_ms_p50", "ms", "lower"),
    ("train_step_ms_tail", "ms", "lower"),
    ("float_peak_rss_mb", "MB", "lower"),
    ("packed_peak_rss_mb", "MB", "lower"),
    ("train_peak_rss_mb", "MB", "lower"),
]

_SELF_MS = (
    ["bittensor.binary_gemm", "bittensor.binary_conv2d", "bittensor.pack",
     "bittensor.pack_filters", "bittensor.weight_scale"]
    + [f"blocks.{c}.infer_packed" for c in
       ("BinaryConvBlock", "BinaryMlpBlock", "StemConv", "Classifier")]
    + ["blocks.reconstruct_short", "blocks.reconstruct_long",
       "blocks.BinaryConvBlock.forward", "blocks.BinaryMlpBlock.forward"]
    + [f"autograd.{op}" for op in tracing.AUTOGRAD_OPS]
    + ["train.AdamW.step", "data.augment_batch"]
)
PER_LAYER = [(f"{s}.self_ms", "ms", "lower") for s in _SELF_MS] + [
    ("bittensor.binary_gemm.calls", "count", "lower"),
    ("bittensor.binary_gemm.gbop_per_s", "GBOP/s", "higher"),
    ("bittensor.binary_gemm.pad_bit_frac", "ratio", "lower"),
    ("bittensor.pack_filters.calls_per_batch", "count", "lower"),
    ("bittensor.weight_scale.calls_per_batch", "count", "lower"),
    ("network.forward.peak_alloc_mb", "MB", "lower"),
    ("network.forward_packed.peak_alloc_mb", "MB", "lower"),
    ("network.build.ms", "ms", "lower"),
    ("network.save.ms", "ms", "lower"),
    ("network.save.bytes", "bytes", "lower"),
    ("network.load.ms", "ms", "lower"),
    ("costmodel.bops", "count", "lower"),
    ("costmodel.flops", "count", "lower"),
    ("train.final_loss", "nat", "lower"),
    ("trace.float_overhead_ms", "ms", "lower"),
    ("trace.packed_overhead_ms", "ms", "lower"),
    ("trace.train_overhead_ms", "ms", "lower"),
]


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def tail(values):
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it. Below 21 samples that percentile is at or under the median,
    so the maximum (percentile 100) is reported instead."""
    s = sorted(values)
    n = len(s)
    if n > 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def child_env():
    """Environment of the phase processes: every BLAS thread variable set to
    one value no larger than the usable cores (a larger request is
    refused), and a fixed hash seed, without which tracemalloc peaks differ
    by a few hundred bytes between processes."""
    nproc = len(os.sched_getaffinity(0))
    asked = []
    for var in BLAS_THREAD_VARS:
        val = os.environ.get(var)
        if val is None:
            continue
        if not val.isdigit() or int(val) < 1:
            raise BenchError(f"{var}={val!r} is not a positive thread count")
        if int(val) > nproc:
            raise BenchError(f"{var}={val} exceeds the {nproc} usable cores")
        asked.append(int(val))
    threads = min(asked, default=nproc)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    return env, nproc, threads


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_phases(w, seed, seconds, trace, run_dir, env, t_start):
    phases = {}
    for ph in w.phases:
        left = DEADLINE_S - (time.monotonic() - t_start)
        if left <= 0:
            raise BenchError("out of time before phase " + ph.route)
        cmd = [sys.executable, str(HERE / "phase.py"), str(run_dir), w.name,
               ph.route, str(seed), str(seconds), str(int(trace))]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"phase {ph.route} exceeded the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"phase {ph.route} exited with {proc.returncode}")
        with open(run_dir / f"{ph.route}.json") as f:
            phases[ph.route] = json.load(f)
    return phases


def exactness_gate(phases, run_dir):
    """Per pool batch: packed logits equal float logits in every bit."""
    fl = np.load(run_dir / "float.npz")
    pk = np.load(run_dir / "packed.npz")
    pool = phases["float"]["pool"]
    return [f"b{j}" in fl and f"b{j}" in pk
            and np.array_equal(fl[f"b{j}"], pk[f"b{j}"]) for j in range(pool)]


def count_ops(phases, gate):
    attempted = failed = 0
    for route, ph in phases.items():
        for i, good in enumerate(ph["ok"]):
            attempted += 1
            if route != "train":
                good = good and gate[i % ph["pool"]]
            failed += not good
        for good in ph.get("save_ok", []):
            attempted += 1
            failed += not good
        for msg in ph["failures"]:
            print(f"[{route}] {msg}", file=sys.stderr)
    return attempted, failed


def route_times(ph, traced):
    """Per-operation ms of the untraced (traced=False) or traced half."""
    return [t for t, f in zip(ph["times_ms"], ph["traced"]) if f == traced]


def end_to_end(phases):
    m, notes = {}, {}
    m["setup_s"] = sum(ph["setup_s"] for ph in phases.values())
    for route, ph in phases.items():
        times = route_times(ph, traced=False)
        value, pct = tail(times)
        rate = "train_samples_per_s" if route == "train" else f"{route}_img_per_s"
        key = "train_step_ms" if route == "train" else f"{route}_ms"
        m[rate] = ph["batch"] * len(times) / (sum(times) / 1e3)
        m[f"{key}_p50"] = statistics.median(times)
        m[f"{key}_tail"] = value
        m[f"{route}_peak_rss_mb"] = ph["rss_mb"]
        notes[f"{key}_tail"] = f"p{pct:.1f} of n={len(times)}"
        notes[f"{key}_p50"] = f"n={len(times)}, batch {ph['batch']}"
    return m, notes


def per_layer(phases):
    agg = {route: tracing.summarize(ph["spans"]) for route, ph in phases.items()}

    def total(name, field):
        return sum(a.get(name, {}).get(field, 0) for a in agg.values())

    m = {f"{s}.self_ms": total(s, "self_ms") for s in _SELF_MS}
    gemm = "bittensor.binary_gemm"
    m[f"{gemm}.calls"] = total(gemm, "calls")
    bits, popcounted, ms = (total(gemm, f) for f in ("bits", "popcounted_bits", "ms"))
    m[f"{gemm}.gbop_per_s"] = bits / ms / 1e6 if ms else 0.0
    m[f"{gemm}.pad_bit_frac"] = (popcounted - bits) / popcounted if popcounted else 0.0
    packed = phases["packed"]
    n_traced = len(route_times(packed, traced=True))
    for fn in ("pack_filters", "weight_scale"):
        calls = agg["packed"].get(f"bittensor.{fn}", {}).get("calls", 0)
        m[f"bittensor.{fn}.calls_per_batch"] = calls / n_traced
    m["network.forward.peak_alloc_mb"] = phases["float"]["peak_alloc_mb"]
    m["network.forward_packed.peak_alloc_mb"] = packed["peak_alloc_mb"]
    m["network.build.ms"] = statistics.median(
        ph["build_ms"] for ph in phases.values() if "build_ms" in ph)
    train = phases["train"]
    m["network.save.ms"] = statistics.median(train.get("save_ms") or [0.0])
    m["network.save.bytes"] = train.get("save_bytes", 0)
    m["network.load.ms"] = statistics.median(train.get("load_ms") or [0.0])
    m["costmodel.bops"] = packed["bops"] * packed["batch"]
    m["costmodel.flops"] = packed["flops"] * packed["batch"]
    m["train.final_loss"] = train["final_loss"]
    for route, ph in phases.items():
        m[f"trace.{route}_overhead_ms"] = (
            statistics.median(route_times(ph, traced=True))
            - statistics.median(route_times(ph, traced=False)))
    return m, agg


def layer_table(phases, agg):
    """One row per network layer, keyed and ordered as costmodel's rows."""
    packed, flt = phases["packed"], phases["float"]
    batch = packed["batch"]
    n_pk = len(route_times(packed, traced=True))
    n_fl = len(route_times(flt, traced=True))
    rows = []
    for row, (bops, flops) in zip(packed["rows"], packed["row_work"]):
        f_ms = agg["float"].get(tracing.layer_span(row, "forward"), {}).get("ms", 0.0)
        p_ms = agg["packed"].get(tracing.layer_span(row, "infer_packed"), {}).get("ms", 0.0)
        f_ms, p_ms = f_ms / n_fl, p_ms / n_pk
        rows.append({"layer": row, "float_ms": f_ms, "packed_ms": p_ms,
                     "bops": bops * batch, "flops": flops * batch,
                     "gbop_per_s": bops * batch / p_ms / 1e6 if bops and p_ms else 0.0})
    return rows


def run_workload(name, seed, seconds, trace):
    """Run every phase of one workload; returns the full record."""
    t_start = time.monotonic()
    if not (ROOT / "src" / "bitcontext" / "__init__.py").is_file():
        raise BenchError(f"no bitcontext sources under {ROOT / 'src'}")
    w = wl.WORKLOADS[name]
    env, nproc, threads = child_env()
    run_dir = OUT / (f"{name}-trace" if trace else name)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    phases = run_phases(w, seed, seconds, trace, run_dir, env, t_start)
    gate = exactness_gate(phases, run_dir)
    attempted, failed = count_ops(phases, gate)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": {"nproc": nproc, "cpu": cpu_model(),
                "python": platform.python_version(),
                "numpy": phases["float"]["numpy"],
                "blas": "{name} {version}".format(
                    **np.__config__.CONFIG["Build Dependencies"]["blas"]),
                "blas_threads_set": threads,
                "blas_threads_effective": phases["float"]["blas_threads"]},
        "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "exact_batches": gate,
    }
    if trace:
        record["metrics"], agg = per_layer(phases)
        record["layers"] = layer_table(phases, agg)
        record["spans"] = agg
        units = PER_LAYER
    else:
        record["metrics"], record["notes"] = end_to_end(phases)
        units = END_TO_END
    record["units"] = {n: u for n, u, _ in units}
    with open(run_dir / "summary.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def print_record(rec):
    print(f"workload {rec['workload']} seed {rec['seed']} "
          f"seconds {rec['seconds']} trace {rec['trace']}")
    print("env " + " ".join(f"{k}={v}" for k, v in rec["env"].items()))
    for layer in rec.get("layers", []):
        print(f"  {layer['layer']:<28} float {layer['float_ms']:9.3f} ms  "
              f"packed {layer['packed_ms']:9.3f} ms  bops {layer['bops']:>13d}  "
              f"flops {layer['flops']:>11d}  {layer['gbop_per_s']:7.2f} GBOP/s")
    for name, value in rec["metrics"].items():
        note = rec.get("notes", {}).get(name, "")
        shown = "n/a" if value is None else f"{value:.6g}"  # nothing measured
        print(f"  {name} = {shown} {rec['units'][name]}"
              + (f"  ({note})" if note else ""))
    print(f"  ops_failed_frac = {rec['ops_failed_frac']:.6g} "
          f"({rec['failed']} of {rec['attempted']} operations)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        rec = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print_record(rec)
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"], "failed": rec["failed"],
        "metrics": {n: {"value": rec["metrics"][n], "unit": rec["units"][n]}
                    for n in rec["units"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
