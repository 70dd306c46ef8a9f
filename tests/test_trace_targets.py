"""Guard for the benchmark's trace mode (perfbench/tracing.py).

The tracer wraps library functions by (owner, attribute) and each layer's
forward/infer_packed, so renaming or inlining any of them silently breaks
`perfbench/run.py --trace 1`. The benchmark's own self-tests take minutes
and sit outside the tier-1 suite; this one builds desk-tiny and checks the
targets in about a second.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

import bitcontext
from bitcontext import costmodel as cm
from bitcontext import network as nw
from bitcontext import train as tr
from bitcontext.data import Dataset

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_targets_resolve_and_layers_have_both_routes():
    tracing = _tracing()
    for owner, attr, name, _ in tracing.span_targets(bitcontext):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner}.{attr}"
    net = nw.build(nw.desk_tiny(), seed=0)
    for layer in net.layers:
        assert callable(getattr(layer, "forward", None))
        assert callable(getattr(layer, "infer_packed", None))


def test_every_target_records_spans_and_uninstall_restores():
    tracing = _tracing()
    targets = tracing.span_targets(bitcontext)
    before = [getattr(owner, attr) for owner, attr, _, _ in targets]
    spec = nw.desk_tiny()
    net = nw.build(spec, seed=0)
    x = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install(bitcontext, net, [r.name for r in cm.count_network(spec).rows])
    try:
        net.forward(x)
        net.forward_packed(x)
        tr.train_step(net, Dataset(x, np.array([0, 1]), 10),
                      tr.TrainConfig(step=2, iterations=1, batch_size=2))
    finally:
        tracer.uninstall()
    seen = set(tracing.summarize(tracer.spans))
    missing = {name for _, _, name, _ in targets} - seen
    assert missing == set()
    assert [getattr(owner, attr) for owner, attr, _, _ in targets] == before
    assert all("forward" not in vars(layer) for layer in net.layers)


def test_traced_gemm_bits_equal_the_cost_model():
    """binary_gemm's useful bits are the cost model's BOPs, and its
    popcounted bits the BOPs with every binary layer's input channels
    padded to whole words, so gbop_per_s and pad_bit_frac stay exact."""
    tracing = _tracing()
    spec = nw.desk_tiny()
    net = nw.build(spec, seed=0)
    x = np.random.default_rng(0).standard_normal((1, 3, 32, 32)).astype(np.float32)
    tracer = tracing.Tracer()
    tracer.install(bitcontext, net, [r.name for r in cm.count_network(spec).rows])
    try:
        net.forward_packed(x)
    finally:
        tracer.uninstall()
    gemm = tracing.summarize(tracer.spans)["bittensor.binary_gemm"]
    word_padded = replace(spec, layers=[replace(ls, c_in=-(-ls.c_in // 64) * 64)
                                        for ls in spec.layers])
    assert gemm["bits"] == cm.count_network(spec).bops
    assert gemm["popcounted_bits"] == cm.count_network(word_padded).bops
