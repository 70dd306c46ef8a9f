"""Guard for the benchmark's trace mode (perfbench/tracing.py) and for the
library names the benchmark calls.

The tracer wraps library functions by (owner, attribute) and each layer's
forward/infer_packed, so renaming or inlining any of them silently breaks
`perfbench/run.py --trace 1`. The benchmark's phases call `tr.`, `nw.` and
`cm.` names and the train_step1/train_step2 wrappers. The benchmark's own
self-tests take minutes and sit outside the tier-1 suite; these check the
same contracts in a few seconds.
"""

import ast
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

import bitcontext
from bitcontext import costmodel as cm
from bitcontext import data as dt
from bitcontext import network as nw
from bitcontext import train as tr
from bitcontext.data import Dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_benchmark_library_names_resolve():
    """Every `tr.`/`nw.`/`cm.` attribute and `from bitcontext.<module>
    import` name in the benchmark's phase and workload modules exists."""
    modules = {"tr": tr, "nw": nw, "cm": cm}
    seen = set()
    for path in (PERFBENCH / "phase.py", PERFBENCH / "workloads.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                seen.add((node.value.id, node.attr))
                assert hasattr(modules[node.value.id], node.attr), \
                    f"{path.name}: {node.value.id}.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                    "bitcontext."):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), f"{path.name}: {node.module}.{alias.name}"
    assert {("tr", "train_step1"), ("tr", "train_step2"), ("tr", "train_step")} <= seen


def test_benchmark_two_step_wrappers_equal_train_step_twice():
    """train_step1 -> train_step2(init), as perfbench/phase.py calls them,
    leaves the state and loss histories that train_step run once per step
    on one network does."""
    data = dt.synthetic_pairs_dataset(96, size=16, channels=1, seed=5)
    cfgs = [tr.TrainConfig(step=1, iterations=3, batch_size=32, lr=2e-3,
                           weight_decay=1e-5, seed=7, augment="roll"),
            tr.TrainConfig(step=2, iterations=3, batch_size=32, lr=1e-3,
                           weight_decay=0.0, seed=8, augment="roll")]
    wrapped = nw.build(nw.desk_micro(), seed=3)
    init, res1 = tr.train_step1(wrapped, data, cfgs[0])
    state, res2 = tr.train_step2(wrapped, init, data, cfgs[1])
    direct = nw.build(nw.desk_micro(), seed=3)
    histories = [tr.train_step(direct, data, cfg).loss_history for cfg in cfgs]
    assert [res1.loss_history, res2.loss_history] == histories
    assert wrapped.step == direct.step == 2
    own = direct.state_arrays()
    assert state.keys() == own.keys()
    for k, v in own.items():
        assert np.array_equal(state[k], v) and state[k].dtype == v.dtype, k
        assert not np.shares_memory(state[k], wrapped.state_arrays()[k]), k
