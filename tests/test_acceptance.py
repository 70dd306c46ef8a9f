"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with `pytest tests/test_acceptance.py -s -v`).

The desk-scale training criteria (6a-6c) dominate the runtime; expect the
whole module to take on the order of ten minutes on a 2-core CPU.
"""

import functools
import time

import numpy as np
import pytest

from bitcontext import analysis as an
from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from bitcontext import blocks as bk
from bitcontext import costmodel as cm
from bitcontext import data as dt
from bitcontext import network as nw
from bitcontext import train as tr
from conftest import central_difference, dense_conv_oracle, reconstruct_oracle


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num}: FAIL - {text}")
                raise
            print(f"\ncriterion {num}: PASS - {text}")
        return wrapper
    return deco


@criterion(1, "kernel oracle equivalence over >=10k randomized cases, <1 min")
def test_criterion_1_kernel_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    cases = 0
    # binary GEMM vs dense float on unpacked operands (exact)
    for _ in range(80):
        r = int(rng.integers(1, 24))
        k = int(rng.integers(1, 300))
        if k % 64 == 0:
            k += 1  # bias towards fan-ins off the word size
        c = int(rng.integers(1, 16))
        a = rng.choice([-1.0, 1.0], size=(r, k)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(c, k)).astype(np.float32)
        s = rng.uniform(0.01, 3.0, size=c).astype(np.float32)
        got = bt.binary_gemm(bt.pack(a), bt.pack(w), s)
        ref = (a @ w.T) * s[None, :]
        assert np.array_equal(got, ref)
        cases += r * c
    # binary conv vs dense float conv of unpacked operands (exact)
    for _ in range(40):
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 9))
        hw = int(rng.integers(4, 11))
        cout = int(rng.integers(1, 7))
        stride = int(rng.choice([1, 2]))
        pad = int(rng.choice([0, 1]))
        a = rng.choice([-1.0, 1.0], size=(n, cin, hw, hw)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(cout, cin, 3, 3)).astype(np.float32)
        s = rng.uniform(0.05, 2.0, size=cout).astype(np.float32)
        got = bt.binary_conv2d(bt.pack(a), bt.pack_filters(w), s,
                               stride=stride, pad=pad)
        # dense float: unpack, pad with -1, im2col, matmul, scale
        ap = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                    constant_values=-1.0)
        cols, oh, ow = ag.im2col(ap, 3, stride, 0)
        ref = (cols @ w.reshape(cout, -1).T) * s[None, :]
        ref = ref.reshape(n, oh, ow, cout).transpose(0, 3, 1, 2)
        assert np.array_equal(got, ref)
        cases += n * cout * oh * ow
    # spot-check a slice of those configs against the loop oracle as well
    for _ in range(3):
        a = rng.choice([-1.0, 1.0], size=(1, 3, 6, 6)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(2, 3, 3, 3)).astype(np.float32)
        s = rng.uniform(0.1, 1.0, size=2).astype(np.float32)
        got = bt.binary_conv2d(bt.pack(a), bt.pack_filters(w), s, 1, 1)
        assert np.array_equal(got.astype(np.float64),
                              dense_conv_oracle(a, w, s, 1, 1))
        cases += got.size
    elapsed = time.time() - t0
    assert cases >= 10_000, cases
    assert elapsed < 60.0, elapsed


@criterion(2, "STE gradients: qb and end-to-end surrogate finite differences")
def test_criterion_2_ste_gradient_checks(frozen_weight_scales):
    """The end-to-end check holds the weight scales fixed through the
    frozen_weight_scales fixture."""
    rng = np.random.default_rng(202)
    # qb_backward vs central differences at 1k points in (-1,1) \ {0}
    xs = rng.uniform(-1.0, 1.0, size=2000)
    xs = xs[np.abs(xs) > 1e-6][:1000]
    assert xs.size == 1000
    h = 1e-6
    fd = (ag.qb_forward(xs + h) - ag.qb_forward(xs - h)) / (2 * h)
    got = ag.qb_backward(xs, 1.0)
    ok = np.abs(fd - got) / np.maximum(np.abs(fd), 1e-12) < 1e-4
    assert np.all(ok)
    # exactly zero outside the unit interval
    outside = np.concatenate([rng.uniform(1.0, 10.0, 500),
                              rng.uniform(-10.0, -1.0, 500), [1.0, -1.0]])
    assert np.all(ag.qb_grad(outside) == 0.0)
    # end-to-end block gradients on the smooth surrogate path
    spec = nw.NetworkSpec("acc2", (8, 8), 3, [
        nw.LayerSpec("stem-conv", 3, 8, stride=2),
        nw.LayerSpec("binary-conv-3x3", 8, 8),
        nw.LayerSpec("binary-mlp", 8, 8),
        nw.LayerSpec("classifier", 8, 3),
    ]).validate()
    net = nw.build(spec, seed=7, dtype=np.float64)
    x = rng.uniform(-1, 1, size=(2, 3, 8, 8))
    labels = np.array([1, 2])

    def forward():
        out = net.forward(x, training=False, surrogate=True)
        return float(ag.cross_entropy(out, labels, 0.1).data)

    forward()
    loss = ag.cross_entropy(
        net.forward(x, training=False, surrogate=True), labels, 0.1)
    net.zero_grad()
    loss.backward()
    params = net.params()
    checked = 0
    for name in rng.permutation(sorted(params)):
        p = params[name]
        idx = tuple(int(rng.integers(0, s)) for s in p.data.shape)
        got = p.grad[idx]
        fd = central_difference(forward, p.data, idx)
        if abs(fd) < 1e-7 and abs(got) < 1e-7:
            continue
        assert abs(fd - got) / max(abs(fd), 1e-9) < 1e-3, (name, idx, fd, got)
        checked += 1
        if checked == 10:
            break
    assert checked == 10


@criterion(3, "zero-initialized dynamic embeddings leave logits unchanged "
              "for 100 random inputs, exactly")
def test_criterion_3_zero_init_dynamic_identity():
    rng = np.random.default_rng(303)
    plain = nw.build(nw.desk_tiny(), seed=9)
    dynamic = nw.build(nw.desk_tiny(dynamic=True), seed=10)
    src = plain.state_arrays()
    for name, arr in dynamic.state_arrays().items():
        if name in src:
            arr[...] = src[name]
    x = rng.normal(size=(100, 3, 32, 32)).astype(np.float32)
    ref = plain.forward(x, training=False).data
    got = dynamic.forward(x, training=False).data
    assert np.array_equal(got, ref)
    assert np.array_equal(dynamic.forward_packed(x), ref)


@criterion(4, "shift algebra: involution exhaustive; 1k random tensors match "
              "the scalar sampling oracle")
def test_criterion_4_shift_algebra():
    rng = np.random.default_rng(404)
    for h in (2, 4, 8):
        for w in (2, 4, 8):
            for c in (4, 8, 16):
                x = rng.choice([-1.0, 1.0], size=(1, c, h, w)).astype(np.float32)
                b = bt.pack(x)
                twice = bk.reconstruct_long(bk.reconstruct_long(b))
                assert np.array_equal(twice.words, b.words), (h, w, c)
    for i in range(1000):
        c = int(rng.choice([4, 8, 12, 16]))
        h = int(rng.choice([2, 3, 4, 5, 8]))
        w = int(rng.choice([2, 3, 4, 5, 8]))
        x = rng.choice([-1.0, 1.0], size=(1, c, h, w)).astype(np.float32)
        b = bt.pack(x)
        if i % 2 == 0:
            got = bt.unpack(bk.reconstruct_short(b))
            ref = reconstruct_oracle(x, bk.SHORT_OFFSETS)
        else:
            got = bt.unpack(bk.reconstruct_long(b))
            ref = reconstruct_oracle(x, bk.long_offsets(h, w))
        assert np.array_equal(got, ref)


@criterion(5, "cost model reproduces the reference complexity figures")
def test_criterion_5_cost_model_reproduction():
    t0 = time.time()
    r = cm.count_network(nw.bcdnet_a_like())
    assert abs(r.bops - 4.82e9) / 4.82e9 < 0.02, r.bops
    assert abs(r.ops - 1.08e8) / 1.08e8 < 0.02, r.ops
    assert abs(r.ops_convfc - 0.87e8) / 0.87e8 < 0.02, r.ops_convfc
    conv = cm.conv_block_ops(512, 7, 7)
    mlp = cm.mlp_block_ops(512, 7, 7)
    for k, target in ((1, 0.39), (2, 0.79), (3, 1.18)):
        ratio = k * mlp / conv
        assert abs(ratio - target) / target < 0.03, (k, ratio)
    assert time.time() - t0 < 10.0


@pytest.fixture(scope="module")
def desk_cifar_data(tmp_path_factory):
    """<=10k-image 10-class set written and read via the CIFAR record
    format (4000 train / 1000 test)."""
    root = tmp_path_factory.mktemp("cifar_fmt")
    dt.write_synthetic_dir(root, 4000, 1000, size=32, channels=3, seed=0)
    return dt.load_dir(root, "train"), dt.load_dir(root, "test")


@pytest.fixture(scope="module")
def micro_pair_data():
    train = dt.synthetic_pairs_dataset(3000, size=16, channels=1, seed=10)
    test = dt.synthetic_pairs_dataset(800, size=16, channels=1, seed=11)
    return train, test


def _micro_two_step(branches, seed, train, init_from_step1=True, iters=350):
    cfg1 = tr.TrainConfig(step=1, iterations=iters, batch_size=64, lr=2e-3,
                          weight_decay=1e-5, augment="roll", seed=seed)
    cfg2 = tr.TrainConfig(step=2, iterations=iters, batch_size=64, lr=1e-3,
                          weight_decay=0.0, augment="roll", seed=seed + 100)
    net = nw.build(nw.desk_micro(branches=branches), seed=seed)
    for cfg in (cfg1, cfg2) if init_from_step1 else (cfg2,):
        tr.train_step(net, train, cfg)
    return net


@pytest.fixture(scope="module")
def psl_from_step1_top1(micro_pair_data):
    """Held-out top-1 of P-S-L desk-micro trained step 1 then step 2, for
    seeds 0-2: 6b's P-S-L side and 6c's from-step-1 side are these runs."""
    train, test = micro_pair_data
    return [tr.evaluate(_micro_two_step(("point", "short", "long"), seed, train),
                        test).top1 for seed in (0, 1, 2)]


@criterion("6a", "two-step desk-tiny reaches >=55% top-1 on the 10-class "
                 "CIFAR-format set within 30 minutes")
def test_criterion_6a_two_step_accuracy(desk_cifar_data):
    train, test = desk_cifar_data
    assert len(train) <= 10_000
    t0 = time.time()
    cfg1 = tr.TrainConfig(step=1, iterations=450, batch_size=64, lr=2e-3,
                          weight_decay=1e-5, augment="roll", seed=0)
    cfg2 = tr.TrainConfig(step=2, iterations=450, batch_size=64, lr=1e-3,
                          weight_decay=0.0, augment="roll", seed=1)
    net = nw.build(nw.desk_tiny(), seed=0)
    for cfg in (cfg1, cfg2):
        tr.train_step(net, train, cfg)
    elapsed = time.time() - t0
    m = tr.evaluate(net, test)
    print(f"\n  desk-tiny two-step: top1={m.top1:.3f} in {elapsed / 60:.1f} min")
    assert m.top1 >= 0.55, m.top1
    assert elapsed < 1800.0, elapsed


@criterion("6b", "P-S-L mean accuracy >= pointwise-only at matched OPs over "
                 "3 seeds")
def test_criterion_6b_psl_beats_pointwise(micro_pair_data, psl_from_step1_top1):
    train, test = micro_pair_data
    psl_spec = nw.desk_micro(branches=("point", "short", "long"))
    ppp_spec = nw.desk_micro(branches=("point", "point", "point"))
    assert cm.count_network(psl_spec).ops == cm.count_network(ppp_spec).ops
    psl = psl_from_step1_top1
    ppp = [tr.evaluate(_micro_two_step(("point", "point", "point"), seed, train),
                       test).top1 for seed in (0, 1, 2)]
    print(f"\n  P-S-L={np.mean(psl):.3f} (seeds {psl}) "
          f"P-only={np.mean(ppp):.3f} (seeds {ppp})")
    assert np.mean(psl) >= np.mean(ppp)


@criterion("6c", "step-2 from step-1 initialization beats random-init step-2 "
                 "across 3 seeds")
def test_criterion_6c_two_step_beats_random_init(micro_pair_data,
                                                 psl_from_step1_top1):
    train, test = micro_pair_data
    wins = []
    for seed, a in zip((0, 1, 2), psl_from_step1_top1):
        b = tr.evaluate(_micro_two_step(("point", "short", "long"), seed,
                                        train, False), test).top1
        print(f"\n  seed {seed}: from-step1={a:.3f} random-init={b:.3f}")
        wins.append(a > b)
    assert all(wins)


@criterion(7, "binarization-error analyzer: exactness, linearity, oracle "
              "agreement, report shape")
def test_criterion_7_binarization_error():
    rng = np.random.default_rng(707)
    sign = np.where(rng.random((3, 18)) < 0.5, 1.0, -1.0)
    assert an.binarization_error(0.625 * sign, "xnor") == 0.0
    w = rng.normal(size=(4, 25))
    base = an.binarization_error(w, "xnor")
    for lam in (0.5, 3.0):
        assert an.binarization_error(lam * w, "xnor") == pytest.approx(
            lam * base, rel=1e-9)
    for _ in range(20):
        co = int(rng.integers(1, 6))
        fan = int(rng.integers(2, 40))
        w = rng.normal(size=(co, fan))
        got = an.binarization_error(w, "xnor")
        total = 0.0
        for j in range(co):
            alpha = sum(abs(v) for v in w[j]) / fan
            for v in w[j]:
                total += abs(alpha * (1.0 if v > 0 else -1.0) - v)
        assert abs(got - total / (co * fan)) < 1e-12
    net = nw.build(nw.desk_tiny(), seed=0)
    rows = an.per_branch_report(net).rows
    n_mlp = sum(ls.kind == "binary-mlp" for ls in net.spec.layers)
    assert len(rows) == 3 * n_mlp


@criterion(8, "checkpoint persistence: bit-exact roundtrip, corruption "
              "rejected by checksum")
def test_criterion_8_persistence(tmp_path):
    rng = np.random.default_rng(808)
    net = nw.build(nw.desk_tiny(), seed=4)
    x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
    ref = net.forward(x, training=False).data
    p = tmp_path / "net.ckpt"
    nw.save(net, p)
    again = nw.load(p)
    assert np.array_equal(again.forward(x, training=False).data, ref)
    assert np.array_equal(again.forward_packed(x), ref)
    blob = bytearray(p.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    p.write_bytes(bytes(blob))
    with pytest.raises(nw.CheckpointChecksumError):
        nw.load(p)
    p.write_bytes(bytes(blob[:200]))
    with pytest.raises(nw.CheckpointError):
        nw.load(p)
