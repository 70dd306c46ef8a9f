import numpy as np
import pytest

from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from conftest import central_difference


class TestQbForward:
    @pytest.mark.parametrize("x,expected", [
        (-2.0, -1.0), (-1.0, -1.0), (0.5, 0.75), (0.0, 0.0),
        (1.0, 1.0), (3.0, 1.0), (-0.5, -0.75),
    ])
    def test_cases(self, x, expected):
        assert ag.qb_forward(x) == expected

    def test_continuous_and_monotone(self):
        xs = np.linspace(-2.5, 2.5, 5001)
        ys = ag.qb_forward(xs)
        assert np.all(np.diff(ys) >= -1e-12)
        assert np.all(np.abs(np.diff(ys)) < 2e-3)
        assert ys.min() == -1.0 and ys.max() == 1.0

    def test_branches_meet_at_zero(self):
        eps = 1e-9
        assert abs(ag.qb_forward(-eps) - ag.qb_forward(eps)) < 1e-8
        assert ag.qb_grad(0.0) == 2.0
        assert abs(ag.qb_grad(-1e-12) - 2.0) < 1e-9


class TestQbBackward:
    def test_positive_branch(self):
        assert ag.qb_backward(0.5, 1.0) == 1.0

    def test_outside_support(self):
        assert ag.qb_backward(-3.0, 7.0) == 0.0

    def test_zero_exactly_beyond_unit(self):
        xs = np.array([-5.0, -1.0, 1.0, 1.5, 10.0])
        assert np.all(ag.qb_grad(xs) == 0.0)
        inside = np.linspace(-0.999, 0.999, 101)
        assert np.all(ag.qb_grad(inside) > 0.0)

    @pytest.mark.parametrize("x", [-0.7, -0.2, 0.3, 0.8])
    def test_matches_finite_differences(self, x):
        h = 1e-5
        fd = (ag.qb_forward(x + h) - ag.qb_forward(x - h)) / (2 * h)
        got = ag.qb_backward(x, 1.0)
        assert abs(fd - got) / abs(fd) < 1e-4


class TestSignSte:
    def test_forward_bit_and_local_grad(self):
        x = ag.param(np.array([[0.5]]), dtype=np.float64)
        out = ag.binarize(x, None)
        assert out.data[0, 0] == 1.0
        assert np.array_equal(
            bt.unpack(bt.pack(np.array([0.5]), 0.0)), [1.0])
        out.accumulate(np.ones_like(out.data))  # drive the node manually
        out._backward(out.grad)
        assert x.grad[0, 0] == 1.0  # qb'(0.5) = 1

    def test_threshold_boundary_gives_minus_one(self):
        x = ag.Tensor(np.array([[0.5]]))
        thr = ag.param(np.array([0.5]))
        out = ag.binarize(x, thr)
        assert out.data[0, 0] == -1.0

    def test_gradient_vs_surrogate_finite_difference(self, rng):
        x = ag.param(rng.uniform(-0.9, 0.9, size=(4, 6)), dtype=np.float64)
        thr = ag.param(rng.uniform(-0.2, 0.2, size=6), dtype=np.float64)
        labels = np.array([0, 1, 2, 3])

        def forward():
            xb = ag.binarize(x, thr, surrogate=True)
            return ag.cross_entropy(xb, labels, 0.0)

        loss = forward()
        loss.backward()
        for idx in [(0, 0), (2, 3), (3, 5)]:
            fd = central_difference(lambda: float(forward().data), x.data, idx)
            assert abs(fd - x.grad[idx]) / max(abs(fd), 1e-12) < 1e-4
        for j in (0, 3):
            fd = central_difference(lambda: float(forward().data), thr.data, (j,))
            assert abs(fd - thr.grad[j]) / max(abs(fd), 1e-9) < 1e-4

    def test_threshold_grad_is_negated_channel_sum(self, rng):
        x = ag.param(rng.uniform(-0.9, 0.9, size=(2, 3, 4, 4)), dtype=np.float64)
        thr = ag.param(np.zeros(3), dtype=np.float64)
        out = ag.binarize(x, thr, surrogate=True)
        g = rng.normal(size=out.data.shape)
        out.accumulate(g)
        out._backward(out.grad)
        expect = -(ag.qb_grad(x.data) * g).sum(axis=(0, 2, 3))
        assert np.allclose(thr.grad, expect, rtol=1e-12)

    def test_weight_ste_zero_outside_unit_interval(self, rng):
        w = ag.param(rng.uniform(-0.5, 0.5, size=(2, 3, 3, 3)), dtype=np.float64)
        w.data[0, 0, 0, 0] = 1.5
        w.data[1, 2, 2, 2] = -1.25
        x = ag.Tensor(rng.choice([-1.0, 1.0], size=(1, 3, 5, 5)))
        y = ag.conv2d(x, w, stride=1, pad=1, scale=bt.weight_scale(w.data))
        loss = ag.cross_entropy(ag.global_avg_pool(y), np.array([0]), 0.0)
        loss.backward()
        assert w.grad[0, 0, 0, 0] == 0.0
        assert w.grad[1, 2, 2, 2] == 0.0
        assert np.any(w.grad != 0.0)


class TestTokenFc:
    @pytest.mark.parametrize("binary,surrogate", [
        (False, False), (True, False), (True, True)])
    def test_equals_conv2d_with_1x1_filters(self, binary, surrogate, rng):
        x0 = rng.normal(size=(2, 8, 3, 5))
        w0 = rng.uniform(-1.3, 1.3, size=(6, 8))  # some outside the STE support
        scale = bt.weight_scale(w0) if binary else None
        runs = []
        for fc in (lambda x, w: ag.token_fc(x, w, surrogate, scale),
                   lambda x, w: ag.conv2d(x, w.reshape(6, 8, 1, 1),
                                          surrogate=surrogate, scale=scale)):
            x, w = ag.param(x0, np.float64), ag.param(w0, np.float64)
            y = fc(x, w)
            ag.cross_entropy(ag.global_avg_pool(y), np.array([1, 4]), 0.1).backward()
            runs.append((y.data, x.grad, w.grad))
        (y, gx, gw), (y_ref, gx_ref, gw_ref) = runs
        assert np.array_equal(y, y_ref)
        assert np.array_equal(gx, gx_ref)
        assert np.array_equal(gw, gw_ref)
        assert gw.shape == (6, 8) and np.any(gw != 0.0)

    def test_channel_mismatch(self, rng):
        x = ag.Tensor(rng.normal(size=(1, 8, 2, 2)))
        with pytest.raises(bt.DimensionError):
            ag.token_fc(x, ag.param(rng.normal(size=(6, 7))))


class _SquaredError:
    """Quadratic loss helper built on the public Tensor extension point."""

    @staticmethod
    def apply(y: ag.Tensor, target: np.ndarray) -> ag.Tensor:
        diff = y.data - target
        val = np.asarray((diff ** 2).sum())

        def bwd(g, y=y, diff=diff):
            y.accumulate(2.0 * diff * float(g))

        return ag.Tensor(val, parents=(y,), backward=bwd)


class TestBackward:
    def test_linear_layer_quadratic_loss_analytic(self, rng):
        x = ag.Tensor(rng.normal(size=(5, 4)))
        w = ag.param(rng.normal(size=(4, 3)), dtype=np.float64)
        target = rng.normal(size=(5, 3))
        y = ag.linear(x, w)
        loss = _SquaredError.apply(y, target)
        loss.backward()
        assert np.allclose(w.grad, 2.0 * x.data.T @ (y.data - target), rtol=1e-12)

    def test_non_scalar_root_rejected(self, rng):
        t = ag.param(rng.normal(size=(2, 2)), dtype=np.float64)
        with pytest.raises(ValueError):
            ag.backward(ag.linear(ag.Tensor(np.eye(2)), t))

    def test_zero_upstream_gives_zero_gradients(self, rng):
        x = ag.param(np.full((2, 4, 4, 4), 0.3), dtype=np.float64)
        w = ag.param(rng.normal(size=(4, 4, 3, 3)) * 0.2, dtype=np.float64)
        xb = ag.binarize(x, None, surrogate=True)
        y = ag.conv2d(xb, w, pad=1, surrogate=True, scale=bt.weight_scale(w.data))
        loss = ag.scale_by(ag.cross_entropy(ag.global_avg_pool(y),
                                            np.array([0, 1]), 0.0), 0.0)
        loss.backward()
        assert np.all(w.grad == 0.0)
        assert np.all(x.grad == 0.0)

    def test_repeated_backward_accumulates(self, rng):
        w = ag.param(rng.normal(size=(4, 3)), dtype=np.float64)
        x = ag.Tensor(rng.normal(size=(2, 4)))

        def loss():
            return ag.cross_entropy(ag.linear(x, w), np.array([0, 1]), 0.0)

        loss().backward()
        g1 = w.grad.copy()
        loss().backward()
        assert np.allclose(w.grad, 2.0 * g1, rtol=1e-12)

    def test_conv_block_fd_spot_check(self, rng):
        """End-to-end surrogate-path gradients on 10 random parameters."""
        from bitcontext import network as nw
        spec = nw.NetworkSpec("fd", (8, 8), 3, [
            nw.LayerSpec("stem-conv", 3, 8, stride=2),
            nw.LayerSpec("binary-conv-3x3", 8, 8),
            nw.LayerSpec("binary-mlp", 8, 8),
            nw.LayerSpec("classifier", 8, 3),
        ]).validate()
        net = nw.build(spec, seed=5, dtype=np.float64)
        x = rng.uniform(-1, 1, size=(2, 3, 8, 8))
        labels = np.array([0, 2])

        def forward():
            out = net.forward(x, training=False, surrogate=True,
                              freeze_scales=True)
            return float(ag.cross_entropy(out, labels, 0.1).data)

        forward()  # populate frozen scale caches
        out = net.forward(x, training=False, surrogate=True, freeze_scales=True)
        loss = ag.cross_entropy(out, labels, 0.1)
        net.zero_grad()
        loss.backward()
        params = net.params()
        names = sorted(params)
        picked = 0
        for name in rng.permutation(names):
            p = params[name]
            idx = tuple(int(rng.integers(0, s)) for s in p.data.shape)
            got = p.grad[idx]
            fd = central_difference(forward, p.data, idx)
            if abs(fd) < 1e-7 and abs(got) < 1e-7:
                continue  # away-from-boundary coordinates only
            assert abs(fd - got) / max(abs(fd), 1e-9) < 1e-3, (name, idx, fd, got)
            picked += 1
            if picked == 10:
                break
        assert picked == 10


class TestNoGrad:
    def test_records_nothing_in_this_thread_only(self, rng):
        import threading

        w = ag.param(rng.normal(size=(4, 3)), dtype=np.float64)
        x = ag.Tensor(rng.normal(size=(2, 4)))
        seen = {}
        inside = threading.Event()
        done = threading.Event()

        def other():
            inside.wait(timeout=30)
            seen["other"] = ag.linear(x, w).requires_grad
            done.set()

        t = threading.Thread(target=other)
        t.start()
        with pytest.raises(RuntimeError):
            with ag.no_grad():
                y = ag.linear(x, w)
                inside.set()
                assert done.wait(timeout=30)
                raise RuntimeError("leave the block by an error")
        t.join(timeout=30)
        assert not t.is_alive() and seen["other"]
        assert not y.requires_grad and y._parents == () and w.requires_grad
        assert ag.linear(x, w).requires_grad  # restored after the error


class TestOps:
    def test_avgpool2_backward(self, rng):
        x = ag.param(rng.normal(size=(1, 2, 4, 4)), dtype=np.float64)
        y = ag.avgpool2(x)
        loss = _SquaredError.apply(y, np.zeros_like(y.data))
        loss.backward()
        fd = central_difference(
            lambda: float((ag.avgpool2(ag.Tensor(x.data)).data ** 2).sum()),
            x.data, (0, 1, 2, 3))
        assert abs(fd - x.grad[0, 1, 2, 3]) < 1e-6

    def test_channel_tile_backward(self, rng):
        x = ag.param(rng.normal(size=(1, 3, 2, 2)), dtype=np.float64)
        y = ag.channel_tile(x, 2)
        assert y.data.shape == (1, 6, 2, 2)
        loss = _SquaredError.apply(y, np.zeros_like(y.data))
        loss.backward()
        assert np.allclose(x.grad, 4.0 * x.data)

    def test_batchnorm_training_fd(self, rng):
        x = ag.param(rng.normal(size=(3, 4, 2, 2)), dtype=np.float64)
        gm = ag.param(rng.uniform(0.5, 1.5, 4), dtype=np.float64)
        bb = ag.param(rng.normal(size=4) * 0.1, dtype=np.float64)

        def forward():
            y = ag.batchnorm(ag.Tensor(x.data), ag.Tensor(gm.data),
                             ag.Tensor(bb.data), np.zeros(4), np.ones(4),
                             training=True)
            return float((y.data ** 2).sum())

        y = ag.batchnorm(x, gm, bb, np.zeros(4), np.ones(4), training=True)
        loss = _SquaredError.apply(y, np.zeros_like(y.data))
        loss.backward()
        for t, idx in ((x, (1, 2, 0, 1)), (gm, (2,)), (bb, (3,))):
            fd = central_difference(forward, t.data, idx)
            assert abs(fd - t.grad[idx]) / max(abs(fd), 1e-4) < 1e-4

    def test_cross_entropy_uniform_logits(self):
        logits = ag.Tensor(np.zeros((4, 7)))
        loss = ag.cross_entropy(logits, np.array([0, 1, 2, 3]), 0.0)
        assert float(loss.data) == pytest.approx(np.log(7.0), rel=1e-12)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(ValueError):
            ag.cross_entropy(ag.Tensor(np.zeros((1, 3))), np.array([3]), 0.0)

    def test_cross_entropy_soft_targets_float64_reference(self, rng):
        z = rng.normal(size=(5, 4)).astype(np.float32)
        t = rng.uniform(size=(5, 4))
        t /= t.sum(axis=1, keepdims=True)
        logits = ag.param(z, dtype=np.float32)
        loss = ag.cross_entropy(logits, t.astype(np.float32), 0.1)
        loss.backward()
        z64 = z.astype(np.float64)
        logp = z64 - np.log(np.exp(z64).sum(axis=1, keepdims=True))
        target = 0.9 * t.astype(np.float32).astype(np.float64) + 0.1 / 4
        ref = -(target * logp).sum(axis=1).mean()
        assert float(loss.data) == pytest.approx(ref, rel=1e-12)
        ref_grad = (np.exp(logp) - target) / 5
        assert np.allclose(logits.grad, ref_grad, rtol=1e-6, atol=1e-8)

    def test_cross_entropy_one_hot_soft_targets_equal_labels(self, rng):
        labels = np.array([2, 0, 1])
        for smoothing in (0.0, 0.2):
            a = ag.param(rng.normal(size=(3, 3)), dtype=np.float64)
            b = ag.param(a.data.copy(), dtype=np.float64)
            la = ag.cross_entropy(a, labels, smoothing)
            lb = ag.cross_entropy(b, np.eye(3)[labels], smoothing)
            la.backward()
            lb.backward()
            assert la.data == lb.data
            assert np.array_equal(a.grad, b.grad)

    def test_cross_entropy_soft_target_shape_mismatch(self):
        with pytest.raises(ValueError):
            ag.cross_entropy(ag.Tensor(np.zeros((2, 3))), np.full((2, 4), 0.25))
