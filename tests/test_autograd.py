import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from conftest import central_difference, channel_last


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


def _in_layout_of(x, values, dtype):
    """values cast to dtype in a new array with x's memory layout."""
    out = np.empty_like(x, dtype=dtype)
    out[...] = values
    return out


def qb_grad_reference(x):
    """The three-pass form of qb_grad, kept as its oracle."""
    x = np.asarray(x)
    g = np.where(x < 0, 2.0 + 2.0 * x, 2.0 - 2.0 * x)
    g = np.where((x >= -1.0) & (x < 1.0), g, 0.0)
    return _in_layout_of(x, g, x.dtype if x.dtype.kind == "f" else np.float64)


def hard_sign_reference(z):
    """The float64-temporary form of hard_sign, kept as its oracle."""
    z = np.asarray(z)
    return _in_layout_of(z, np.where(z > 0, 1.0, -1.0), z.dtype)


def edge_values(dtype):
    """+-0, +-1 and their neighbours, +-inf, NaN and subnormals."""
    f = np.finfo(dtype)
    one, zero = dtype(1), dtype(0)
    vals = [0.0, 1.0, np.inf, f.smallest_subnormal, f.smallest_normal / 2,
            f.smallest_normal, f.eps, 0.5, 2.0, f.max,
            np.nextafter(one, zero), np.nextafter(one, dtype(2)),
            np.nextafter(zero, one)]
    vals = np.array(vals, dtype=dtype)
    return np.concatenate([vals, -vals, np.array([np.nan], dtype=dtype)])


def stride_order(a):
    """The axes longer than 1, from the slowest-varying in memory to the
    fastest: the array's layout, whatever its shape."""
    axes = [i for i in range(a.ndim) if a.shape[i] > 1]
    return sorted(axes, key=lambda i: -abs(a.strides[i]))


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert stride_order(got) == stride_order(want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


class TestSignHelpersOracle:
    """qb_grad and hard_sign equal their multi-pass references bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values(self, dtype):
        x = edge_values(dtype)
        with np.errstate(over="ignore"):
            g = ag.qb_grad(x)
            assert_bit_identical(g, qb_grad_reference(x))
        assert_bit_identical(ag.hard_sign(x), hard_sign_reference(x))
        assert np.all(ag.hard_sign(x)[np.isnan(x)] == -1)
        assert np.all(g[np.isnan(x)] == 0)

    @pytest.mark.parametrize("x", [0.0, -0.0, 1.0, -1.0, 0.25, -0.75, 3.0,
                                   np.nan, -np.inf, np.float32(-0.5),
                                   np.array(0.5, np.float32), np.array(-0.0)])
    def test_scalars_and_zero_d(self, x):
        assert_bit_identical(ag.qb_grad(x), qb_grad_reference(x))
        assert_bit_identical(ag.hard_sign(x), hard_sign_reference(x))

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    def test_integer_input(self, dtype):
        x = np.arange(-3, 4, dtype=dtype)
        assert ag.qb_grad(x).dtype == np.float64
        assert_bit_identical(ag.qb_grad(x), qb_grad_reference(x))
        assert ag.hard_sign(x).dtype == dtype
        assert_bit_identical(ag.hard_sign(x), hard_sign_reference(x))
        assert_bit_identical(ag.qb_grad(0), qb_grad_reference(0))
        assert_bit_identical(ag.hard_sign(-2), hard_sign_reference(-2))

    @given(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                      hnp.array_shapes(min_dims=0, max_dims=3, max_side=9)))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_reference(self, x):
        with np.errstate(over="ignore"):
            assert_bit_identical(ag.qb_grad(x), qb_grad_reference(x))
        assert_bit_identical(ag.hard_sign(x), hard_sign_reference(x))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_channel_last_input_keeps_its_layout(self, dtype):
        """Batch norm and pooling reduce in memory order, so each helper's
        output keeps the layout of its input (here NHWC memory)."""
        if dtype == np.int32:
            flat = np.arange(-60, 60, dtype=dtype)
        else:
            flat = np.resize(edge_values(dtype), 120)
        x = channel_last(flat.reshape(2, 3, 4, 5))
        assert not x.flags.c_contiguous
        with np.errstate(over="ignore"):
            g = ag.qb_grad(x)
            assert_bit_identical(g, qb_grad_reference(x))
        s = ag.hard_sign(x)
        assert_bit_identical(s, hard_sign_reference(x))
        for out in (g, s):
            assert stride_order(out) == stride_order(x) == [0, 2, 3, 1]

    @given(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                      hnp.array_shapes(min_dims=2, max_dims=4, min_side=2,
                                       max_side=5)),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_property_any_axis_order(self, x, rnd):
        axes = list(range(x.ndim))
        rnd.shuffle(axes)
        x = x.transpose(axes)
        with np.errstate(over="ignore"):
            assert_bit_identical(ag.qb_grad(x), qb_grad_reference(x))
        assert_bit_identical(ag.hard_sign(x), hard_sign_reference(x))


def col2im_reference(grad_cols, x_shape, k, stride, pad, oh, ow):
    """The NCHW scatter col2im used before the channel-last buffer, kept as
    its oracle."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    gx = np.zeros((n, c, hp, wp), dtype=grad_cols.dtype)
    gc = grad_cols.reshape(n, oh, ow, c, k, k).transpose(0, 3, 1, 2, 4, 5)
    for ki in range(k):
        for kj in range(k):
            gx[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += \
                gc[:, :, :, :, ki, kj]
    if pad:
        gx = gx[:, :, pad:hp - pad, pad:wp - pad]
    return gx


class TestCol2im:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("hw", [(5, 7), (6, 8)])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_nchw_scatter_reference(self, k, stride, pad, hw, dtype):
        """Same sums in the same tap order: equal bit for bit, signed zeros
        included, on values spread over many binades so that any other
        summation order would round differently."""
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        n, c = 2, 3
        x = rng.normal(size=(n, c) + hw).astype(dtype)
        cols, oh, ow = bt.im2col(x, k, stride, pad)
        g = rng.normal(size=cols.shape) * 10.0 ** rng.integers(-8, 8, size=cols.shape)
        g = g.astype(dtype)
        g[rng.random(g.shape) < 0.1] = -0.0
        got = ag.col2im(g, x.shape, k, stride, pad, oh, ow)
        want = col2im_reference(g, x.shape, k, stride, pad, oh, ow)
        assert stride_order(got) == [0, 2, 3, 1]  # a channel-last view
        assert_bit_identical(np.ascontiguousarray(got), np.ascontiguousarray(want))


def rprelu_reference(x, shift_in, slope, shift_out, g):
    """The three-np.where form of rprelu, kept as its oracle: the forward,
    the gradient reaching x, and the three channel gradients."""
    t = x - shift_in[None, :, None, None]
    pos = t > 0
    out = np.where(pos, t, slope[None, :, None, None] * t) + shift_out[None, :, None, None]
    dt = g * np.where(pos, 1.0, slope[None, :, None, None]).astype(g.dtype)
    return (out, dt, -dt.sum(axis=(0, 2, 3)),
            (g * np.where(pos, 0.0, t)).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3)))


class TestRprelu:
    """rprelu's branch-free selects equal the np.where form bit for bit,
    values and layouts (the channel sums reduce in memory order)."""

    @staticmethod
    def accumulated(data, g):
        t = ag.Tensor(data, requires_grad=True)
        t.accumulate(g)
        return t.grad

    @pytest.mark.parametrize("g_layout", ["nchw", "channel_last"])
    @pytest.mark.parametrize("x_layout", ["nchw", "channel_last"])
    @pytest.mark.parametrize("shape", [(2, 4, 3, 5), (4, 8, 32, 33)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_reference(self, dtype, shape, x_layout, g_layout):
        """The larger shape is past numpy's temporary-reuse size, so both
        ways a product can be laid out are covered."""
        rng = np.random.default_rng(11)
        c = shape[1]
        edges = edge_values(dtype)
        x = rng.normal(size=shape).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        x.flat[::3] = np.resize(edges, x.flat[::3].size)
        g.flat[1::4] = np.resize(edges[::-1], g.flat[1::4].size)
        shift_in = rng.normal(size=c).astype(dtype)
        shift_in[::2] = 0.0  # t = x exactly there, edge values included
        slope = np.resize(np.array([0.25, 0.0, -0.0, -1.5], dtype), c)
        shift_out = np.resize(np.array([0.5, -0.0, 0.0, -2.0], dtype), c)
        if x_layout == "channel_last":
            x = channel_last(x)
        if g_layout == "channel_last":
            g = channel_last(g)
        xs = ag.Tensor(x, requires_grad=True)
        params = [ag.Tensor(p, requires_grad=True) for p in (shift_in, slope, shift_out)]
        with np.errstate(invalid="ignore", over="ignore"):
            y = ag.rprelu(xs, *params)
            y.node.backward(g)
            want = rprelu_reference(x, shift_in, slope, shift_out, g)
        assert_bit_identical(y.data, want[0])
        assert_bit_identical(xs.grad, self.accumulated(x, want[1]))
        for p, w in zip(params, want[2:]):
            assert_bit_identical(p.grad, self.accumulated(p.data, w))
        assert np.isnan(y.data).any() and np.isnan(xs.grad).any()

    def test_select_keeps_every_bit(self):
        """_select against np.where on every class of float32 bits, NaN
        payloads and signed zeros included."""
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2 ** 32, size=4096, dtype=np.uint32).view(np.float32)
        b = rng.integers(0, 2 ** 32, size=4096, dtype=np.uint32).view(np.float32)
        cond = rng.random(4096) < 0.5
        want = np.where(cond, a, b)
        got = ag._select(cond, a, b.copy())
        assert got.tobytes() == want.tobytes()
        assert ag._select(cond, 1.0, b.copy()).tobytes() == np.where(cond, np.float32(1.0), b).tobytes()


class TestAccumulate:
    """The first accumulate equals zeros_like(data) followed by +=, in
    data's dtype and layout, on a leaf and on an op's output alike."""

    @staticmethod
    def reference(data, g):
        grad = np.zeros_like(data)
        grad += g
        return grad

    @pytest.mark.parametrize("node", ["leaf", "interior"])
    @pytest.mark.parametrize("layout", ["nchw", "channel_last", "transposed"])
    @pytest.mark.parametrize("g_kind", ["same", "float64", "broadcast", "scalar"])
    def test_first_touch_matches_zeros_then_add(self, layout, g_kind, node):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        if layout == "channel_last":
            data = channel_last(data)
        elif layout == "transposed":  # every axis reversed in memory
            data = np.ascontiguousarray(data.T).T
        g = {"same": rng.normal(size=data.shape).astype(np.float32),
             "float64": rng.normal(size=data.shape) * (1 + 1e-12),
             "broadcast": rng.normal(size=(1, 3, 1, 1)).astype(np.float32),
             "scalar": np.float64(-0.0)}[g_kind]
        if g_kind != "scalar":
            g.flat[::3] = -0.0
        t = ag.Tensor(data, requires_grad=True)
        if node == "interior":
            t = ag.scale_by(t, 1.0)
            assert t.node.backward is not None and stride_order(t.data) == stride_order(data)
        t.accumulate(g)
        want = self.reference(data, g)
        assert_bit_identical(t.grad, want)
        assert t.grad.dtype == np.float32
        assert stride_order(t.grad) == stride_order(data)
        assert not np.signbit(t.grad[t.grad == 0]).any()  # -0.0 became +0.0
        t.accumulate(g)
        want += g
        assert_bit_identical(t.grad, want)


class TestSignSte:
    def test_forward_bit_and_local_grad(self):
        x = ag.param(np.array([[0.5]]), dtype=np.float64)
        out = ag.binarize(x, None)
        assert out.data[0, 0] == 1.0
        assert np.array_equal(
            bt.unpack(bt.pack(np.array([0.5]), 0.0)), [1.0])
        out.accumulate(np.ones_like(out.data))  # drive the node manually
        out.node.backward(out.grad)
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
        out.node.backward(out.grad)
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
    def test_tensor_added_to_itself_gets_both_gradients(self, rng):
        x = ag.param(rng.normal(size=(3, 2)), dtype=np.float64)
        target = rng.normal(size=(3, 2))
        y = ag.add(x, x)
        _SquaredError.apply(y, target).backward()
        assert np.array_equal(x.grad, 2.0 * (2.0 * (y.data - target)))

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

    def test_conv_block_fd_spot_check(self, rng, frozen_weight_scales):
        """End-to-end surrogate-path gradients on 10 random parameters; the
        frozen_weight_scales fixture holds the weight scales fixed."""
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
            out = net.forward(x, training=False, surrogate=True)
            return float(ag.cross_entropy(out, labels, 0.1).data)

        forward()  # freeze the weight scales at their initial values
        out = net.forward(x, training=False, surrogate=True)
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


def _arrays(a):
    """Weak references to an ndarray and to the array owning its memory."""
    return [weakref.ref(a)] + ([] if a.base is None else [weakref.ref(a.base)])


class TestGraphLifetime:
    """The graph keeps only what backward reads: an op output whose value
    no backward reads dies when the forward drops its Tensor, and backward
    releases every interior node, leaving gradients on the leaves only."""

    @staticmethod
    def _params(rng, c):
        return {"w": ag.param(rng.normal(size=(c, c, 3, 3)) * 0.3, np.float64),
                "thr": ag.param(rng.normal(size=c) * 0.1, np.float64),
                "gamma": ag.param(np.ones(c), np.float64),
                "beta": ag.param(np.zeros(c), np.float64),
                **{k: ag.param(np.full(c, v), np.float64)
                   for k, v in (("a", 0.0), ("slope", 0.25), ("b", 0.0))}}

    @staticmethod
    def _loss(y):
        return ag.cross_entropy(ag.global_avg_pool(y), np.array([0, 1]), 0.1)

    @pytest.mark.parametrize("producer", ["conv2d->batchnorm", "binarize->conv2d", "add->rprelu"])
    def test_output_no_backward_reads_dies_with_its_tensor(self, rng, producer):
        c = 4
        p = self._params(rng, c)
        x = ag.param(rng.normal(size=(2, c, 6, 6)), np.float64)
        stats = (np.zeros(c), np.ones(c))
        if producer == "conv2d->batchnorm":
            mid = ag.conv2d(x, p["w"], pad=1, scale=bt.weight_scale(p["w"].data))
            refs = _arrays(mid.data)
            y = ag.batchnorm(mid, p["gamma"], p["beta"], *stats, training=True)
        elif producer == "binarize->conv2d":
            mid = ag.binarize(x, p["thr"])
            refs = _arrays(mid.data)
            y = ag.conv2d(mid, p["w"], pad=1, scale=bt.weight_scale(p["w"].data),
                          pad_value=-1.0)
        else:
            mid = ag.add(ag.scale_by(x, 0.5), x)
            refs = _arrays(mid.data)
            y = ag.rprelu(mid, p["a"], p["slope"], p["b"])
        del mid
        loss = self._loss(y)
        del y
        assert all(r() is None for r in refs), producer
        loss.backward()
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_backward_releases_interior_nodes_and_keeps_leaf_grads(self, rng):
        c = 4
        p = self._params(rng, c)
        x = ag.param(rng.normal(size=(2, c, 6, 6)), np.float64)
        xb = ag.binarize(x, p["thr"])
        y = ag.conv2d(xb, p["w"], pad=1, scale=bt.weight_scale(p["w"].data), pad_value=-1.0)
        z = ag.batchnorm(y, p["gamma"], p["beta"], np.zeros(c), np.ones(c), training=True)
        out = ag.rprelu(ag.add(z, x), p["a"], p["slope"], p["b"])
        loss = self._loss(out)
        interior = [xb, y, z, out, loss]
        loss.backward()
        for t in interior:
            assert t.grad is None and t.node.backward is None and t.node.parents is None
        for name, t in [("x", x), *p.items()]:
            assert t.grad is not None and t.grad.shape == t.data.shape, name

    def test_root_without_a_graph_rejected(self, rng):
        w = ag.param(rng.normal(size=(4, 3)), dtype=np.float64)
        x = ag.Tensor(rng.normal(size=(2, 4)))
        with ag.no_grad():
            loss = ag.cross_entropy(ag.linear(x, w), np.array([0, 1]))
        with pytest.raises(ValueError, match="root records no graph"):
            loss.backward()
        with pytest.raises(ValueError, match="root records no graph"):
            ag.cross_entropy(x, np.array([0, 1])).backward()
        assert w.grad is None

    def test_released_graph_rejected(self, rng):
        w = ag.param(rng.normal(size=(4, 3)), dtype=np.float64)
        logits = ag.linear(ag.Tensor(rng.normal(size=(2, 4))), w)
        loss = ag.cross_entropy(logits, np.array([0, 1]))
        other = ag.cross_entropy(logits, np.array([1, 1]))  # shares logits' node
        loss.backward()
        g = w.grad.copy()
        for root in (loss, other):
            with pytest.raises(ValueError, match="earlier backward released"):
                root.backward()
        assert np.array_equal(w.grad, g)  # no gradient moved


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
        assert not y.requires_grad and y.node is None and w.requires_grad
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


def conv2d_retained_reference(x, w, g, stride, pad, surrogate, scale):
    """Output and input/weight gradients of a binary conv under upstream g,
    from a sign bank taken once in the forward and reused in the backward."""
    c_out, _, k, _ = w.shape
    cols, oh, ow = bt.im2col(x, k, stride, pad)
    w2d = w.reshape(c_out, -1)
    wq = ag.qb_forward(w2d) if surrogate else ag.hard_sign(w2d)
    out = (cols @ wq.T) * scale[None, :]
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, c_out) * scale[None, :]
    gx = ag.col2im(g2 @ wq, x.shape, k, stride, pad, oh, ow)
    gw = (g2.T @ cols) * ag.qb_grad(w2d)
    return out.reshape(x.shape[0], oh, ow, c_out).transpose(0, 3, 1, 2), gx, gw.reshape(w.shape)


def batchnorm_reference(x, gamma, beta, mean, var, training):
    """The out-of-place batch-norm forward: four full-size temporaries."""
    mu, v = (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))) if training else (mean, var)
    inv_std = 1.0 / np.sqrt(v + ag.BN_EPS)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    return xhat * gamma[None, :, None, None] + beta[None, :, None, None]


class TestGraphMemoryAndEpilogues:
    """A binary conv's graph holds no float copy of its signs, and the
    in-place forward epilogues equal their out-of-place formulas in value
    and dtype."""

    def test_binary_conv_graph_holds_no_sign_bank(self, rng):
        import tracemalloc
        w = ag.param(rng.standard_normal((512, 512, 3, 3), dtype=np.float32))
        x = ag.param(rng.standard_normal((1, 512, 2, 2), dtype=np.float32))
        scale = bt.weight_scale(w.data)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = ag.conv2d(x, w, pad=1, scale=scale)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert y.requires_grad
        assert retained < w.data.nbytes, (retained, w.data.nbytes)

    @pytest.mark.parametrize("surrogate", [False, True])
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
    def test_conv_gradients_equal_retained_sign_reference(self, rng, surrogate, stride, pad):
        x0 = rng.normal(size=(2, 5, 6, 6))
        w0 = rng.uniform(-1.3, 1.3, size=(4, 5, 3, 3))  # some outside the STE support
        scale = bt.weight_scale(w0)
        x, w = ag.param(x0, np.float64), ag.param(w0, np.float64)
        y = ag.conv2d(x, w, stride, pad, surrogate=surrogate, scale=scale)
        g = rng.normal(size=y.shape)
        ag.Tensor(np.asarray((y.data * g).sum()), parents=(y,),
                  backward=lambda _, y=y: y.accumulate(g)).backward()
        out, gx, gw = conv2d_retained_reference(x0, w0, g, stride, pad, surrogate, scale)
        assert_bit_identical(y.data, out)
        assert np.array_equal(x.grad, gx) and x.grad.dtype == gx.dtype
        assert np.array_equal(w.grad, gw) and w.grad.dtype == gw.dtype

    @pytest.mark.parametrize("x_dtype,w_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32)])
    def test_conv_scale_epilogue_equals_out_of_place(self, rng, x_dtype, w_dtype):
        x0 = rng.normal(size=(2, 6, 5, 5)).astype(x_dtype)
        w0 = rng.normal(size=(7, 6, 3, 3)).astype(w_dtype)
        scale = bt.weight_scale(w0)
        y = ag.conv2d(ag.Tensor(x0), ag.Tensor(w0), pad=1, scale=scale)
        cols, oh, ow = bt.im2col(x0, 3, 1, 1)
        want = (cols @ ag.hard_sign(w0.reshape(7, -1)).T) * scale[None, :]
        assert_bit_identical(y.data, want.reshape(2, oh, ow, 7).transpose(0, 3, 1, 2))

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("x_dt,gamma_dt,beta_dt,stat_dt", [
        (np.float32,) * 4, (np.float64,) * 4,
        (np.float32, np.float64, np.float64, np.float32),  # float64 gamma and beta
        (np.float32, np.float32, np.float64, np.float32),  # a rebound float64 beta
        (np.float32, np.float32, np.float32, np.float64)])  # float64 running statistics
    def test_batchnorm_epilogue_equals_out_of_place(self, rng, training, x_dt, gamma_dt,
                                                    beta_dt, stat_dt):
        x0 = rng.normal(size=(3, 4, 5, 5)).astype(x_dt)
        gamma = rng.uniform(0.5, 1.5, 4).astype(gamma_dt)
        beta = rng.normal(size=4).astype(beta_dt)
        mean, var = rng.normal(size=4).astype(stat_dt), rng.uniform(0.5, 2, 4).astype(stat_dt)
        want = batchnorm_reference(x0, gamma, beta, mean, var, training)
        y = ag.batchnorm(ag.Tensor(x0), ag.Tensor(gamma), ag.Tensor(beta),
                         mean.copy(), var.copy(), training)
        assert_bit_identical(y.data, want)

    @pytest.mark.parametrize("scale_dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("k", [37, 64, 200])
    def test_binary_gemm_epilogue_equals_out_of_place(self, rng, scale_dtype, k):
        a = rng.choice([-1, 1], size=(9, k))
        w = rng.choice([-1, 1], size=(5, k))
        scale = rng.uniform(0.1, 3.0, 5).astype(scale_dtype) + 1
        got = bt.binary_gemm(bt.pack(a), bt.pack(w), scale)
        mismatches = (k - a @ w.T) // 2
        f = scale.astype(np.float32) if scale.dtype.kind != "f" else scale
        want = (k - 2 * mismatches.astype(np.int32)).astype(f.dtype) * f[None, :]
        assert_bit_identical(got, want)
