"""Minimal reverse-mode autodiff with straight-through sign estimators.

The operator set covers exactly what the binary network family needs:
dense/conv layers with optional weight binarization, threshold-shifted sign
activations, channel-quartile token shifts, batch norm, parametric
activations, pooling and a smoothed cross-entropy head. A token-wise FC is
a 1x1 conv (token_fc is conv2d on a (c_out, c_in) weight), and the window
gathering (im2col) and threshold rule (broadcast_threshold) come from
bittensor, shared with the packed kernels.

Binarization runs a hard sign in the forward pass (so the bit kernels stay
exact) while the backward pass uses the derivative of the piecewise
polynomial surrogate

    q(x) = -1            x < -1
           2x + x^2     -1 <= x < 0
           2x - x^2      0 <= x < 1
           +1            otherwise

whose slope is 2+2x on [-1, 0), 2-2x on [0, 1) and 0 elsewhere. Passing
``surrogate=True`` to the binarizing ops swaps the forward to q itself;
gradients are then the true gradients of that smooth surrogate, which is
what the finite-difference checks exercise.

The graph keeps only what backward reads: it links Nodes, never Tensors,
and backward releases each interior Node as its sweep passes (see Node).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .bittensor import DimensionError, broadcast_threshold, im2col

_mode = threading.local()  # per-thread switch set by no_grad
BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # batchnorm's running-statistics momentum, variance guard


def qb_forward(x):
    """Piecewise polynomial surrogate of sign(); continuous, range [-1, 1]."""
    x = np.asarray(x)
    out = np.where(
        x < -1.0,
        -1.0,
        np.where(x < 0.0, 2.0 * x + x * x, np.where(x < 1.0, 2.0 * x - x * x, 1.0)),
    )
    return out.astype(x.dtype if x.dtype.kind == "f" else np.float64)


def qb_grad(x):
    """Derivative of qb_forward: max(2 - 2|x|, 0), NaN -> 0, computed in
    one buffer with x's layout (abs, times 2, 2 minus, fmax in place)."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    out = np.abs(x, out=np.empty_like(x))
    np.multiply(out, 2.0, out=out)
    np.subtract(2.0, out, out=out)
    return np.fmax(out, 0.0, out=out)


def qb_backward(x, upstream):
    """Chain the surrogate slope at x with an upstream gradient."""
    return qb_grad(x) * np.asarray(upstream)


def hard_sign(z):
    """Sign with ties and NaN to -1, in z's dtype and layout: 2 * (z > 0) - 1."""
    z = np.asarray(z)
    out = np.greater(z, 0, out=np.empty_like(z))
    out *= 2
    out -= 1
    return out


def _axis_order(a):
    """The axes, slowest-varying first, that np.empty_like(a) lays out."""
    if a.flags.c_contiguous:
        return tuple(range(a.ndim))
    if a.flags.f_contiguous:
        return tuple(range(a.ndim))[::-1]
    return tuple(sorted(range(a.ndim), key=lambda i: -abs(a.strides[i])))


class Node:
    """The graph record of a tensor that requires grad: gradient, parents'
    Nodes, backward closure, and its value's shape, dtype and axis order,
    never the value. A closure captures its parents' Nodes and only the
    arrays it reads, so an output that no backward reads dies with its
    Tensor. backward drops an interior Node's grad, closure and parents
    (to None) as its closure runs; leaves keep their grad."""

    __slots__ = ("grad", "parents", "backward", "shape", "dtype", "order")

    def __init__(self, data, parents, backward):
        self.grad, self.parents, self.backward = None, parents, backward
        self.shape, self.dtype, self.order = data.shape, data.dtype, _axis_order(data)

    def accumulate(self, g):
        if self.grad is None:
            # 0 + g into np.empty_like(data)'s dtype and layout, as zeros_like
            # then += would round it (-0.0 becomes +0.0), in one pass.
            buf = np.empty([self.shape[i] for i in self.order], self.dtype)
            self.grad = np.add(g, 0.0, out=buf.transpose(np.argsort(self.order)))
        else:
            self.grad += g


class Tensor:
    """A float ndarray and, when it requires grad, the Node that records it.
    With no Node, a forward over no-grad parameters builds no graph and frees
    each intermediate as soon as the next op has consumed it."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data)
        nodes = tuple(p.node for p in parents if p.node is not None)
        record = requires_grad or (nodes and getattr(_mode, "record", True))
        self.node = Node(self.data, nodes, backward) if record else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        self.node.accumulate(g)

    def reshape(self, *shape):
        def bwd(g, x=self.node):
            x.accumulate(g.reshape(x.shape))

        return Tensor(self.data.reshape(*shape), parents=(self,), backward=bwd)

    def __add__(self, other):
        return add(self, other)

    def backward(self):
        backward(self)


@contextmanager
def no_grad():
    """Inside the block, ops run in this thread build no graph: their
    outputs require no grad whatever their inputs. Other threads, and the
    parameters' own flags, are untouched."""
    prev = getattr(_mode, "record", True)
    _mode.record = False
    try:
        yield
    finally:
        _mode.record = prev


def param(data, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def backward(root: Tensor):
    """Reverse-topological sweep from a scalar loss, releasing each interior
    Node as it passes: afterwards only leaves hold a .grad, and sweeping the
    released graph again raises ValueError, as does a root with no graph."""
    if root.data.size != 1:
        raise ValueError(f"backward() needs a scalar root, got shape {root.data.shape}")
    if root.node is None:
        raise ValueError("backward() root records no graph: it requires no grad "
                         "(made under no_grad, or from inputs that require none)")
    order = []
    seen = set()
    stack = [(root.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.parents is None:
            raise ValueError("backward() reached a graph that an earlier backward "
                             "released; run the forward again")
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in seen)
    root.node.accumulate(np.ones_like(root.data))
    while order:
        node = order.pop()
        if node.backward is not None:
            grad, bwd = node.grad, node.backward
            node.grad = node.backward = node.parents = None
            if grad is not None:
                bwd(grad)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g, a=a.node, b=b.node):
        if a is not None:
            a.accumulate(_unbroadcast(g, a.shape))
        if b is not None:
            b.accumulate(_unbroadcast(g, b.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward=bwd)


def scale_by(a: Tensor, s: float) -> Tensor:
    def bwd(g, a=a.node, s=s):
        a.accumulate(g * s)

    return Tensor(a.data * s, parents=(a,), backward=bwd)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense layer: out = x @ w (+ b); w stored (in, out)."""
    if x.data.shape[-1] != w.data.shape[0]:
        raise DimensionError(
            f"linear: input width {x.data.shape[-1]} != weight rows {w.data.shape[0]}"
        )
    out = x.data @ w.data
    if b is not None:
        out = out + b.data

    parents = (x, w) if b is None else (x, w, b)

    def bwd(g, x=x.node, w=w.node, b=None if b is None else b.node, xd=x.data, wd=w.data):
        if x is not None:
            x.accumulate(g @ wd.T)
        if w is not None:
            w.accumulate(xd.T @ g)
        if b is not None:
            b.accumulate(g.sum(axis=0))

    return Tensor(out, parents=parents, backward=bwd)


def binarize(x: Tensor, threshold: Tensor | None, surrogate: bool = False) -> Tensor:
    """Threshold-shifted sign with the polynomial straight-through backward.

    threshold is None (fixed zero) or any shape that
    bittensor.broadcast_threshold accepts, the rule bittensor.pack applies
    too: scalar, per-channel (c,) or per-sample (n, c), broadcast over the
    spatial axes of 4-D input. The backward rule sends qb'(x - t) * g to x
    and the negated channel-sum of the same quantity to the threshold.
    The backward holds z = x - t in float: nothing else holds x, so
    rebuilding z from x would hold the same bytes.
    """
    if threshold is None:
        z, thr_shape, parents = x.data, None, (x,)
    else:
        t_b = broadcast_threshold(threshold.data, x.data.shape)
        z, thr_shape, parents = x.data - t_b, t_b.shape, (x, threshold)
    out = qb_forward(z) if surrogate else hard_sign(z)

    def bwd(g, x=x.node, t=None if threshold is None else threshold.node):
        f = qb_grad(z) * g
        if x is not None:
            x.accumulate(f)
        if t is not None:
            t.accumulate(_unbroadcast(-f, thr_shape).reshape(t.shape))

    return Tensor(out, parents=parents, backward=bwd)


# ---------------------------------------------------------------------------
# convolution machinery (im2col based; im2col itself lives in bittensor)


def col2im(grad_cols: np.ndarray, x_shape: tuple, k: int, stride: int, pad: int,
           oh: int, ow: int) -> np.ndarray:
    """Scatter-add column gradients back to the (padded, then cropped) input.

    The rows of grad_cols are (n, oh, ow) positions and its columns
    (c, ki, kj), im2col's order, so the sum runs in a channel-last
    (n, hp, wp, c) buffer: for each tap (ki, kj), in row-major order, one
    strided add of the (n, oh, ow, c) slab at that tap. Each input pixel
    sums its taps in the same order from 0.0 as an NCHW scatter would, so
    the values are identical; the result is the cropped NCHW view of that
    buffer, not a copy.
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    gx = np.zeros((n, hp, wp, c), dtype=grad_cols.dtype)
    gc = grad_cols.reshape(n, oh, ow, c, k, k)
    for ki in range(k):
        for kj in range(k):
            gx[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += \
                gc[..., ki, kj]
    return gx[:, pad:hp - pad, pad:wp - pad].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0,
           surrogate: bool = False, scale=None,
           binary_input: bool = False) -> Tensor:
    """2-D convolution; a 2-D (c_out, c_in) weight is a 1x1 filter bank.

    scale None means full-precision weights. Otherwise the effective filter
    is scale * sign(w), with the per-filter scale a constant during backward
    (blocks pass the mean absolute shadow weight, bittensor.weight_scale),
    and the shadow weights receive the clipped polynomial STE gradient.
    The GEMM runs on the raw sign values and the scale multiplies the exact
    integer result afterwards, keeping float and bit-packed execution
    bit-identical.

    binary_input marks x as signs: padding is -1, as on the packed route,
    and, unless surrogate, the +-1 x is narrowed to int8 once. im2col
    gathers int8 windows and the GEMM widens them to x's dtype: the values
    and layout of a float gather, so the same bits.

    The backward keeps the window matrix cols, or only the int8 x (one
    byte per element, re-gathered and widened for the weight gradient),
    the bank w.data (the parameter's own array) and scale, never a float
    copy of the signs nor the output: it re-derives the signs from the
    bank, as the STE mask qb_grad(w) does.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if w.data.ndim == 2:
        (c_out, c_in), k = w.data.shape, 1
    else:
        c_out, c_in, k, _ = w.data.shape
    if x.data.shape[1] != c_in:
        raise DimensionError(
            f"conv2d: input channels {x.data.shape[1]} != filter channels {c_in}"
        )
    n, dtype = x.data.shape[0], x.data.dtype
    xq = x.data.astype(np.int8) if binary_input and not surrogate else None
    cols, oh, ow = im2col(x.data if xq is None else xq, k, stride, pad,
                          -1 if binary_input else 0)
    cols = cols.astype(dtype, copy=False)  # int8 windows widen; float ones pass through
    signs = qb_forward if surrogate else hard_sign
    filters = (lambda w2d: w2d) if scale is None else signs  # the GEMM's filter rows
    out = cols @ filters(w.data.reshape(c_out, -1)).T
    if scale is not None:
        scale = np.asarray(scale, dtype=w.data.dtype)
        out *= scale  # out's dtype already holds w's, so nothing rounds narrower
    out = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    def bwd(g, x=x.node, w=w.node, wd=w.data, cols=cols if xq is None else None,
            xq=xq, scale=scale, oh=oh, ow=ow):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        if scale is not None:
            g2 = g2 * scale[None, :]
        if x is not None:
            # The column gradient is a temporary, freed before the re-gather
            # below asks for a float window matrix of the same size.
            x.accumulate(col2im(g2 @ filters(wd.reshape(c_out, -1)), x.shape,
                                k, stride, pad, oh, ow))
        if w is not None:
            if cols is None:
                cols = im2col(xq, k, stride, pad, -1)[0].astype(dtype)
            gw = g2.T @ cols
            if scale is not None:
                gw *= qb_grad(wd.reshape(c_out, -1))
            w.accumulate(gw.reshape(wd.shape))

    return Tensor(out, parents=(x, w), backward=bwd)


def token_fc(x: Tensor, w: Tensor, surrogate: bool = False,
             scale=None, binary_input: bool = False) -> Tensor:
    """Token-wise fully connected layer over channels at every position:
    x is (n, c_in, h, w), w is (c_out, c_in), read by conv2d as a 1x1
    filter bank, so forward, scale, STE backward and binary_input (a
    hard-sign x held as int8) are conv2d's."""
    return conv2d(x, w, surrogate=surrogate, scale=scale, binary_input=binary_input)


def quartile_shift(x: Tensor, offsets) -> Tensor:
    """Shift each channel quartile by its (r1, r2) sampling offset.

    The output at position p takes quartile q's input at p + offset[q],
    with recurrent (modular) wraparound; a pure permutation, zero cost in
    the operation accounting.
    """
    c = x.data.shape[1]
    if c % 4 != 0:
        raise DimensionError(f"channels {c} not divisible by 4")
    q = c // 4
    out = np.empty_like(x.data)
    for i, (r1, r2) in enumerate(offsets):
        sl = slice(i * q, (i + 1) * q)
        out[:, sl] = np.roll(x.data[:, sl], (-r1, -r2), axis=(2, 3))

    def bwd(g, x=x.node, offsets=offsets, q=q):
        gx = np.empty_like(g)
        for i, (r1, r2) in enumerate(offsets):
            sl = slice(i * q, (i + 1) * q)
            gx[:, sl] = np.roll(g[:, sl], (r1, r2), axis=(2, 3))
        x.accumulate(gx)

    return Tensor(out, parents=(x,), backward=bwd)


def _into(ufunc, a, b):
    """ufunc(a, b) into a's buffer, or a new array where the result is wider
    than a's dtype (a float64 beta on float32 input)."""
    return ufunc(a, b, out=a if np.result_type(a, b) == a.dtype else None)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var,
              training: bool) -> Tensor:
    """Per-channel batch norm over NCHW; running stats updated in place."""
    axes = (0, 2, 3)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = _into(np.multiply, x.data - mu[None, :, None, None], inv_std[None, :, None, None])
    out = _into(np.add, xhat * gamma.data[None, :, None, None], beta.data[None, :, None, None])

    def bwd(g, x=x.node, gamma=gamma.node, beta=beta.node, gd=gamma.data):
        if beta is not None:
            beta.accumulate(g.sum(axis=axes))
        if gamma is not None:
            gamma.accumulate((g * xhat).sum(axis=axes))
        if x is not None:
            gxh = g * gd[None, :, None, None]
            if training:
                m = x.shape[0] * x.shape[2] * x.shape[3]
                s1 = gxh.sum(axis=axes)
                s2 = (gxh * xhat).sum(axis=axes)
                gx = (gxh - (s1[None, :, None, None] + xhat * s2[None, :, None, None]) / m)
                gx = gx * inv_std[None, :, None, None]
            else:
                gx = gxh * inv_std[None, :, None, None]
            x.accumulate(gx)

    return Tensor(out, parents=(x, gamma, beta), backward=bwd)


def _select(cond, a, out):
    """out = np.where(cond, a, out), in place and without branching.

    A data-dependent mask makes np.where branch per element; this runs on
    the integer view of the bits instead, out ^= (a ^ out) * cond, so every
    value, signed zeros, infinities and NaN payloads included, comes out as
    np.where gives it. a is cast to out's dtype first, as np.where would
    promote it. Returns out, so that a caller can pass it on as the
    temporary that np.where would have returned.
    """
    u = np.dtype(f"u{out.dtype.itemsize}")
    bits = out.view(u)
    diff = np.bitwise_xor(np.asarray(a, dtype=out.dtype).view(u), bits)
    np.multiply(diff, cond, out=diff)
    bits ^= diff
    return out


def rprelu(x: Tensor, shift_in: Tensor, slope: Tensor, shift_out: Tensor) -> Tensor:
    """Per-channel parametric activation: prelu(x - a) + b.

    The three selects run through _select, so the values, and the layouts
    that the channel sums reduce in, are those of the np.where form.
    """
    t = x.data - shift_in.data[None, :, None, None]
    pos = t > 0
    s4 = slope.data[None, :, None, None]
    out = _select(pos, t, s4 * t)
    out += shift_out.data[None, :, None, None]

    def bwd(g, x=x.node, shift_in=shift_in.node, slope=slope.node, shift_out=shift_out.node):
        # np.where(pos, 1.0, slope) in g's dtype and pos's layout, handed to
        # the product as a temporary, as the np.where form's was.
        dt = g * _select(pos, 1.0, np.positive(s4, out=np.empty_like(pos, dtype=g.dtype)))
        if x is not None:
            x.accumulate(dt)
        if shift_in is not None:
            shift_in.accumulate(-dt.sum(axis=(0, 2, 3)))
        if slope is not None:
            slope.accumulate((g * _select(pos, 0.0, np.copy(t))).sum(axis=(0, 2, 3)))
        if shift_out is not None:
            shift_out.accumulate(g.sum(axis=(0, 2, 3)))

    return Tensor(out, parents=(x, shift_in, slope, shift_out), backward=bwd)


def avgpool2(x: Tensor) -> Tensor:
    """2x2 average pooling, stride 2 (skip-path downsampling)."""
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise DimensionError(f"avgpool2 needs even spatial dims, got {h}x{w}")
    r = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    out = r.mean(axis=(3, 5))

    def bwd(g, x=x.node):
        gx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25
        x.accumulate(gx.astype(x.dtype))

    return Tensor(out, parents=(x,), backward=bwd)


def channel_tile(x: Tensor, times: int) -> Tensor:
    """Duplicate the channel axis (skip path for channel-doubling blocks)."""
    out = np.concatenate([x.data] * times, axis=1)

    def bwd(g, x=x.node, times=times):
        c = x.shape[1]
        gx = sum(g[:, i * c:(i + 1) * c] for i in range(times))
        x.accumulate(gx)

    return Tensor(out, parents=(x,), backward=bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: (n, c, h, w) -> (n, c)."""
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def bwd(g, x=x.node):
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), x.shape)
        x.accumulate(gx.astype(x.dtype))

    return Tensor(out, parents=(x,), backward=bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy against (n,) integer labels or an (n, k) matrix of
    target probabilities (soft targets, e.g. a teacher's softmax); either is
    smoothed toward the uniform distribution by ``smoothing``."""
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    n, k = logits.data.shape
    targets = np.asarray(targets)
    if targets.ndim == 2:
        if targets.shape != (n, k):
            raise ValueError(f"soft targets {targets.shape} do not match logits {(n, k)}")
        target = targets.astype(np.float64)
    else:
        if targets.min() < 0 or targets.max() >= k:
            raise ValueError("label out of range")
        target = np.zeros((n, k))
        target[np.arange(n), targets] = 1.0
    target = (1.0 - smoothing) * target + smoothing / k
    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    loss = -(target * logp).sum(axis=1).mean()

    def bwd(g, logits=logits.node, logp=logp, target=target):
        p = np.exp(logp)
        logits.accumulate(((p - target) * (float(g) / n)).astype(logits.dtype))

    return Tensor(np.asarray(loss), parents=(logits,), backward=bwd)
