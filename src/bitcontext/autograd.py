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
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .bittensor import DimensionError, broadcast_threshold, im2col

_mode = threading.local()  # per-thread switch set by no_grad


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
    """Derivative of qb_forward: 2+2x on [-1,0), 2-2x on [0,1), 0 outside."""
    x = np.asarray(x)
    g = np.where(x < 0, 2.0 + 2.0 * x, 2.0 - 2.0 * x)
    g = np.where((x >= -1.0) & (x < 1.0), g, 0.0)
    return g.astype(x.dtype if x.dtype.kind == "f" else np.float64)


def qb_backward(x, upstream):
    """Chain the surrogate slope at x with an upstream gradient."""
    return qb_grad(x) * np.asarray(upstream)


def hard_sign(z):
    """Sign with ties to -1: z > 0 -> +1, z <= 0 -> -1."""
    z = np.asarray(z)
    return np.where(z > 0, 1.0, -1.0).astype(z.dtype)


class Tensor:
    """A node in the computation graph; wraps a float ndarray.

    A node that requires no grad keeps neither its parents nor its backward
    closure, so a forward over no-grad parameters builds no graph and frees
    each intermediate as soon as the next op has consumed it.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad or (any(p.requires_grad for p in parents)
                                               and getattr(_mode, "record", True))
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self):
        return Tensor(self.data)

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def reshape(self, *shape):
        src_shape = self.data.shape

        def bwd(g, x=self):
            x.accumulate(g.reshape(src_shape))

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
    """Reverse-topological sweep from a scalar loss node."""
    if root.data.size != 1:
        raise ValueError(f"backward() needs a scalar root, got shape {root.data.shape}")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    root.accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g, a=a, b=b):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(a.data + b.data, parents=(a, b), backward=bwd)


def scale_by(a: Tensor, s: float) -> Tensor:
    def bwd(g, a=a, s=s):
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

    def bwd(g, x=x, w=w, b=b):
        if x.requires_grad:
            x.accumulate(g @ w.data.T)
        if w.requires_grad:
            w.accumulate(x.data.T @ g)
        if b is not None and b.requires_grad:
            b.accumulate(g.sum(axis=0))

    return Tensor(out, parents=parents, backward=bwd)


def binarize(x: Tensor, threshold: Tensor | None, surrogate: bool = False) -> Tensor:
    """Threshold-shifted sign with the polynomial straight-through backward.

    threshold is None (fixed zero) or any shape that
    bittensor.broadcast_threshold accepts, the rule bittensor.pack applies
    too: scalar, per-channel (c,) or per-sample (n, c), broadcast over the
    spatial axes of 4-D input. The backward rule sends qb'(x - t) * g to x
    and the negated channel-sum of the same quantity to the threshold.
    """
    if threshold is None:
        z, thr_shape, parents = x.data, None, (x,)
    else:
        t_b = broadcast_threshold(threshold.data, x.data.shape)
        z, thr_shape, parents = x.data - t_b, t_b.shape, (x, threshold)
    out = qb_forward(z) if surrogate else hard_sign(z)

    def bwd(g, x=x, threshold=threshold, z=z, thr_shape=thr_shape):
        f = qb_grad(z) * g
        if x.requires_grad:
            x.accumulate(f)
        if threshold is not None and threshold.requires_grad:
            gt = _unbroadcast(-f, thr_shape).reshape(threshold.data.shape)
            threshold.accumulate(gt)

    return Tensor(out, parents=parents, backward=bwd)


# ---------------------------------------------------------------------------
# convolution machinery (im2col based; im2col itself lives in bittensor)


def col2im(grad_cols: np.ndarray, x_shape: tuple, k: int, stride: int, pad: int,
           oh: int, ow: int) -> np.ndarray:
    """Scatter-add column gradients back to the (padded, then cropped) input."""
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


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0,
           surrogate: bool = False, scale=None,
           pad_value: float = 0.0) -> Tensor:
    """2-D convolution; a 2-D (c_out, c_in) weight is a 1x1 filter bank.

    scale None means full-precision weights. Otherwise the effective filter
    is scale * sign(w), with the per-filter scale a constant during backward
    (blocks pass the mean absolute shadow weight, bittensor.weight_scale),
    and the shadow weights receive the clipped polynomial STE gradient.
    The GEMM runs on the raw sign values and the scale multiplies the exact
    integer result afterwards, keeping float and bit-packed execution
    bit-identical.
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
    n = x.data.shape[0]
    cols, oh, ow = im2col(x.data, k, stride, pad, pad_value)
    w2d = w.data.reshape(c_out, -1)
    if scale is None:
        wq = w2d
    else:
        wq = qb_forward(w2d) if surrogate else hard_sign(w2d)
        scale = np.asarray(scale, dtype=w2d.dtype)
    out = cols @ wq.T
    if scale is not None:
        out = out * scale[None, :]
    out = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    def bwd(g, x=x, w=w, cols=cols, wq=wq, scale=scale, oh=oh, ow=ow):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, c_out)
        if scale is not None:
            g2 = g2 * scale[None, :]
        if x.requires_grad:
            grad_cols = g2 @ wq
            x.accumulate(col2im(grad_cols, x.data.shape, k, stride, pad, oh, ow))
        if w.requires_grad:
            gw = g2.T @ cols
            if scale is not None:
                gw = gw * qb_grad(w.data.reshape(c_out, -1))
            w.accumulate(gw.reshape(w.data.shape))

    return Tensor(out, parents=(x, w), backward=bwd)


def token_fc(x: Tensor, w: Tensor, surrogate: bool = False,
             scale=None) -> Tensor:
    """Token-wise fully connected layer over channels at every position:
    x is (n, c_in, h, w), w is (c_out, c_in), read by conv2d as a 1x1
    filter bank, so forward, scale and STE backward are conv2d's."""
    return conv2d(x, w, surrogate=surrogate, scale=scale)


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

    def bwd(g, x=x, offsets=offsets, q=q):
        gx = np.empty_like(g)
        for i, (r1, r2) in enumerate(offsets):
            sl = slice(i * q, (i + 1) * q)
            gx[:, sl] = np.roll(g[:, sl], (r1, r2), axis=(2, 3))
        x.accumulate(gx)

    return Tensor(out, parents=(x,), backward=bwd)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var,
              training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel batch norm over NCHW; running stats updated in place."""
    axes = (0, 2, 3)
    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out = xhat * gamma.data[None, :, None, None] + beta.data[None, :, None, None]

    def bwd(g, x=x, gamma=gamma, beta=beta, xhat=xhat, inv_std=inv_std,
            training=training):
        if beta.requires_grad:
            beta.accumulate(g.sum(axis=axes))
        if gamma.requires_grad:
            gamma.accumulate((g * xhat).sum(axis=axes))
        if x.requires_grad:
            gxh = g * gamma.data[None, :, None, None]
            if training:
                m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                s1 = gxh.sum(axis=axes)
                s2 = (gxh * xhat).sum(axis=axes)
                gx = (gxh - (s1[None, :, None, None] + xhat * s2[None, :, None, None]) / m)
                gx = gx * inv_std[None, :, None, None]
            else:
                gx = gxh * inv_std[None, :, None, None]
            x.accumulate(gx)

    return Tensor(out, parents=(x, gamma, beta), backward=bwd)


def rprelu(x: Tensor, shift_in: Tensor, slope: Tensor, shift_out: Tensor) -> Tensor:
    """Per-channel parametric activation: prelu(x - a) + b."""
    t = x.data - shift_in.data[None, :, None, None]
    pos = t > 0
    out = np.where(pos, t, slope.data[None, :, None, None] * t) + \
        shift_out.data[None, :, None, None]

    def bwd(g, x=x, shift_in=shift_in, slope=slope, shift_out=shift_out, t=t, pos=pos):
        dt = g * np.where(pos, 1.0, slope.data[None, :, None, None]).astype(g.dtype)
        if x.requires_grad:
            x.accumulate(dt)
        if shift_in.requires_grad:
            shift_in.accumulate(-dt.sum(axis=(0, 2, 3)))
        if slope.requires_grad:
            slope.accumulate((g * np.where(pos, 0.0, t)).sum(axis=(0, 2, 3)))
        if shift_out.requires_grad:
            shift_out.accumulate(g.sum(axis=(0, 2, 3)))

    return Tensor(out, parents=(x, shift_in, slope, shift_out), backward=bwd)


def avgpool2(x: Tensor) -> Tensor:
    """2x2 average pooling, stride 2 (skip-path downsampling)."""
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise DimensionError(f"avgpool2 needs even spatial dims, got {h}x{w}")
    r = x.data.reshape(n, c, h // 2, 2, w // 2, 2)
    out = r.mean(axis=(3, 5))

    def bwd(g, x=x):
        gx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25
        x.accumulate(gx.astype(x.data.dtype))

    return Tensor(out, parents=(x,), backward=bwd)


def channel_tile(x: Tensor, times: int) -> Tensor:
    """Duplicate the channel axis (skip path for channel-doubling blocks)."""
    out = np.concatenate([x.data] * times, axis=1)

    def bwd(g, x=x, times=times):
        c = x.data.shape[1]
        gx = sum(g[:, i * c:(i + 1) * c] for i in range(times))
        x.accumulate(gx)

    return Tensor(out, parents=(x,), backward=bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: (n, c, h, w) -> (n, c)."""
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def bwd(g, x=x):
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape)
        x.accumulate(gx.astype(x.data.dtype))

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

    def bwd(g, logits=logits, logp=logp, target=target):
        if logits.requires_grad:
            p = np.exp(logp)
            logits.accumulate(((p - target) * (float(g) / n)).astype(logits.data.dtype))

    return Tensor(np.asarray(loss), parents=(logits,), backward=bwd)
