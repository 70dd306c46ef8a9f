"""Contextual building blocks: long-short-range sampling, token
reconstruction, three-branch binary MLP blocks, binary convolution blocks
and dynamic threshold/bias embeddings.

Every block has one arithmetic definition, forward(x, st). The flag
st.packed swaps only the binary core of the binary conv and MLP blocks:

  float   -- ag.binarize -> ag.conv2d, or ag.binarize -> quartile_shift
             -> token_fc, on +-1 float tensors (or the polynomial
             surrogate when st.surrogate); training and gradient checks
             run here. A token-wise FC branch is a binary 1x1 conv:
             token_fc is ag.conv2d reading the (c, c) weight as k=1.
  packed  -- pack -> binary_conv2d, or pack -> reconstruct_* -> binary_conv2d
             with the (c, c) weight as a 1x1 bank, on XNOR/popcount words.

Both routes share the binary-core rules: ag.binarize and pack check and
broadcast thresholds with bittensor.broadcast_threshold, and ag.conv2d and
binary_conv2d gather windows with bittensor.im2col. Dynamic thresholds and
biases, norm, shortcut, activation, stem and classifier run the same
autograd ops on both routes. infer_packed(x) is forward on the packed route
under ag.no_grad, so it builds no graph.
Each binary core applies the per-filter weight scale _scale(w, st), a pure
function of the shadow weights computed where the core runs and never
cached, so no block holds state beyond its parameters and buffers.
Because the binary GEMMs produce exact integers before any float scaling,
the two routes agree bit for bit in evaluation mode; tests pin that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
# binary_gemm is not called here; perfbench's tracer wraps it under this name.
from .bittensor import (BitTensor, DimensionError, WORD_BITS, _pack_last_axis,
                        binary_conv2d, binary_gemm, pack, pack_filters, weight_scale)

SHORT_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))

BRANCH_KINDS = ("point", "short", "long")


def long_offsets(h: int, w: int):
    """Half-resolution offsets; floor division keeps odd extents wrappable."""
    return ((-(h // 2), 0), (h // 2, 0), (0, -(w // 2)), (0, w // 2))


def sample_index(pos, off, h: int, w: int):
    """Shifted token index with recurrent (modular) wraparound."""
    return ((pos[0] + off[0]) % h, (pos[1] + off[1]) % w)


def _reconstruct(a_b: BitTensor, offsets) -> BitTensor:
    if len(a_b.shape) != 4:
        raise DimensionError("token reconstruction expects a packed NCHW tensor, "
                             f"got shape {a_b.shape}")
    n, c, h, w = a_b.shape
    if c % 4 != 0:
        raise DimensionError(f"channels {c} not divisible by 4")
    # (4, n_words) masks: row i holds the bits of channel quartile i
    quartile = np.arange(a_b.n_words * WORD_BITS) // (c // 4)
    masks = _pack_last_axis(quartile == np.arange(4)[:, None])
    out = np.zeros_like(a_b.words)
    for i, (r1, r2) in enumerate(offsets):
        rolled = np.roll(a_b.words, (-r1, -r2), axis=(1, 2))
        out |= rolled & masks[i][None, None, None, :]
    return BitTensor(a_b.shape, out, a_b.nbits)


def reconstruct_short(a_b: BitTensor) -> BitTensor:
    """Rebuild tokens from the four one-step neighbours, one per channel
    quartile; a zero-parameter, zero-FLOP bit permutation."""
    return _reconstruct(a_b, SHORT_OFFSETS)


def reconstruct_long(a_b: BitTensor) -> BitTensor:
    """Half-resolution counterpart of reconstruct_short."""
    n, c, h, w = a_b.shape
    if h < 2 or w < 2:
        raise DimensionError(f"long-range reconstruction needs h,w >= 2, got {h}x{w}")
    return _reconstruct(a_b, long_offsets(h, w))


@dataclass
class ForwardState:
    """Execution flags threaded through block forwards."""

    training: bool = False
    binary_weights: bool = True
    surrogate: bool = False
    packed: bool = False


def _scale(w: Tensor, st: ForwardState):
    """Per-filter scale of a binarized weight bank, None in real-weight mode.
    weight_scale is resolved through this module's globals at each call, so
    a wrapper installed on blocks.weight_scale sees every scale."""
    return weight_scale(w.data) if st.binary_weights else None


def _uniform(rng, shape, fan_in, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _Layer:
    """Common parameter plumbing for blocks."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}

    def _add_param(self, name, data):
        t = ag.param(data, dtype=data.dtype)
        self._params[name] = t
        return t

    def _add_buffer(self, name, data):
        self._buffers[name] = data
        return data

    def params(self):
        return self._params

    def buffers(self):
        return self._buffers

    def infer_packed(self, x: np.ndarray) -> np.ndarray:
        """Evaluation forward on the bit-packed kernels; valid once weights
        are binarized. It runs under ag.no_grad, so no graph is kept and
        concurrent callers never touch the parameters' flags."""
        with ag.no_grad():
            return self.forward(Tensor(x), ForwardState(packed=True)).data


class _NormAct:
    """Mixin: batch norm + per-channel parametric activation tail."""

    def _init_norm(self, c, dtype):
        self.bn_gamma = self._add_param("bn_gamma", np.ones(c, dtype=dtype))
        self.bn_beta = self._add_param("bn_beta", np.zeros(c, dtype=dtype))
        self.running_mean = self._add_buffer("running_mean", np.zeros(c, dtype=dtype))
        self.running_var = self._add_buffer("running_var", np.ones(c, dtype=dtype))

    def _init_norm_act(self, c, dtype):
        self._init_norm(c, dtype)
        self.act_shift_in = self._add_param("act_shift_in", np.zeros(c, dtype=dtype))
        self.act_slope = self._add_param("act_slope", np.full(c, 0.25, dtype=dtype))
        self.act_shift_out = self._add_param("act_shift_out", np.zeros(c, dtype=dtype))

    def _norm(self, y: Tensor, st: ForwardState) -> Tensor:
        return ag.batchnorm(y, self.bn_gamma, self.bn_beta, self.running_mean,
                            self.running_var, training=st.training)

    def _act(self, y: Tensor) -> Tensor:
        return ag.rprelu(y, self.act_shift_in, self.act_slope, self.act_shift_out)


class StemConv(_Layer, _NormAct):
    """Full-precision entry convolution + batch norm (optional 2x pool)."""

    def __init__(self, c_in, c_out, stride, rng, dtype=np.float32, kernel=3,
                 pool=False):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride, self.pool = kernel, stride, pool
        fan_in = c_in * kernel * kernel
        self.w = self._add_param("w", _uniform(rng, (c_out, c_in, kernel, kernel),
                                               fan_in, dtype))
        self._init_norm(c_out, dtype)

    def forward(self, x: Tensor, st: ForwardState) -> Tensor:
        y = ag.conv2d(x, self.w, stride=self.stride, pad=self.kernel // 2)
        y = self._norm(y, st)
        if self.pool:
            y = ag.avgpool2(y)
        return y


class DynamicEmbedding(_Layer):
    """Input-conditioned threshold shift and output compensation.

    From the globally pooled input: alpha = GAP(x) W1 + b_a (bottleneck
    width c/4), a shift alpha W2 of the block's own thresholds thr, and a
    post-conv bias gamma = alpha W3 + b_g. A dynamic block is its plain
    block plus this embedding; W2, W3 and every bias start at zero, so a
    fresh one leaves the plain block's function untouched.
    """

    def __init__(self, c_in, c_out, rng, dtype=np.float32):
        super().__init__()
        if c_in % 4 != 0:
            raise DimensionError(f"dynamic embedding needs c_in % 4 == 0, got {c_in}")
        cb = c_in // 4
        self.w1 = self._add_param("w1", _uniform(rng, (c_in, cb), c_in, dtype))
        self.b_alpha = self._add_param("b_alpha", np.zeros(cb, dtype=dtype))
        self.w2 = self._add_param("w2", np.zeros((cb, c_in), dtype=dtype))
        self.w3 = self._add_param("w3", np.zeros((cb, c_out), dtype=dtype))
        self.b_gamma = self._add_param("b_gamma", np.zeros(c_out, dtype=dtype))

    def alpha(self, x: Tensor) -> Tensor:
        return ag.linear(ag.global_avg_pool(x), self.w1, self.b_alpha)

    def thresholds(self, alpha: Tensor) -> Tensor:
        return ag.linear(alpha, self.w2)

    def gamma(self, alpha: Tensor) -> Tensor:
        return ag.linear(alpha, self.w3, self.b_gamma)


def _shortcut(x: Tensor, c_in, c_out, stride) -> Tensor:
    if stride == 2:
        x = ag.avgpool2(x)
    if c_out != c_in:
        if c_out % c_in != 0:
            raise DimensionError(
                f"skip path cannot map {c_in} -> {c_out} channels"
            )
        x = ag.channel_tile(x, c_out // c_in)
    return x


class BinaryConvBlock(_Layer, _NormAct):
    """Sign-binarize, binary conv, optional dynamic bias, norm, skip, act.

    Thresholds are a learnable per-channel vector thr, shifted per sample by
    a DynamicEmbedding when ``dynamic``. Real-weight mode (two-step training,
    step one) runs the same wiring with full-precision filters and no scale.
    """

    def __init__(self, c_in, c_out, kernel, stride, rng, dtype=np.float32,
                 dynamic=False):
        super().__init__()
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        fan_in = c_in * kernel * kernel
        self.w = self._add_param("w", _uniform(rng, (c_out, c_in, kernel, kernel),
                                               fan_in, dtype))
        self.thr = self._add_param("thr", np.zeros(c_in, dtype=dtype))
        self.dynamic = None
        if dynamic:
            self.dynamic = DynamicEmbedding(c_in, c_out, rng, dtype)
            for name, p in self.dynamic.params().items():
                self._params[f"dyn.{name}"] = p
        self._init_norm_act(c_out, dtype)

    def forward(self, x: Tensor, st: ForwardState) -> Tensor:
        thr, gamma = self.thr, None
        if self.dynamic is not None:
            alpha = self.dynamic.alpha(x)
            thr = self.dynamic.thresholds(alpha) + self.thr
            gamma = self.dynamic.gamma(alpha)
        pad = self.kernel // 2
        if st.packed:
            y = Tensor(binary_conv2d(pack(x.data, thr.data), pack_filters(self.w.data),
                                     _scale(self.w, st), stride=self.stride, pad=pad))
        else:
            xb = ag.binarize(x, thr, surrogate=st.surrogate)
            y = ag.conv2d(xb, self.w, stride=self.stride, pad=pad,
                          surrogate=st.surrogate, scale=_scale(self.w, st),
                          pad_value=-1.0)
        if gamma is not None:
            y = y + gamma.reshape(gamma.shape[0], self.c_out, 1, 1)
        y = self._norm(y, st)
        y = y + _shortcut(x, self.c_in, self.c_out, self.stride)
        return self._act(y)


class BinaryMlpBlock(_Layer, _NormAct):
    """Three token-wise binary MLP branches over reconstructed tokens.

    All branches binarize the input against one shared threshold vector.
    Each branch models one sampling range (pointwise / short / long); branch
    outputs are summed, then norm, identity skip and activation follow. The
    branch assignment is configurable so pointwise-only or long-only
    ablations reuse the same block.
    """

    def __init__(self, c, rng, dtype=np.float32, branches=BRANCH_KINDS):
        super().__init__()
        if c % 4 != 0:
            raise DimensionError(f"MLP block needs channels % 4 == 0, got {c}")
        if len(branches) != 3 or any(b not in BRANCH_KINDS for b in branches):
            raise ValueError(f"an MLP block takes 3 branches of {BRANCH_KINDS}, "
                             f"got {tuple(branches)!r}")
        self.c = c
        self.branches = tuple(branches)
        self.ws = [self._add_param(f"w{i}", _uniform(rng, (c, c), c, dtype))
                   for i in range(3)]
        self.thr = self._add_param("thr", np.zeros(c, dtype=dtype))
        self._init_norm_act(c, dtype)

    def _branch(self, src, kind, w: Tensor, st: ForwardState) -> Tensor:
        """Token-wise binary FC over one sampling range's tokens; src is the
        packed input on the packed route, the binarized tensor otherwise."""
        if st.packed:
            if kind == "short":
                src = reconstruct_short(src)
            elif kind == "long":
                src = reconstruct_long(src)
            return Tensor(binary_conv2d(src, pack_filters(w.data[:, :, None, None]),
                                        _scale(w, st)))
        if kind != "point":
            offs = SHORT_OFFSETS if kind == "short" else long_offsets(*src.shape[2:])
            src = ag.quartile_shift(src, offs)
        return ag.token_fc(src, w, surrogate=st.surrogate, scale=_scale(w, st))

    def forward(self, x: Tensor, st: ForwardState) -> Tensor:
        if st.packed:
            src = pack(x.data, self.thr.data)
        else:
            src = ag.binarize(x, self.thr, surrogate=st.surrogate)
        y = None
        for kind, w in zip(self.branches, self.ws):
            out = self._branch(src, kind, w, st)
            y = out if y is None else y + out
        y = self._norm(y, st)
        y = y + x
        return self._act(y)


class Classifier(_Layer):
    """Global average pool + full-precision linear head."""

    def __init__(self, c_in, classes, rng, dtype=np.float32):
        super().__init__()
        self.c_in, self.classes = c_in, classes
        self.w = self._add_param("w", _uniform(rng, (c_in, classes), c_in, dtype))
        self.b = self._add_param("b", np.zeros(classes, dtype=dtype))

    def forward(self, x: Tensor, st: ForwardState) -> Tensor:
        return ag.linear(ag.global_avg_pool(x), self.w, self.b)
