"""Shared scalar-loop oracles and helpers.

The oracles here are deliberately naive (per-element Python loops or dense
float arithmetic) and independent of the packed kernels they check.
"""

import json
import struct
import zlib

import numpy as np
import pytest


def dense_conv_oracle(a, w, scale, stride, pad, pad_value=-1.0):
    """Loop-based dense convolution of +-1 operands with constant padding."""
    n, c, h, wd = a.shape
    co, ci, k, _ = w.shape
    ap = np.full((n, c, h + 2 * pad, wd + 2 * pad), pad_value, dtype=np.float64)
    ap[:, :, pad:pad + h, pad:pad + wd] = a
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for ni in range(n):
        for j in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    patch = ap[ni, :, oy * stride:oy * stride + k,
                               ox * stride:ox * stride + k]
                    out[ni, j, oy, ox] = scale[j] * float((patch * w[j]).sum())
    return out


def channel_last(x):
    """An NCHW view of x's values whose memory is NHWC, as conv outputs are."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def reconstruct_oracle(x, offsets):
    """Position-by-position gather of channel quartiles; x is NCHW ndarray."""
    n, c, h, w = x.shape
    q = c // 4
    out = np.empty_like(x)
    for i, (r1, r2) in enumerate(offsets):
        for y in range(h):
            for xx in range(w):
                sy, sx = (y + r1) % h, (xx + r2) % w
                out[:, i * q:(i + 1) * q, y, xx] = x[:, i * q:(i + 1) * q, sy, sx]
    return out


def binarize_oracle(x, thr=0.0):
    """Elementwise sign with ties to -1."""
    return np.where(np.asarray(x) > thr, 1.0, -1.0)


def central_difference(f, x, idx, h=1e-6):
    v0 = x[idx]
    x[idx] = v0 + h
    fp = f()
    x[idx] = v0 - h
    fm = f()
    x[idx] = v0
    return (fp - fm) / (2.0 * h)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def frozen_weight_scales(monkeypatch):
    """Hold each weight bank's scale at its first computed value.

    The straight-through gradients treat the per-filter scale as a
    constant, so finite-difference checks that nudge a weight in place must
    see it fixed. This replaces blocks.weight_scale, the name every binary
    core calls, with a memo keyed on the weight array's identity; each array
    is kept alive beside its scale so no id is reused during the test.
    """
    from bitcontext import blocks

    compute = blocks.weight_scale
    memo = {}

    def weight_scale(w):
        if id(w) not in memo:
            memo[id(w)] = (w, compute(w))
        return memo[id(w)][1]

    monkeypatch.setattr(blocks, "weight_scale", weight_scale)
    return memo


def rewrite_metadata(path, meta: bytes):
    """Replace a step-0 checkpoint's metadata block with meta and recompute
    its CRC, so the new block gets past the checksum."""
    body = open(path, "rb").read()[:-4]
    old = json.dumps({"binary_weights": True, "step": 0}).encode()
    at = body.index(struct.pack("<I", len(old)) + old)
    body = body[:at] + struct.pack("<I", len(meta)) + meta + body[at + 4 + len(old):]
    with open(path, "wb") as f:
        f.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
