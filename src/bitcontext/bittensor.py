"""Bit-packed binary tensors and the XNOR/popcount compute kernels.

Sign encoding: bit=1 means +1, bit=0 means -1. Binarization follows the
convention value <= threshold -> -1 (so exact zeros under a zero threshold
binarize to -1). Bits are packed 64 per machine word along a single axis,
LSB-first within each word: logical index i lives in word i // 64 at bit
position i % 64. Padding bits past the logical extent are kept at zero and
kernels mask the final word, so results never depend on padding content.

Layouts:
  2-D (rows, cols)   -> words shape (rows, W), packed along cols
  4-D (n, c, h, w)   -> words shape (n, h, w, W), packed along channels

Two rules here serve both execution routes, so the float graph and the
packed kernels cannot drift apart: broadcast_threshold checks and shapes
binarization thresholds for pack and autograd.binarize, and im2col gathers
convolution windows for binary_conv2d and autograd.conv2d.

The GEMM behind binary_gemm and binary_conv2d counts mismatches one word
at a time. Both operands are transposed to word-major copies, and the
output rows are cut into tiles of about TILE_ELEMS outputs. For each
word, a tile's activation words are XORed against every filter's word
into one reused uint64 buffer, popcounted into a uint8 buffer, and added
into the tile's accumulator. The accumulator is uint16 while the fan-in
is at most 65,535 bits and int32 beyond, so counts never wrap. Tiles run
on a module-level thread pool with one worker per usable core. Workers
run only numpy ufuncs, which release the GIL, on disjoint rows of the
result, so the counts are exact and do not depend on the core count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

WORD_BITS = 64
TILE_ELEMS = 1 << 16  # outputs per gemm row tile: 512 KB of XOR words, cache-sized
_USABLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)


def _new_pool():
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=_USABLE_CORES, thread_name_prefix="bitcontext-gemm")


_new_pool()
if hasattr(os, "register_at_fork"):  # a forked child has none of the workers
    os.register_at_fork(after_in_child=_new_pool)


class DimensionError(ValueError):
    """Shape or length mismatch between binary operands."""


def _pack_last_axis(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., n) array of 0/1 values into (..., ceil(n/64)) uint64."""
    packed_bytes = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    n_bytes = packed_bytes.shape[-1]
    word_bytes = 8 * ((n_bytes + 7) // 8)
    if word_bytes != n_bytes:
        pad = np.zeros(bits.shape[:-1] + (word_bytes - n_bytes,), dtype=np.uint8)
        packed_bytes = np.concatenate([packed_bytes, pad], axis=-1)
    return np.ascontiguousarray(packed_bytes).view(np.uint64)


def _unpack_last_axis(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of _pack_last_axis; returns uint8 bits of shape (..., nbits)."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little", count=nbits)
    return bits


def _tail_mask(nbits: int) -> np.uint64:
    rem = nbits % WORD_BITS
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


@dataclass
class BitTensor:
    """Sign-packed binary tensor.

    shape is the logical extent; words holds the packed bits (see module
    docstring for the axis mapping); nbits is the number of valid bits along
    the packed axis.
    """

    shape: tuple
    words: np.ndarray
    nbits: int

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)

    @property
    def n_words(self) -> int:
        return self.words.shape[-1]

    def unpack(self) -> np.ndarray:
        return unpack(self)

    def padding_is_clean(self) -> bool:
        """True when every bit past nbits is zero (constructor guarantee)."""
        mask = _tail_mask(self.nbits)
        if mask == np.uint64(0xFFFFFFFFFFFFFFFF):
            return True
        tail = self.words[..., -1]
        return bool(np.all(tail & ~mask == 0))

    def copy(self) -> "BitTensor":
        return BitTensor(self.shape, self.words.copy(), self.nbits)


def broadcast_threshold(t: np.ndarray, shape: tuple) -> np.ndarray:
    """Check a binarization threshold against an input shape and reshape it
    to broadcast; the one rule behind pack and autograd.binarize.

    The threshold is a scalar, a per-channel vector or a per-sample matrix.
    For NCHW input those are (), (c,) and (n, c), the vectors extending over
    the spatial axes; for 1-D or 2-D input they are (), (k,) and the input
    shape itself, with k the last axis.
    """
    t = np.asarray(t)
    if len(shape) == 4:
        n, c = shape[:2]
        if t.shape in ((), (c,), (n, c)):
            return t.reshape((n if t.ndim == 2 else 1, c, 1, 1)) if t.ndim else t
    elif len(shape) in (1, 2):
        if t.shape in ((), shape[-1:], shape):
            return t
    else:
        raise DimensionError(f"unsupported rank {len(shape)} for binarization")
    raise DimensionError(f"threshold shape {t.shape} incompatible with input {shape}")


def pack(x: np.ndarray, threshold=0.0) -> BitTensor:
    """Binarize a real tensor against its thresholds and pack it.

    x may be 1-D, 2-D (rows, cols) or 4-D NCHW; broadcast_threshold gives
    the accepted threshold shapes. A value strictly above its threshold
    packs as bit 1 (+1); everything else, including exact ties, packs as
    bit 0 (-1).
    """
    x = np.asarray(x)
    threshold = np.asarray(threshold, dtype=x.dtype if x.dtype.kind == "f" else np.float64)
    bits = x > broadcast_threshold(threshold, x.shape)
    if x.ndim == 4:  # packed along channels, channel-last
        return BitTensor(x.shape, _pack_last_axis(bits.transpose(0, 2, 3, 1)), x.shape[1])
    return BitTensor(x.shape, _pack_last_axis(bits), x.shape[-1])


def unpack(b: BitTensor) -> np.ndarray:
    """Expand packed signs back to a float32 tensor of -1/+1 values."""
    bits = _unpack_last_axis(b.words, b.nbits)
    out = bits.astype(np.float32) * 2.0 - 1.0
    if len(b.shape) == 4:
        return out.transpose(0, 3, 1, 2)  # back to NCHW
    return out.reshape(b.shape)


def pack_bits(bits: np.ndarray) -> BitTensor:
    """Pack an explicit 0/1 array along its last axis (no thresholding)."""
    return BitTensor(bits.shape, _pack_last_axis(bits), bits.shape[-1])


def xnor_dot(a: BitTensor, w: BitTensor) -> int:
    """Integer dot product of two packed sign vectors.

    Equals 2 * popcount(XNOR(a, w)) - n over the n valid bits, which is the
    exact dot product of the corresponding +-1 vectors.
    """
    if a.nbits != w.nbits:
        raise DimensionError(f"valid-bit counts differ: {a.nbits} vs {w.nbits}")
    aw = a.words.reshape(-1)
    ww = w.words.reshape(-1)
    if aw.shape != ww.shape:
        raise DimensionError("word counts differ")
    x = aw ^ ww
    x[-1] &= _tail_mask(a.nbits)  # mask: result independent of padding bits
    mismatches = int(np.bitwise_count(x).sum())
    return a.nbits - 2 * mismatches


def _xor_popcount_gemm(a_words: np.ndarray, w_words: np.ndarray, nbits: int) -> np.ndarray:
    """Mismatch counts between every row pair: (R, W) x (C, W) -> (R, C) int32,
    by the tiled word loop the module docstring describes."""
    r, n_words = a_words.shape
    c = w_words.shape[0]
    mask = _tail_mask(nbits)
    a_t = a_words.T.copy()  # (W, R); copies, so masking never writes the caller's words
    w_t = w_words.T.copy()  # (W, C)
    a_t[-1] &= mask
    w_t[-1] &= mask
    acc_dtype = np.uint16 if n_words * WORD_BITS <= np.iinfo(np.uint16).max else np.int32
    tile = max(1, TILE_ELEMS // max(c, 1))
    out = np.empty((r, c), dtype=np.int32)

    def run_tile(lo):
        hi = min(lo + tile, r)
        x = np.empty((hi - lo, c), dtype=np.uint64)
        ones = np.empty((hi - lo, c), dtype=np.uint8)
        acc = np.zeros((hi - lo, c), dtype=acc_dtype)
        for j in range(n_words):
            np.bitwise_xor(a_t[j, lo:hi, None], w_t[j], out=x)
            np.bitwise_count(x, out=ones)
            np.add(acc, ones, out=acc)
        out[lo:hi] = acc

    starts = range(0, r, tile)
    if len(starts) == 1:
        run_tile(0)
    else:
        list(_POOL.map(run_tile, starts))  # re-raises a tile's exception
    return out


def binary_gemm(a: BitTensor, w: BitTensor, scale: np.ndarray) -> np.ndarray:
    """Scaled binary matrix product: out[i, j] = scale[j] * <a_i, w_j>.

    a has logical shape (rows, k); w holds the output filters as rows,
    logical shape (cols, k). The inner product runs over the k packed sign
    bits via XOR + popcount; the float scale is applied after the exact
    integer dot, so results match a dense float multiply of the unpacked
    operands bit for bit.
    """
    if len(a.shape) != 2 or len(w.shape) != 2:
        raise DimensionError("binary_gemm expects 2-D operands")
    if a.nbits != w.nbits:
        raise DimensionError(f"inner dimensions differ: {a.nbits} vs {w.nbits}")
    scale = np.asarray(scale)
    if scale.dtype.kind != "f":
        scale = scale.astype(np.float32)
    if scale.shape != (w.shape[0],):
        raise DimensionError(
            f"scale length {scale.shape} != output columns {w.shape[0]}"
        )
    mismatches = _xor_popcount_gemm(
        a.words.reshape(a.shape[0], -1), w.words.reshape(w.shape[0], -1), a.nbits
    )
    dots = (a.nbits - 2 * mismatches).astype(scale.dtype)
    return dots * scale[None, :]


def im2col(x: np.ndarray, k: int, stride: int, pad: int, pad_value=0):
    """Gather k x k windows of an NCHW array into rows of length c*k*k
    (channel-major, then kernel row, then kernel column), one row per
    output position; padding pixels take pad_value. Returns (cols, oh, ow).

    Both routes gather windows here: autograd.conv2d on float values and
    binary_conv2d on 0/1 bits, where padding 0 is -1 in the sign domain.
    """
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   constant_values=pad_value)
    if x.shape[2] < k or x.shape[3] < k:
        raise DimensionError(f"kernel {k} exceeds padded input {x.shape[2]}x{x.shape[3]}")
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (n, c, oh, ow, k, k)
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * k * k)
    return np.ascontiguousarray(cols), oh, ow


def binary_conv2d(a: BitTensor, w: BitTensor, scale: np.ndarray,
                  stride: int = 1, pad: int = 0) -> np.ndarray:
    """Binary 2-D convolution via im2col + binary_gemm.

    a is a packed NCHW activation; w holds c_out filters as packed rows of
    length c_in*k*k (channel-major, then kernel row, then kernel column).
    Padding pixels enter as -1. Returns float32 (n, c_out, oh, ow).
    """
    if len(a.shape) != 4:
        raise DimensionError("binary_conv2d expects a packed NCHW activation")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n, c, h, w_in = a.shape
    c_out = w.shape[0]
    fan_in = w.nbits
    k2 = fan_in // c
    k = int(round(k2 ** 0.5))
    if c * k * k != fan_in:
        raise DimensionError(
            f"filter fan-in {fan_in} is not c_in*k*k for c_in={c}"
        )
    bits = _unpack_last_axis(a.words, a.nbits).transpose(0, 3, 1, 2)  # (n,c,h,w)
    cols, oh, ow = im2col(bits, k, stride, pad)
    a_rows = pack_bits(cols)
    out = binary_gemm(a_rows, w, scale)  # (n*oh*ow, c_out)
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)


def weight_scale(w: np.ndarray) -> np.ndarray:
    """Per-filter scale factors: L1 norm over the fan-in divided by fan-in,
    one per output channel (axis 0)."""
    w = np.asarray(w)
    if w.size == 0:
        raise ValueError("empty filter bank")
    dtype = w.dtype if w.dtype.kind == "f" else np.float32
    return np.abs(w.reshape(w.shape[0], -1)).mean(axis=1).astype(dtype)


def pack_filters(w: np.ndarray, threshold=0.0) -> BitTensor:
    """Pack a (c_out, c_in, k, k) or (c_out, fan_in) filter bank row-wise."""
    w = np.asarray(w)
    return pack(w.reshape(w.shape[0], -1), threshold)
