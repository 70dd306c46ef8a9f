"""Bit-packed binary tensors and the XNOR/popcount compute kernels.

Sign encoding: bit=1 means +1, bit=0 means -1. Binarization follows the
convention value <= threshold -> -1 (so exact zeros under a zero threshold
binarize to -1). Bits are packed 64 per machine word along a single axis,
LSB-first within each word: logical index i lives in word i // 64 at bit
position i % 64. Padding bits past the logical extent are kept at zero and
kernels mask the tail words, so results never depend on padding content.

Layouts:
  2-D (rows, cols)          -> words shape (rows, W), packed along cols
  4-D (n, c, h, w)          -> words shape (n, h, w, W), packed along channels
  filters (c_out, c, k, k)  -> words shape (c_out, k, k, W), packed along
                               input channels exactly like an activation

binary_conv2d stays in the word domain. It gathers k x k windows of the
activation's channel words, and lays out the filter words the same way:
word-major, then kernel row, then kernel column. Each GEMM row is then
k*k channel vectors of W words, and BitTensor.vectors = k*k tells the
GEMM to mask the tail word of every vector (the last k*k words of a row)
rather than only the last word. Padding pixels are all-zero words, i.e.
all -1, the same pad rule the float route uses.

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
IM2COL_CHUNK = 1 << 18  # im2col output elements gathered per batch chunk
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
    """Pack a (..., n) bool array into (..., ceil(n/64)) uint64."""
    # packbits over a strided last axis (a transposed channel axis) is ~4x
    # slower than a C-contiguous copy followed by packbits.
    packed_bytes = np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
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
    the packed axis. vectors is set only by binary_conv2d for its window
    rows: each row then concatenates that many channel vectors of
    nbits // vectors bits, word-major, and the last `vectors` words are the
    vectors' tail words.
    """

    shape: tuple
    words: np.ndarray
    nbits: int
    vectors: int = 1

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)

    @property
    def n_words(self) -> int:
        return self.words.shape[-1]

    def padding_is_clean(self) -> bool:
        """True when every bit past nbits is zero (constructor guarantee)."""
        mask = _tail_mask(self.nbits // self.vectors)
        if mask == np.uint64(0xFFFFFFFFFFFFFFFF):
            return True
        tail = self.words[..., -self.vectors:]
        return bool(np.all(tail & ~mask == 0))

    def copy(self) -> "BitTensor":
        return BitTensor(self.shape, self.words.copy(), self.nbits, self.vectors)


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


def _xor_popcount_gemm(a_words: np.ndarray, w_words: np.ndarray, nbits: int,
                       vectors: int = 1) -> np.ndarray:
    """Mismatch counts between every row pair: (R, W) x (C, W) -> (R, C) int32,
    by the tiled word loop the module docstring describes. Each row holds
    `vectors` word-major vectors of nbits // vectors bits, so the last
    `vectors` words are the ones masked."""
    r, n_words = a_words.shape
    c = w_words.shape[0]
    mask = _tail_mask(nbits // vectors)
    a_t = a_words.T.copy()  # (W, R); copies, so masking never writes the caller's words
    w_t = w_words.T.copy()  # (W, C)
    a_t[-vectors:] &= mask
    w_t[-vectors:] &= mask
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
        raise DimensionError(f"binary_gemm needs 2-D operands, got {a.shape}, {w.shape}")
    if a.nbits != w.nbits or a.vectors != w.vectors:
        raise DimensionError(f"inner dimensions differ: {a.nbits} bits in {a.vectors} "
                             f"vectors vs {w.nbits} in {w.vectors}")
    scale = np.asarray(scale)
    if scale.dtype.kind != "f":
        scale = scale.astype(np.float32)
    if scale.shape != (w.shape[0],):
        raise DimensionError(
            f"scale length {scale.shape} != output columns {w.shape[0]}"
        )
    mismatches = _xor_popcount_gemm(
        a.words.reshape(a.shape[0], -1), w.words.reshape(w.shape[0], -1), a.nbits,
        a.vectors,
    )
    mismatches *= -2  # nbits - 2 * mismatches, in place and exact in int32
    mismatches += a.nbits
    dots = mismatches.astype(scale.dtype)
    return np.multiply(dots, scale, out=dots)


def im2col(x: np.ndarray, k: int, stride: int, pad: int, pad_value=0):
    """Gather k x k windows of an NCHW array into rows of length c*k*k
    (channel-major, then kernel row, then kernel column), one row per
    output position; padding pixels take pad_value. Returns (cols, oh, ow)
    with cols a C-contiguous (n*oh*ow, c*k*k) array.

    Both routes gather windows here: autograd.conv2d on float values and
    binary_conv2d on channel words, where padding 0 is an all -1 pixel.
    The input is written once into a channel-last padded buffer, then each
    of the k*k taps is copied whole-channel into an (n, oh, ow, c, k, k)
    array, IM2COL_CHUNK elements of it at a time, so that a chunk stays in
    cache across its taps. A 1x1 stride-1 unpadded gather is a reshape: a
    view of x when x is channel-last in memory, as conv outputs are.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if hp < k or wp < k:
        raise DimensionError(f"kernel {k} exceeds padded input {hp}x{wp}")
    oh, ow = (hp - k) // stride + 1, (wp - k) // stride + 1
    if k == 1 and pad == 0:
        rows = x[:, :, ::stride, ::stride].transpose(0, 2, 3, 1)
        return np.ascontiguousarray(rows).reshape(n * oh * ow, c), oh, ow
    xp = np.empty((n, hp, wp, c), dtype=x.dtype)
    if pad:
        fill = np.asarray(pad_value)  # cast as an array, so -1 is all ones in words
        xp[:, :pad] = xp[:, hp - pad:] = fill
        xp[:, pad:hp - pad, :pad] = xp[:, pad:hp - pad, wp - pad:] = fill
    xp[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    cols = np.empty((n, oh, ow, c, k, k), dtype=x.dtype)
    step = max(1, IM2COL_CHUNK // max(1, oh * ow * c * k * k))  # samples per chunk
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        for ki in range(k):
            for kj in range(k):
                cols[lo:hi, :, :, :, ki, kj] = \
                    xp[lo:hi, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
    return cols.reshape(n * oh * ow, c * k * k), oh, ow


def binary_conv2d(a: BitTensor, w: BitTensor, scale: np.ndarray,
                  stride: int = 1, pad: int = 0) -> np.ndarray:
    """Binary 2-D convolution on packed words: window gather + binary_gemm.

    a is a packed NCHW activation and w a packed (c_out, c_in, k, k) filter
    bank (pack_filters). Windows are gathered as whole channel words; the
    module docstring gives the row layout. Padding pixels enter as -1.
    Returns float32 (n, c_out, oh, ow).
    """
    if len(a.shape) != 4 or len(w.shape) != 4:
        raise DimensionError("binary_conv2d expects a packed NCHW activation "
                             "and a packed (c_out, c_in, k, k) filter bank")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n, c = a.shape[:2]
    c_out, c_w, k, k_w = w.shape
    if c_w != c or k_w != k:
        raise DimensionError(f"filters {w.shape} do not fit {c} input channels")
    fan_in = c * k * k
    cols, oh, ow = im2col(a.words.transpose(0, 3, 1, 2), k, stride, pad)
    rows = BitTensor((cols.shape[0], fan_in), cols, fan_in, vectors=k * k)
    filters = BitTensor((c_out, fan_in), w.words.transpose(0, 3, 1, 2).reshape(c_out, -1),
                        fan_in, vectors=k * k)
    out = binary_gemm(rows, filters, scale)  # (n*oh*ow, c_out)
    return out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)


def weight_scale(w: np.ndarray) -> np.ndarray:
    """Per-filter scale factors: L1 norm over the fan-in divided by fan-in,
    one per output channel (axis 0)."""
    w = np.asarray(w)
    if w.size == 0:
        raise ValueError(f"empty filter bank of shape {w.shape}")
    dtype = w.dtype if w.dtype.kind == "f" else np.float32
    return np.abs(w.reshape(w.shape[0], -1)).mean(axis=1).astype(dtype)


def pack_filters(w: np.ndarray) -> BitTensor:
    """Sign-pack a filter bank (pack at threshold 0): a (c_out, c_in, k, k) bank
    along input channels like an NCHW activation, a (c_out, fan_in) one row-wise."""
    w = np.asarray(w)
    if w.ndim not in (2, 4):
        raise DimensionError(f"filter bank must be 2-D or 4-D, got shape {w.shape}")
    return pack(w)
