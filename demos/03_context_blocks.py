"""Long-short-range token mixing without FLOPs.

A token is one spatial position's channel vector. Each binary MLP block
models three dependency ranges: the token itself (pointwise), its
one-step neighbours (short) and its half-resolution neighbours (long).
The neighbour tokens are assembled by shifting channel quartiles with
wraparound, a pure bit permutation, then mixed by token-wise binary MLPs.
"""

import numpy as np

from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from bitcontext import blocks as bk

rng = np.random.default_rng(2)

# Wraparound sampling indices.
print("sample_index((7,3), (+1,0), h=8, w=8) ->",
      bk.sample_index((7, 3), (1, 0), 8, 8))
print("long offsets at 8x8:", bk.long_offsets(8, 8))

# Watch an impulse move under the short-range reconstruction.
x = -np.ones((1, 4, 5, 5), dtype=np.float32)
x[0, 0, 2, 2] = 1.0
out = bt.unpack(bk.reconstruct_short(bt.pack(x)))
print("\nimpulse at (2,2), quartile 0 samples (r-1, c):")
print((out[0, 0] > 0).astype(int))

# Long-range reconstruction is an involution on even grids.
b = bt.pack(rng.choice([-1.0, 1.0], size=(1, 8, 4, 4)).astype(np.float32))
twice = bk.reconstruct_long(bk.reconstruct_long(b))
print("\nreconstruct_long applied twice == identity:",
      np.array_equal(twice.words, b.words))

# A full three-branch MLP block, float graph vs bit-packed kernels.
blk = bk.BinaryMlpBlock(16, np.random.default_rng(3))
x = rng.normal(size=(2, 16, 8, 8)).astype(np.float32)
st = bk.ForwardState(training=False, binary_weights=True)
y_float = blk.forward(ag.Tensor(x), st).data
y_packed = blk.infer_packed(x)
print("MLP block float vs packed, bit-identical:",
      np.array_equal(y_float, y_packed))

# Dynamic contextual embeddings: threshold shifts and biases from pooled
# input; a block binarizes at its own thr plus the shift.
conv = bk.BinaryConvBlock(16, 16, 3, 1, np.random.default_rng(4), dynamic=True)
conv.dynamic.w2.data[...] = 0.1  # give the zero-initialized path an effect
beta = (conv.dynamic.thresholds(conv.dynamic.alpha(ag.Tensor(x))) + conv.thr).data
print("\nper-sample dynamic thresholds, shape", beta.shape,
      "spread", float(beta.std()))
print("conv block float vs packed, bit-identical:",
      np.array_equal(conv.forward(ag.Tensor(x), st).data,
                     conv.infer_packed(x)))
