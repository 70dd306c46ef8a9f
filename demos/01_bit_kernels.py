"""Bit-packed sign tensors and XNOR/popcount arithmetic.

Binary layers store activations and weights as packed sign bits, 64 per
machine word, and compute dot products with XOR + popcount. Because every
intermediate is an exact integer, the packed kernels agree bit for bit
with a dense float computation on the unpacked +-1 values.
"""

import numpy as np

from bitcontext import bittensor as bt

rng = np.random.default_rng(0)

# Binarize against a threshold: strictly-above packs as +1, ties go to -1.
x = np.array([0.3, -0.2, 0.0, 1.5, -0.7])
bits = bt.pack(x, threshold=0.0)
print("values:     ", x)
print("signs:      ", bt.unpack(bits))
print("words (hex):", [hex(int(w)) for w in bits.words])

# An integer dot product via XNOR + popcount, for any fan-in: binary_gemm
# on one row and one filter, with unit scale.
a = rng.choice([-1.0, 1.0], size=(1, 200))
w = rng.choice([-1.0, 1.0], size=(1, 200))
dot = bt.binary_gemm(bt.pack(a), bt.pack(w), np.ones(1, np.float32))
print("\nxnor dot:", int(dot[0, 0]), " float dot:", int((a @ w.T)[0, 0]))

# Scaled binary GEMM: out[i, j] = scale[j] * <a_i, w_j>.
A = rng.choice([-1.0, 1.0], size=(6, 100)).astype(np.float32)
W = rng.choice([-1.0, 1.0], size=(4, 100)).astype(np.float32)
scale = rng.uniform(0.1, 1.0, size=4).astype(np.float32)
out = bt.binary_gemm(bt.pack(A), bt.pack(W), scale)
ref = (A @ W.T) * scale[None, :]
print("\nbinary_gemm == dense float:", np.array_equal(out, ref))

# Binary convolution = im2col + binary GEMM; padding pixels enter as -1.
img = rng.choice([-1.0, 1.0], size=(1, 8, 16, 16)).astype(np.float32)
filt = rng.normal(size=(12, 8, 3, 3)).astype(np.float32)
alpha = bt.weight_scale(filt)          # per-filter mean |w|
y = bt.binary_conv2d(bt.pack(img), bt.pack_filters(filt), alpha,
                     stride=2, pad=1)
print("\nconv output shape:", y.shape)
print("per-filter scales (first 4):", np.round(alpha[:4], 4))
