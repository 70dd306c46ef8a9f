"""bitcontext: a 1-bit neural network engine with bit-packed XNOR/popcount
kernels, long-short-range binary MLP blocks, dynamic binarization
thresholds, straight-through-estimator training, and an analytic cost
model. Its modules are its API: ``from bitcontext import network as nw``."""

__version__ = "0.1.0"

from . import analysis, autograd, bittensor, blocks, costmodel, network, train  # noqa: E402,F401
