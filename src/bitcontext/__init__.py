"""bitcontext: a 1-bit neural network engine with bit-packed XNOR/popcount
kernels, long-short-range binary MLP blocks, dynamic binarization
thresholds, straight-through-estimator training, and an analytic cost
model."""

__version__ = "0.1.0"

from .bittensor import (BitTensor, DimensionError, binary_conv2d, binary_gemm,
                        pack, pack_filters, unpack, weight_scale)
from .autograd import Tensor, backward, qb_backward, qb_forward, qb_grad
from .blocks import (BinaryConvBlock, BinaryMlpBlock, ForwardState,
                     reconstruct_long, reconstruct_short, sample_index)
from .network import (LayerSpec, Network, NetworkSpec, build, load, load_into,
                      parse_network_spec, preset, replace_trailing_convs, save)
from .costmodel import CostReport, count_layer, count_network
from .train import (AdamW, Metrics, TrainConfig, cosine_lr, evaluate, loss,
                    sweep_replacement, train_step1, train_step2,
                    two_step_pipeline)
from .analysis import BinErrReport, binarization_error, per_branch_report

__all__ = [
    "BitTensor", "DimensionError", "binary_conv2d", "binary_gemm", "pack",
    "pack_filters", "unpack", "weight_scale",
    "Tensor", "backward", "qb_backward", "qb_forward", "qb_grad",
    "BinaryConvBlock", "BinaryMlpBlock", "ForwardState", "reconstruct_long",
    "reconstruct_short", "sample_index",
    "LayerSpec", "Network", "NetworkSpec", "build", "load", "load_into",
    "parse_network_spec", "preset", "replace_trailing_convs", "save",
    "CostReport", "count_layer", "count_network",
    "AdamW", "Metrics", "TrainConfig", "cosine_lr", "evaluate", "loss",
    "sweep_replacement", "train_step1", "train_step2", "two_step_pipeline",
    "BinErrReport", "binarization_error", "per_branch_report",
    "__version__",
]
