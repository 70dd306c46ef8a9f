"""Binarization-error measurement over shadow weights.

The error of a filter bank is the mean absolute residual between the real
weights and their scaled sign approximation:

    error = (1/n) * sum |alpha * sign(w) - w|

Two scale modes ship. "xnor" uses the per-filter L1 norm over the fan-in
divided by the fan-in, with the sign of autograd.hard_sign: the scale and
sign rules the binary kernels actually apply (bittensor.weight_scale), so
the error is exactly the representation error of the deployed layer and is
zero iff every filter is a scalar multiple of its sign pattern. "literal" uses
||sign(w)||_1 / c_in instead, which collapses to fan_in/c_in (a constant, 1
for token-wise MLP weights); it ships for comparison since only the xnor
form can describe the deployed kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import hard_sign
from .bittensor import weight_scale
from .blocks import BinaryMlpBlock
from .network import Network


@dataclass
class BinErrRow:
    layer: int
    branch: str
    error: float


@dataclass
class BinErrReport:
    rows: list = field(default_factory=list)

    def to_delimited(self) -> str:
        lines = ["\t".join(["layer", "branch", "error"])]
        for r in self.rows:
            lines.append("\t".join([str(r.layer), r.branch, f"{r.error:.8e}"]))
        return "\n".join(lines)


def binarization_error(w: np.ndarray, mode: str = "xnor") -> float:
    """Mean |alpha*sign(w) - w| with alpha per the selected mode."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))  # 1-D weights: one filter
    if w.size == 0:
        raise ValueError("empty weight tensor")
    c_out, c_in = w.shape[:2]
    flat = w.reshape(c_out, -1)
    sign = hard_sign(flat)
    if mode == "xnor":
        alpha = weight_scale(flat)[:, None]
    elif mode == "literal":
        # per-filter L1 of the sign pattern over the channel count,
        # i.e. fan_in / c_in (k*k for convs, exactly 1 for MLPs)
        alpha = np.abs(sign).sum(axis=1, keepdims=True) / c_in
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return float(np.abs(alpha * sign - flat).mean())


_BRANCH_NAMES = {"point": "P", "short": "S", "long": "L"}


def per_branch_report(net: Network, mode: str = "xnor") -> BinErrReport:
    """One error row per (MLP block, branch), ordered by depth."""
    report = BinErrReport()
    for i, layer in enumerate(net.layers):
        if not isinstance(layer, BinaryMlpBlock):
            continue
        for kind, w in zip(layer.branches, layer.ws):
            report.rows.append(BinErrRow(
                layer=i, branch=_BRANCH_NAMES[kind],
                error=binarization_error(w.data, mode)))
    if not report.rows:
        raise ValueError("network contains no MLP blocks")
    return report
