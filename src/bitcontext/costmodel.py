"""Analytic per-layer BOPs/FLOPs accounting and the combined OPs metric.

Counting conventions (defaults; every count scales by ``mac_ops`` for the
alternative 2-ops-per-MAC convention):

  * one multiply-accumulate = 1 operation, binary or full precision;
  * binary conv: k*k*c_in*c_out*oh*ow BOPs; binary MLP block: 3*c*c*h*w
    BOPs (three token-wise branches; token shifts are free);
  * full-precision stem conv and classifier count their MACs as FLOPs with
    batch norm folded into the conv at inference (no extra term);
  * every binary conv block adds 4 FLOPs per output element (threshold
    shift, folded norm affine, parametric activation, residual add) and
    every binary MLP block adds 6 (those four plus two branch-combine
    adds); per-branch scale multiplies ride along with the binary GEMM;
  * global average pooling costs c*h*w; a stem pool costs c*oh*ow;
  * dynamic embeddings add gap(c_in*h*w) + bottleneck matmuls
    (c*c/4 + c/4*c + c/4*c_out) + c_out for the fused output bias;
  * OPs = BOPs/64 + FLOPs. The conv+fc subtotal keeps BOPs/64 plus only
    the stem and classifier MACs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .network import BINARY_CONV_KERNELS, LayerSpec, NetworkSpec

CONV_BLOCK_ELEM_FLOPS = 4
MLP_BLOCK_ELEM_FLOPS = 6


@dataclass
class CostRow:
    name: str
    bops: int
    flops: int
    flops_convfc: int = 0


@dataclass
class CostReport:
    rows: list = field(default_factory=list)

    @property
    def bops(self) -> int:
        return sum(r.bops for r in self.rows)

    @property
    def flops(self) -> int:
        return sum(r.flops for r in self.rows)

    @property
    def ops(self) -> float:
        return self.bops / 64.0 + self.flops

    @property
    def ops_convfc(self) -> float:
        """Conv-and-fc-only subtotal: binary ops plus conv/fc MACs, leaving
        out block overheads, pooling and embeddings."""
        return self.bops / 64.0 + sum(r.flops_convfc for r in self.rows)

    def to_text(self) -> str:
        w = max([len(r.name) for r in self.rows] + [5])
        lines = [f"{'layer':<{w}}  {'BOPs':>14}  {'FLOPs':>12}  {'OPs':>14}"]
        for r in self.rows:
            ops = r.bops / 64.0 + r.flops
            lines.append(f"{r.name:<{w}}  {r.bops:>14d}  {r.flops:>12d}  {ops:>14.1f}")
        lines.append(f"{'total':<{w}}  {self.bops:>14d}  {self.flops:>12d}  "
                     f"{self.ops:>14.1f}")
        lines.append(f"{'conv+fc OPs':<{w}}  {'':>14}  {'':>12}  "
                     f"{self.ops_convfc:>14.1f}")
        return "\n".join(lines)

    def to_delimited(self) -> str:
        lines = ["\t".join(["layer", "bops", "flops", "ops"])]
        for r in self.rows:
            lines.append("\t".join([r.name, str(r.bops), str(r.flops),
                                    f"{r.bops / 64.0 + r.flops:.1f}"]))
        lines.append("\t".join(["total", str(self.bops), str(self.flops),
                                f"{self.ops:.1f}"]))
        return "\n".join(lines)


def _dynamic_flops(c_in: int, c_out: int, h: int, w: int) -> int:
    cb = c_in // 4
    gap = c_in * h * w
    matmuls = c_in * cb + cb * c_in + cb * c_out
    return gap + matmuls + c_out


def count_layer(ls: LayerSpec, hw: tuple):
    """BOPs and FLOPs, one per MAC, for one layer at the given input resolution.

    Returns (bops, flops, flops_convfc, out_hw), out_hw from LayerSpec.out_hw.
    """
    h, w = hw
    oh, ow = ls.out_hw(h, w)
    if ls.kind == "stem-conv":
        ch, cw = h // ls.stride, w // ls.stride  # the conv's output, before the pool
        macs = ls.kernel * ls.kernel * ls.c_in * ls.c_out * ch * cw
        flops = macs + (ls.c_out * oh * ow if ls.pool else 0)
        return 0, flops, macs, (oh, ow)
    if ls.kind in BINARY_CONV_KERNELS:
        bops = BINARY_CONV_KERNELS[ls.kind] ** 2 * ls.c_in * ls.c_out * oh * ow
        flops = CONV_BLOCK_ELEM_FLOPS * ls.c_out * oh * ow
        if ls.dynamic:
            flops += _dynamic_flops(ls.c_in, ls.c_out, h, w)
        return bops, flops, 0, (oh, ow)
    if ls.kind == "binary-mlp":
        bops = 3 * ls.c_in * ls.c_out * h * w
        flops = MLP_BLOCK_ELEM_FLOPS * ls.c_out * h * w
        return bops, flops, 0, (oh, ow)
    if ls.kind == "classifier":
        gap = ls.c_in * h * w
        fc = ls.c_in * ls.c_out
        return 0, gap + fc, fc, (oh, ow)
    raise ValueError(f"unresolved layer kind {ls.kind!r}")


def count_network(spec: NetworkSpec, mac_ops: int = 1) -> CostReport:
    """Full per-layer report; counting is purely structural."""
    report = CostReport()
    hw = spec.input_hw
    for i, ls in enumerate(spec.layers):
        bops, flops, convfc, hw = count_layer(ls, hw)
        name = f"L{i:02d}-{ls.kind}-{ls.c_out}"
        report.rows.append(CostRow(name, mac_ops * bops, mac_ops * flops,
                                   mac_ops * convfc))
    return report


def conv_block_ops(c: int, h: int, w: int, mac_ops: int = 1) -> float:
    """Single 3x3 binary conv block OPs at channel-preserving stride 1."""
    bops, flops, _, _ = count_layer(LayerSpec("binary-conv-3x3", c, c), (h, w))
    return mac_ops * (bops / 64.0 + flops)


def mlp_block_ops(c: int, h: int, w: int, mac_ops: int = 1) -> float:
    """Single three-branch binary MLP block OPs."""
    bops, flops, _, _ = count_layer(LayerSpec("binary-mlp", c, c), (h, w))
    return mac_ops * (bops / 64.0 + flops)
