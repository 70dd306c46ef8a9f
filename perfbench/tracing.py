"""Outside-in tracing: wrap library functions where they are looked up and
record one span per call.

A span is [name, start, end, parent, batch, work]: perf_counter seconds,
the index of the enclosing span (-1 at top level), the closed-loop
operation it belongs to, and for binary_gemm the (useful, popcounted) bit
counts of its operands. Spans stay in memory and are written out when the
phase ends. Self time is a span's duration minus that of its direct
children.

Placement matters: ``blocks`` binds the bittensor kernels by name at
import, ``binary_conv2d`` reaches ``binary_gemm`` through the globals of
``bittensor``, blocks call autograd ops through the ``ag`` module
attribute. A wrapper in any other namespace records nothing.
``bitcontext.train.augment_batch`` (imported from ``data``) carries the
training phase's iteration clock, which records its span itself.
"""

from __future__ import annotations

from time import perf_counter

AUTOGRAD_OPS = ("conv2d", "im2col", "token_fc", "binarize", "batchnorm",
                "rprelu", "quartile_shift", "cross_entropy", "backward")


def _gemm_work(a, w, *_):
    """(bits in the binary dot products, bits popcounted incl. padding)."""
    pairs = a.shape[0] * w.shape[0]
    return pairs * a.nbits, pairs * a.words.shape[-1] * 64


def span_targets(bc):
    """(owner, attribute, span name, work function) for every traced call."""
    bt, bk, ag = bc.bittensor, bc.blocks, bc.autograd
    out = [
        (bk, "binary_gemm", "bittensor.binary_gemm", _gemm_work),
        (bt, "binary_gemm", "bittensor.binary_gemm", _gemm_work),
        (bk, "binary_conv2d", "bittensor.binary_conv2d", None),
        (bk, "pack", "bittensor.pack", None),
        (bk, "pack_filters", "bittensor.pack_filters", None),
        (bk, "weight_scale", "bittensor.weight_scale", None),
        (bk, "reconstruct_short", "blocks.reconstruct_short", None),
        (bk, "reconstruct_long", "blocks.reconstruct_long", None),
    ]
    for cls in (bk.BinaryConvBlock, bk.BinaryMlpBlock):
        for meth in ("forward", "infer_packed"):
            out.append((cls, meth, f"blocks.{cls.__name__}.{meth}", None))
    for cls in (bk.StemConv, bk.Classifier):
        out.append((cls, "infer_packed", f"blocks.{cls.__name__}.infer_packed", None))
    out += [(ag, op, f"autograd.{op}", None) for op in AUTOGRAD_OPS]
    out += [
        (bc.network.Network, "forward", "network.forward", None),
        (bc.network.Network, "forward_packed", "network.forward_packed", None),
        (bc.train.AdamW, "step", "train.AdamW.step", None),
    ]
    return out


def layer_span(row: str, method: str) -> str:
    return f"layer.{row}.{method}"


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans = []
        self.batch = -1
        self._stack = []
        self._patches = []

    @property
    def installed(self):
        return bool(self._patches)

    def wrap(self, fn, name, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.batch,
                   work(*args) if work else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr, name, work=None):
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original if had_own else None))
        setattr(owner, attr, self.wrap(original, name, work))

    def install(self, bc, net, rows):
        """Wrap the library functions and each layer instance of net; rows
        are the costmodel.count_network row names, one per layer."""
        for owner, attr, name, work in span_targets(bc):
            self._patch(owner, attr, name, work)
        for layer, row in zip(net.layers, rows):
            for meth in ("forward", "infer_packed"):
                self._patch(layer, meth, layer_span(row, meth))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def summarize(spans):
    """Per span name: calls, inclusive ms, self ms, and summed work."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _, _, work) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                  "bits": 0, "popcounted_bits": 0})
        s["calls"] += 1
        s["ms"] += 1e3 * (t1 - t0)
        s["self_ms"] += 1e3 * (t1 - t0 - child[i])
        if work:
            s["bits"] += work[0]
            s["popcounted_bits"] += work[1]
    return out
