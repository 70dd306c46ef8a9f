"""Declarative network specs, builders, presets and checkpoint persistence.

A NetworkSpec is an ordered list of LayerSpecs whose channel/resolution
chain is validated up front. Builders are deterministic: a fixed seed plus
a fixed spec always produces identical parameters.

Checkpoints are single little-endian binary files: magic, format version,
the embedded spec text (so a checkpoint is self-describing), a SHA-256 of
that text, a small metadata block, length-prefixed named tensors, and a
trailing CRC-32 over everything before it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .blocks import (BRANCH_KINDS, BinaryConvBlock, BinaryMlpBlock, Classifier,
                     ForwardState, StemConv)
from .config import iter_ini

LAYER_KINDS = ("stem-conv", "binary-conv-3x3", "binary-conv-1x1", "binary-mlp",
               "downsample", "classifier")
DYNAMIC_KINDS = ("binary-conv-3x3", "binary-conv-1x1", "downsample")

CHECKPOINT_MAGIC = b"BCTX"
CHECKPOINT_VERSION = 1


class SpecError(ValueError):
    """Invalid or inconsistent network specification."""


class CheckpointError(IOError):
    """Base for persistence failures."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointChecksumError(CheckpointError):
    pass


@dataclass
class LayerSpec:
    kind: str
    c_in: int
    c_out: int
    stride: int = 1
    kernel: int = 3
    dynamic: bool = False
    branches: tuple = BRANCH_KINDS
    pool: bool = False

    def validate(self):
        if self.kind not in LAYER_KINDS:
            raise SpecError(f"unknown layer kind {self.kind!r}")
        if min(self.c_out, self.stride, self.kernel) < 1:
            raise SpecError(f"{self.kind} needs positive out, stride and kernel")
        if self.pool and self.kind != "stem-conv":
            raise SpecError(f"{self.kind} cannot pool; only the stem-conv pools")
        if self.dynamic and self.kind not in DYNAMIC_KINDS:
            raise SpecError(f"{self.kind} has no dynamic thresholds; only "
                            f"{', '.join(DYNAMIC_KINDS)} take dynamic = true")
        if self.kind != "binary-mlp" and self.branches != BRANCH_KINDS:
            raise SpecError(f"{self.kind} has no branches; only binary-mlp sets them")
        if self.kind != "stem-conv" and self.kernel != 3:
            raise SpecError(f"{self.kind} has no kernel; only stem-conv sets it")
        if self.kind == "classifier" and self.stride != 1:
            raise SpecError(f"classifier has no stride, got {self.stride}")
        if self.kind == "stem-conv" and self.kernel % 2 == 0:
            raise SpecError(f"stem-conv kernel must be odd, got {self.kernel}")
        if self.kind == "binary-mlp":
            if self.c_in != self.c_out or self.stride != 1:
                raise SpecError("binary-mlp is stride 1 and must preserve channels")
            if self.c_in % 4 != 0:
                raise SpecError(
                    f"binary-mlp needs channels divisible by 4, got {self.c_in}"
                )
            if len(self.branches) != 3 or any(b not in BRANCH_KINDS
                                              for b in self.branches):
                raise SpecError(f"bad branch assignment {self.branches!r}")
        if self.kind == "binary-conv-3x3" and (self.stride != 1
                                               or self.c_in != self.c_out):
            raise SpecError("binary-conv-3x3 is stride 1 and channel preserving; "
                            "use 'downsample' for strided blocks")
        if self.kind == "binary-conv-1x1" and self.stride != 1:
            raise SpecError("binary-conv-1x1 is stride 1")
        if self.kind == "downsample" and self.stride != 2:
            raise SpecError("downsample blocks use stride 2")
        if self.kind in ("binary-conv-1x1", "downsample") \
                and self.c_out not in (self.c_in, 2 * self.c_in):
            raise SpecError(
                f"{self.kind} supports c_out in {{c_in, 2*c_in}}, "
                f"got {self.c_in} -> {self.c_out}"
            )

    @property
    def divisor(self) -> int:
        """Resolution divisor: the stride, doubled when the stem pools."""
        return self.stride * (2 if self.pool else 1)

    def out_hw(self, h: int, w: int) -> tuple:
        """Output resolution at an h x w input the divisor divides; the
        classifier pools to 1x1."""
        if self.kind == "classifier":
            return 1, 1
        return h // self.divisor, w // self.divisor


@dataclass
class NetworkSpec:
    name: str
    input_hw: tuple
    classes: int
    layers: list = field(default_factory=list)
    in_channels: int = 3

    def validate(self):
        if not self.layers:
            raise SpecError("empty layer list")
        if self.layers[0].kind != "stem-conv":
            raise SpecError("first layer must be the full-precision stem")
        if self.layers[-1].kind != "classifier":
            raise SpecError("last layer must be the full-precision classifier")
        c = self.in_channels
        h, w = self.input_hw
        for i, ls in enumerate(self.layers):
            ls.validate()
            if ls.c_in != c:
                raise SpecError(
                    f"layer {i} ({ls.kind}) expects {ls.c_in} channels, chain has {c}"
                )
            if ls.kind == "binary-mlp" and (h < 2 or w < 2):
                raise SpecError(f"binary-mlp at layer {i} needs h,w >= 2, got {h}x{w}")
            if ls.kind == "classifier":
                if i != len(self.layers) - 1:
                    raise SpecError("classifier must be last")
                c = self.classes
                continue
            if h % ls.divisor or w % ls.divisor:
                raise SpecError(f"layer {i} downsamples {h}x{w} "
                                f"not divisible by {ls.divisor}")
            h, w = ls.out_hw(h, w)
            c = ls.c_out
        return self

    # -- plain-text serialization --------------------------------------

    def to_text(self) -> str:
        lines = ["[network]", f"name = {self.name}",
                 f"input = {self.input_hw[0]}x{self.input_hw[1]}",
                 f"in_channels = {self.in_channels}",
                 f"classes = {self.classes}", ""]
        for ls in self.layers:
            lines.append("[layer]")
            lines.append(f"kind = {ls.kind}")
            lines.append(f"out = {ls.c_out}")
            if ls.kind != "classifier":
                lines.append(f"stride = {ls.stride}")
            if ls.kind == "stem-conv":
                lines.append(f"kernel = {ls.kernel}")
                if ls.pool:
                    lines.append("pool = true")
            if ls.dynamic:
                lines.append("dynamic = true")
            if ls.branches != BRANCH_KINDS:
                lines.append(f"branches = {','.join(ls.branches)}")
            lines.append("")
        return "\n".join(lines)


def _positive(v: str) -> int:
    n = int(v)
    if n < 1:
        raise ValueError(v)
    return n


def _hxw(v: str) -> tuple:
    h, w = v.lower().split("x")
    return _positive(h), _positive(w)


def _flag(v: str) -> bool:
    if v.lower() not in ("true", "false"):
        raise ValueError(v)
    return v.lower() == "true"


# Each section's keys and the parser of each key's value.
_SECTION_KEYS = {
    "network": {"name": str, "input": _hxw, "in_channels": _positive,
                "classes": _positive},
    "layer": {"kind": str, "out": _positive, "stride": _positive,
              "kernel": _positive, "dynamic": _flag, "branches": str,
              "pool": _flag},
}
_EXPECTED = {_positive: "a positive integer", _hxw: "HxW of positive integers",
             _flag: "true or false"}
# A classifier's width comes from [network] classes, so it needs no "out".
_REQUIRED_KEYS = {"network": ("input", "classes"), "layer": ("kind", "out")}
# Layer keys that only the listed kinds take; on any other kind they are an error.
_KIND_ONLY_KEYS = {"kernel": ("stem-conv",), "branches": ("binary-mlp",)}


def parse_network_spec(text: str) -> NetworkSpec:
    """Parse the plain-text key-value spec format emitted by to_text()."""
    sections = []
    for ln, name, key, val in iter_ini(text, SpecError):
        if name not in _SECTION_KEYS:
            raise SpecError(f"line {ln}: unknown section [{name}]")
        if key is None:
            sections.append((ln, name, {}))
        elif key not in _SECTION_KEYS[name]:
            raise SpecError(f"line {ln}: unknown {name} key {key!r}")
        else:
            kind = _SECTION_KEYS[name][key]
            try:
                sections[-1][2][key] = kind(val)
            except ValueError:
                raise SpecError(f"line {ln}: {key} = {val!r} is not "
                                f"{_EXPECTED[kind]}") from None
    net = None
    layers = []
    for ln, name, sec in sections:
        for key in _REQUIRED_KEYS[name]:
            if key not in sec and not (key == "out" and sec.get("kind") == "classifier"):
                raise SpecError(f"line {ln}: [{name}] lacks required key {key!r}")
        if name == "network":
            net = NetworkSpec(name=sec.get("name", "unnamed"), input_hw=sec["input"],
                              classes=sec["classes"],
                              in_channels=sec.get("in_channels", 3))
        else:
            layers.append((ln, sec))
    if net is None:
        raise SpecError("missing [network] section")
    c = net.in_channels
    for ln, sec in layers:
        kind = sec["kind"]
        for key, kinds in _KIND_ONLY_KEYS.items():
            if key in sec and kind not in kinds:
                raise SpecError(f"line {ln}: {kind} takes no {key!r}; "
                                f"only {', '.join(kinds)} sets it")
        c_out = net.classes if kind == "classifier" else sec["out"]
        ls = LayerSpec(kind=kind, c_in=c, c_out=c_out, stride=sec.get("stride", 1),
                       kernel=sec.get("kernel", 3), dynamic=sec.get("dynamic", False),
                       pool=sec.get("pool", False))
        if "branches" in sec:
            ls.branches = tuple(b.strip() for b in sec["branches"].split(","))
        try:
            ls.validate()
        except SpecError as e:
            raise SpecError(f"line {ln}: {e}") from None
        net.layers.append(ls)
        if kind != "classifier":
            c = ls.c_out
    return net.validate()


class Network:
    """An executable stack of blocks built from a NetworkSpec."""

    def __init__(self, spec: NetworkSpec, layers, dtype):
        self.spec = spec
        self.layers = layers
        self.dtype = dtype
        self.step = 0  # the training step that last ran; 0 = as built

    @property
    def binary_weights(self) -> bool:
        """Weights binarize in every mode but step 1's real-weight training."""
        return self.step != 1

    def params(self) -> dict:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.params().items():
                out[f"L{i:02d}.{name}"] = p
        return out

    def buffers(self) -> dict:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, b in layer.buffers().items():
                out[f"L{i:02d}.{name}"] = b
        return out

    def zero_grad(self):
        for p in self.params().values():
            p.grad = None

    def forward(self, x, training=False, surrogate=False):
        """Float-graph forward; returns the logits Tensor."""
        if isinstance(x, np.ndarray):
            self._check_resolution(x)
            x = ag.Tensor(np.ascontiguousarray(x, dtype=self.dtype))
        st = ForwardState(training=training, binary_weights=self.binary_weights,
                          surrogate=surrogate)
        for layer in self.layers:
            x = layer.forward(x, st)
        return x

    def forward_packed(self, x: np.ndarray) -> np.ndarray:
        """Evaluation forward with every binary core on the bit-packed kernels
    (evaluation statistics, binary weights); equals forward() exactly."""
        if not self.binary_weights:
            raise ValueError("packed execution requires binarized weights")
        self._check_resolution(x)
        x = np.ascontiguousarray(x, dtype=self.dtype)
        for layer in self.layers:
            x = layer.infer_packed(x)
        return x

    def _check_resolution(self, x):
        n, c, h, w = x.shape
        if (h, w) != tuple(self.spec.input_hw) or c != self.spec.in_channels:
            raise ValueError(
                f"input {c}x{h}x{w} does not match spec "
                f"{self.spec.in_channels}x{self.spec.input_hw[0]}x{self.spec.input_hw[1]}"
            )

    def state_arrays(self) -> dict:
        arrays = {f"p.{k}": p.data for k, p in self.params().items()}
        arrays.update({f"b.{k}": b for k, b in self.buffers().items()})
        return arrays

    def load_state_arrays(self, arrays: dict):
        """Copy named tensors into the network's own arrays. A missing
        tensor, a tensor the network has no place for and a shape mismatch
        raise CheckpointError."""
        own = self.state_arrays()
        extra = sorted(set(arrays) - set(own))
        if extra:
            raise CheckpointError(f"network has no tensor {extra[0]} "
                                  f"({len(extra)} checkpoint tensors unplaced)")
        for name, dst in own.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint missing tensor {name}")
            src = arrays[name]
            if src.shape != dst.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: {src.shape} vs {dst.shape}"
                )
            dst[...] = src.astype(dst.dtype)


def build(spec: NetworkSpec, seed: int = 0, dtype=np.float32) -> Network:
    """Materialize a spec into an executable network (deterministic init)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    layers = []
    for ls in spec.layers:
        if ls.kind == "stem-conv":
            layers.append(StemConv(ls.c_in, ls.c_out, ls.stride, rng, dtype,
                                   kernel=ls.kernel, pool=ls.pool))
        elif ls.kind in ("binary-conv-3x3", "downsample"):
            layers.append(BinaryConvBlock(ls.c_in, ls.c_out, 3, ls.stride, rng,
                                          dtype, dynamic=ls.dynamic))
        elif ls.kind == "binary-conv-1x1":
            layers.append(BinaryConvBlock(ls.c_in, ls.c_out, 1, 1, rng, dtype,
                                          dynamic=ls.dynamic))
        elif ls.kind == "binary-mlp":
            layers.append(BinaryMlpBlock(ls.c_in, rng, dtype, branches=ls.branches))
        elif ls.kind == "classifier":
            layers.append(Classifier(ls.c_in, spec.classes, rng, dtype))
    return Network(spec, layers, dtype)


# ---------------------------------------------------------------------------
# presets


def _mobilenet_pairs():
    # (c_out of the 1x1 conv, stride of the 3x3 conv) per MobileNet-V1 pair
    return [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
            (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2),
            (1024, 1)]


def bcdnet_a_like(classes=1000, dynamic=False, replaced=(9, 10, 12)) -> NetworkSpec:
    """MobileNet-V1-shaped binary network with the last three stride-1 3x3
    blocks swapped for three binary MLP blocks each (11 conv + 9 MLP)."""
    layers = [LayerSpec("stem-conv", 3, 32, stride=2)]
    c = 32
    mlp_started = False
    for i, (c_out, stride) in enumerate(_mobilenet_pairs()):
        if i in replaced:
            mlp_started = True
            for _ in range(3):
                layers.append(LayerSpec("binary-mlp", c, c))
        elif stride == 2:
            layers.append(LayerSpec("downsample", c, c, stride=2,
                                    dynamic=dynamic and not mlp_started))
        else:
            layers.append(LayerSpec("binary-conv-3x3", c, c,
                                    dynamic=dynamic and not mlp_started))
        layers.append(LayerSpec("binary-conv-1x1", c, c_out,
                                dynamic=dynamic and not mlp_started))
        c = c_out
    layers.append(LayerSpec("classifier", c, classes))
    name = "bcdnet-b-like" if dynamic else "bcdnet-a-like"
    return NetworkSpec(name, (224, 224), classes, layers).validate()


def bcdnet_b_like(classes=1000) -> NetworkSpec:
    """bcdnet-a-like plus dynamic contextual embeddings in the CNN stage."""
    return bcdnet_a_like(classes, dynamic=True)


def reactnet18_like(classes=1000, mlp_tail=False) -> NetworkSpec:
    """ResNet-18-shaped binary network (one conv per residual block); the
    variant replaces the three stride-1 convs of the last stage with 9
    binary MLP blocks."""
    layers = [LayerSpec("stem-conv", 3, 64, stride=2, kernel=7, pool=True)]
    stages = [(64, 4), (128, 4), (256, 4), (512, 4)]
    c = 64
    for si, (c_out, blocks) in enumerate(stages):
        for b in range(blocks):
            if si > 0 and b == 0:
                layers.append(LayerSpec("downsample", c, c_out, stride=2))
                c = c_out
            elif mlp_tail and si == len(stages) - 1:
                for _ in range(3):
                    layers.append(LayerSpec("binary-mlp", c, c))
            else:
                layers.append(LayerSpec("binary-conv-3x3", c, c))
    layers.append(LayerSpec("classifier", c, classes))
    name = "reactnet18-mlp-like" if mlp_tail else "reactnet18-like"
    return NetworkSpec(name, (224, 224), classes, layers).validate()


def desk_tiny(classes=10, branches=("point", "short", "long"),
              dynamic=False) -> NetworkSpec:
    """4 binary conv blocks + 3 binary MLP blocks at 32x32 input."""
    layers = [
        LayerSpec("stem-conv", 3, 32, stride=2),
        LayerSpec("downsample", 32, 64, stride=2, dynamic=dynamic),
        *[LayerSpec("binary-conv-3x3", 64, 64, dynamic=dynamic) for _ in range(3)],
        *[LayerSpec("binary-mlp", 64, 64, branches=tuple(branches)) for _ in range(3)],
        LayerSpec("classifier", 64, classes),
    ]
    return NetworkSpec("desk-tiny", (32, 32), classes, layers).validate()


def desk_micro(classes=10, branches=("point", "short", "long"),
               in_channels=1) -> NetworkSpec:
    """Small single-channel variant for fast paired-comparison runs; the
    shallow conv stage leaves half-image relations to the MLP stage."""
    layers = [
        LayerSpec("stem-conv", in_channels, 16, stride=2),
        LayerSpec("downsample", 16, 32, stride=2),
        *[LayerSpec("binary-mlp", 32, 32, branches=tuple(branches)) for _ in range(3)],
        LayerSpec("classifier", 32, classes),
    ]
    return NetworkSpec("desk-micro", (16, 16), classes, layers,
                       in_channels=in_channels).validate()


def replace_trailing_convs(spec: NetworkSpec, n_mlp: int) -> NetworkSpec:
    """Swap the last n_mlp/3 stride-1 3x3 conv blocks for MLP triples.

    Downsampling blocks are never replaced; asking for more replacements
    than there are eligible conv blocks is an error.
    """
    if n_mlp % 3 != 0:
        raise SpecError("replacement converts whole conv blocks (3 MLPs each)")
    candidates = [i for i, ls in enumerate(spec.layers)
                  if ls.kind == "binary-conv-3x3" and ls.c_in % 4 == 0]
    k = n_mlp // 3
    if k > len(candidates):
        raise SpecError(
            f"cannot replace {k} conv blocks; only {len(candidates)} eligible "
            "(downsampling layers are never replaced)"
        )
    chosen = set(candidates[len(candidates) - k:])
    layers = []
    for i, ls in enumerate(spec.layers):
        if i in chosen:
            layers.extend(LayerSpec("binary-mlp", ls.c_in, ls.c_in)
                          for _ in range(3))
        else:
            layers.append(ls)
    name = f"{spec.name}-mlp{n_mlp}" if n_mlp else spec.name
    return NetworkSpec(name, spec.input_hw, spec.classes, layers,
                       spec.in_channels).validate()


def desk_sweep(classes=10, n_mlp=0) -> NetworkSpec:
    """Replacement-sweep base: 10 stride-1 conv blocks at 512x4x4; each
    sweep step converts the trailing conv into 3 MLP blocks."""
    layers = [
        LayerSpec("stem-conv", 3, 128, stride=2),
        LayerSpec("downsample", 128, 256, stride=2),
        LayerSpec("downsample", 256, 512, stride=2),
    ]
    layers += [LayerSpec("binary-conv-3x3", 512, 512) for _ in range(10)]
    layers.append(LayerSpec("classifier", 512, classes))
    base = NetworkSpec("desk-sweep", (32, 32), classes, layers).validate()
    return replace_trailing_convs(base, n_mlp)


PRESETS = {
    "bcdnet-a-like": bcdnet_a_like,
    "bcdnet-b-like": bcdnet_b_like,
    "reactnet18-like": reactnet18_like,
    "reactnet18-mlp-like": lambda classes=1000: reactnet18_like(classes, True),
    "desk-tiny": desk_tiny,
    "desk-micro": desk_micro,
    "desk-sweep": desk_sweep,
}


def preset(name: str, **kwargs) -> NetworkSpec:
    if name not in PRESETS:
        raise SpecError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)


# ---------------------------------------------------------------------------
# checkpoint persistence

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def save(net: Network, path) -> None:
    """Serialize parameters, buffers and metadata (see module docstring),
    replacing path atomically."""
    spec_text = net.spec.to_text().encode()
    meta = json.dumps({"binary_weights": net.binary_weights,
                       "step": net.step}).encode()
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<I", CHECKPOINT_VERSION)
    out += struct.pack("<I", len(spec_text)) + spec_text
    out += hashlib.sha256(spec_text).digest()
    out += struct.pack("<I", len(meta)) + meta
    arrays = net.state_arrays()
    out += struct.pack("<I", len(arrays))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        nb = name.encode()
        out += struct.pack("<H", len(nb)) + nb
        out += struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
        out += struct.pack("<Q", len(payload)) + payload
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    # Write beside the target, then rename over it: a failed write leaves
    # the previous checkpoint as it was.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(out)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_checkpoint(path):
    """Parse a checkpoint file into (spec, metadata, arrays)."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"{path}: {e.strerror or e}") from None
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    body, crc_stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CheckpointChecksumError(f"{path}: CRC mismatch (corrupt file)")
    view, off = memoryview(body), 4

    def take(nbytes):
        nonlocal off
        if off + nbytes > len(body):
            raise CheckpointError(
                f"{path}: body ends at byte {len(body)}, headers claim {off + nbytes}")
        off += nbytes
        return view[off - nbytes:off]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def sized(len_fmt):  # a length-prefixed byte string
        return bytes(take(unpack(len_fmt)[0]))

    (version,) = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
        )
    spec_text = sized("<I").decode()
    if hashlib.sha256(spec_text.encode()).digest() != bytes(take(32)):
        raise CheckpointChecksumError(f"{path}: spec hash mismatch")
    meta = json.loads(sized("<I"))
    arrays = {}
    for _ in range(unpack("<I")[0]):
        name = sized("<H").decode()
        code, ndim = unpack("<BB")
        shape = unpack(f"<{ndim}I")
        (nbytes,) = unpack("<Q")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: tensor {name} has unknown dtype code {code}")
        dtype = _CODE_DTYPES[code]
        need = dtype.itemsize * int(np.prod(shape))
        if nbytes != need:
            raise CheckpointError(
                f"{path}: tensor {name} holds {nbytes} bytes, shape {shape} needs {need}")
        arr = np.frombuffer(take(nbytes), dtype=dtype.newbyteorder("<"))
        arrays[name] = arr.reshape(shape).astype(dtype)
    return parse_network_spec(spec_text), meta, arrays


def load(path) -> Network:
    """Rebuild a network from a checkpoint, in the dtype of its tensors;
    forward outputs are bit-exact reproductions of the saved model."""
    spec, meta, arrays = read_checkpoint(path)
    dtypes = {a.dtype for a in arrays.values()} or {np.dtype(np.float32)}
    if len(dtypes) > 1:
        raise CheckpointError(f"{path}: tensors mix dtypes "
                              f"{', '.join(sorted(map(str, dtypes)))}")
    net = build(spec, seed=0, dtype=dtypes.pop())
    net.load_state_arrays(arrays)
    net.step = _meta_step(meta, net.step, path)
    return net


def load_into(net: Network, path) -> Network:
    """Load checkpoint tensors into an existing network, which may extend
    the checkpoint's plain one with dynamic embeddings: absent `dyn.*`
    parameters, inert as built (W2 = W3 = 0), keep their values, and a plain
    layer's `thr` seeds the `dyn.b_beta` that replaces it, so the network
    computes what the checkpoint did. Otherwise as strict as load."""
    _, meta, arrays = read_checkpoint(path)
    step = _meta_step(meta, net.step, path)
    own = net.state_arrays()
    for name in [k for k in arrays if k.endswith(".thr") and k not in own]:
        beta = name[:-len("thr")] + "dyn.b_beta"
        if beta in own and beta not in arrays:
            arrays[beta] = arrays.pop(name)
    for name in own:
        if ".dyn." in name:
            arrays.setdefault(name, own[name])
    net.load_state_arrays(arrays)
    net.step = step
    return net


def _meta_step(meta: dict, default: int, path) -> int:
    """The checkpoint's step (default if unrecorded); binary_weights must agree."""
    step = int(meta.get("step", default))
    if bool(meta.get("binary_weights", step != 1)) != (step != 1):
        raise CheckpointError(f"{path}: metadata binary_weights = "
                              f"{meta['binary_weights']} contradicts step {step}")
    return step
