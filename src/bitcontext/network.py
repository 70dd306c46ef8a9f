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
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import autograd as ag
from .blocks import (BRANCH_KINDS, BinaryConvBlock, BinaryMlpBlock, Classifier,
                     ForwardState, StemConv)
from .config import iter_ini

# Each binary-conv kind and its kernel.
BINARY_CONV_KERNELS = {"binary-conv-3x3": 3, "binary-conv-1x1": 1, "downsample": 3}
# Each layer kind and the LayerSpec keys it takes besides kind and out; every
# other key keeps its default. The spec reader, validate and to_text read it.
KIND_KEYS = {"stem-conv": ("stride", "kernel", "pool"),
             **dict.fromkeys(BINARY_CONV_KERNELS, ("stride", "dynamic")),
             "binary-mlp": ("stride", "branches"), "classifier": ()}
# Each binary kind's stride and its output widths, as multiples of c_in.
BINARY_SHAPES = {"binary-conv-3x3": (1, (1,)), "binary-conv-1x1": (1, (1, 2)),
                 "downsample": (2, (1, 2)), "binary-mlp": (1, (1,))}

CHECKPOINT_MAGIC = b"BCTX"
CHECKPOINT_VERSION = 1


class SpecError(ValueError):
    """Invalid or inconsistent network specification, at layer index `layer`."""
    layer = None  # set by NetworkSpec.validate


class ReplacementError(SpecError):
    """A conv-to-MLP replacement count that the base network cannot meet."""


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

    def __post_init__(self):  # a list of branches is the equal tuple's spec
        self.branches = tuple(self.branches)

    def validate(self):
        if self.kind not in KIND_KEYS:
            raise SpecError(f"unknown layer kind {self.kind!r}")
        if min(self.c_out, self.stride, self.kernel) < 1:
            raise SpecError(f"{self.kind} needs positive out, stride and kernel")
        for key, default in _LAYER_DEFAULTS.items():
            if key not in KIND_KEYS[self.kind] and getattr(self, key) != default:
                raise SpecError(_takes_no(self.kind, key))
        if self.kind == "stem-conv" and self.kernel % 2 == 0:
            raise SpecError(f"stem-conv kernel must be odd, got {self.kernel}")
        if self.kind in BINARY_SHAPES:
            stride, widths = BINARY_SHAPES[self.kind]
            outs = [m * self.c_in for m in widths]
            if self.stride != stride or self.c_out not in outs:
                raise SpecError(f"{self.kind} takes stride {stride} and out in {outs}; "
                                f"got stride {self.stride}, {self.c_in} -> {self.c_out}")
        if self.kind == "binary-mlp" and (len(self.branches) != 3 or any(
                b not in BRANCH_KINDS for b in self.branches)):
            raise SpecError(f"bad branch assignment {self.branches!r}")
        # The MLP block's token shifts and the dynamic embedding's bottleneck
        # both split the input channels in quarters.
        if (self.kind == "binary-mlp" or self.dynamic) and self.c_in % 4 != 0:
            kind = f"dynamic {self.kind}" if self.dynamic else self.kind
            raise SpecError(f"{kind} needs channels divisible by 4, got {self.c_in}")

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

    def __post_init__(self):  # a list input_hw is the equal tuple's spec
        self.input_hw = tuple(self.input_hw)

    def validate(self):
        h, w = self.input_hw
        if min(h, w, self.in_channels, self.classes) < 1:
            raise SpecError(f"input {h}x{w}, in_channels {self.in_channels} and "
                            f"classes {self.classes} must be positive")
        # The name is written as one `name = ...` line of to_text.
        if "#" in self.name or self.name != self.name.strip() \
                or len(self.name.splitlines()) > 1:
            raise SpecError(f"name {self.name!r} holds '#' or a line break, or "
                            "surrounding whitespace, so a spec file cannot hold it")
        if not self.layers:
            raise SpecError(f"{self.name}: empty layer list")
        last = len(self.layers) - 1
        c = self.in_channels
        for i, ls in enumerate(self.layers):
            try:
                if i == 0 and ls.kind != "stem-conv":
                    raise SpecError("first layer must be the full-precision stem, "
                                    f"got {ls.kind}")
                if i == last and ls.kind != "classifier":
                    raise SpecError("last layer must be the full-precision "
                                    f"classifier, got {ls.kind}")
                ls.validate()
                if ls.c_in != c:
                    raise SpecError(f"layer {i} ({ls.kind}) expects {ls.c_in} "
                                    f"channels, chain has {c}")
                if ls.kind == "binary-mlp" and (h < 2 or w < 2):
                    raise SpecError(f"binary-mlp at layer {i} needs h,w >= 2, got {h}x{w}")
                if ls.kind == "classifier":
                    if i != last:
                        raise SpecError(f"classifier at layer {i} must be last")
                    if ls.c_out != self.classes:
                        raise SpecError(f"classifier out = {ls.c_out} is not "
                                        f"classes = {self.classes}")
                    continue
                if h % ls.divisor or w % ls.divisor:
                    raise SpecError(f"layer {i} downsamples {h}x{w} "
                                    f"not divisible by {ls.divisor}")
            except SpecError as e:
                e.layer = i
                raise
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
            lines += ["[layer]", f"kind = {ls.kind}", f"out = {ls.c_out}"]
            # stride and kernel are always written; a flag or branches when set
            for key in KIND_KEYS[ls.kind]:
                value = getattr(ls, key)
                if key in ("stride", "kernel") or value != _LAYER_DEFAULTS[key]:
                    lines.append(f"{key} = " + (",".join(value) if key == "branches"
                                                else str(value).lower()))
            lines.append("")
        return "\n".join(lines)


# The LayerSpec keys that have a default: all but kind, c_in and c_out.
_LAYER_DEFAULTS = {f.name: f.default for f in fields(LayerSpec) if f.default is not MISSING}


def _takes_no(kind: str, key: str) -> str:
    takers = [k for k, keys in KIND_KEYS.items() if key in keys]
    return f"{kind} takes no {key!r}; only {', '.join(takers)} take it"


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


def parse_branches(v: str) -> tuple:
    """A comma list of branch kinds, as a binary-mlp's branches."""
    return tuple(b.strip() for b in v.split(","))


# Each section's keys and the parser of each key's value.
_SECTION_KEYS = {
    "network": {"name": str, "input": _hxw, "in_channels": _positive,
                "classes": _positive},
    "layer": {"kind": str, "out": _positive, "stride": _positive,
              "kernel": _positive, "dynamic": _flag, "branches": parse_branches,
              "pool": _flag},
}
_EXPECTED = {_positive: "a positive integer", _hxw: "HxW of positive integers",
             _flag: "true or false"}
# A classifier's width comes from [network] classes, so it needs no "out".
_REQUIRED_KEYS = {"network": ("input", "classes"), "layer": ("kind", "out")}


def parse_network_spec(text: str) -> NetworkSpec:
    """Parse the plain-text key-value spec format emitted by to_text(). A
    [layer] key that its kind does not take (KIND_KEYS) is rejected even at
    its default; every error names its line."""
    sections = []
    for ln, name, key, val in iter_ini(text, SpecError, _SECTION_KEYS, ("layer",)):
        if key is None:
            sections.append((ln, name, {}))
        else:
            kind = _SECTION_KEYS[name][key]
            try:
                sections[-1][2][key] = kind(val)
            except ValueError:
                raise SpecError(f"line {ln}: {key} = {val!r} is not "
                                f"{_EXPECTED[kind]}") from None
    net = None
    layers = []  # ([layer] line, keys) per layer
    for ln, name, sec in sections:
        for key in _REQUIRED_KEYS[name]:
            if key not in sec and not (key == "out" and sec.get("kind") == "classifier"):
                raise SpecError(f"line {ln}: [{name}] lacks required key {key!r}")
        if name == "network":
            net_ln, net = ln, NetworkSpec(sec.pop("name", "unnamed"), sec.pop("input"), **sec)
        else:
            layers.append((ln, sec))
    if net is None:
        raise SpecError("line 1: missing [network] section")
    c = net.in_channels
    for ln, sec in layers:
        kind = sec.pop("kind")
        for key in sec:  # an unknown kind is left to validate to name
            if key != "out" and key not in KIND_KEYS.get(kind, sec):
                raise SpecError(f"line {ln}: {_takes_no(kind, key)}")
        ls = LayerSpec(kind, c, sec.pop("out", net.classes), **sec)
        net.layers.append(ls)
        c = ls.c_out  # validate stops at a classifier that is not last
    try:
        return net.validate()
    except SpecError as e:
        ln = net_ln if e.layer is None else layers[e.layer][0]
        raise SpecError(f"line {ln}: {e}") from None


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
        return {f"L{i:02d}.{name}": p for i, layer in enumerate(self.layers)
                for name, p in layer.params().items()}

    def buffers(self) -> dict:
        return {f"L{i:02d}.{name}": b for i, layer in enumerate(self.layers)
                for name, b in layer.buffers().items()}

    def zero_grad(self):
        for p in self.params().values():
            p.grad = None

    def forward(self, x: np.ndarray, training=False, surrogate=False):
        """Float-graph forward; returns the logits Tensor."""
        x = ag.Tensor(self._input(x))
        st = ForwardState(training=training, binary_weights=self.binary_weights,
                          surrogate=surrogate)
        for layer in self.layers:
            x = layer.forward(x, st)
        return x

    def forward_packed(self, x: np.ndarray) -> np.ndarray:
        """Evaluation forward with every binary core on the bit-packed kernels
        (evaluation statistics, binary weights); equals forward() exactly."""
        if not self.binary_weights:
            raise ValueError("packed execution requires binarized weights; "
                             f"the network is at step {self.step}")
        x = self._input(x)
        for layer in self.layers:
            x = layer.infer_packed(x)
        return x

    def _input(self, x) -> np.ndarray:
        """x as an array, checked against the spec's input shape, cast to the
        network's dtype."""
        x = np.asarray(x)
        want = (self.spec.in_channels, *self.spec.input_hw)
        if x.ndim != 4 or x.shape[1:] != want:
            got = "x".join(map(str, x.shape[1:])) if x.ndim == 4 else f"of rank {x.ndim}"
            raise ValueError(f"input {got} does not match spec "
                             f"{'x'.join(map(str, want))} (an N x C x H x W batch)")
        return np.ascontiguousarray(x, dtype=self.dtype)

    def state_arrays(self) -> dict:
        arrays = {f"p.{k}": p.data for k, p in self.params().items()}
        arrays.update({f"b.{k}": b for k, b in self.buffers().items()})
        return arrays

    def load_state_arrays(self, arrays: dict):
        """Copy named tensors into the network's own arrays. A missing
        tensor, a tensor the network has no place for and a shape mismatch
        raise CheckpointError before any array is written."""
        for name, dst in self._placed(arrays).items():
            dst[...] = arrays[name].astype(dst.dtype)

    def _placed(self, arrays: dict) -> dict:
        """The network's own arrays by name, once arrays is found to hold each
        name at its shape and no other name; else CheckpointError."""
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
        return own


def build(spec: NetworkSpec, seed: int = 0, dtype=np.float32) -> Network:
    """Materialize a spec into an executable network (deterministic init)."""
    if np.dtype(dtype) not in _DTYPE_CODES:
        raise ValueError(f"network dtype {np.dtype(dtype)} is not one of "
                         f"{', '.join(map(str, _DTYPE_CODES))}")
    spec.validate()
    rng = np.random.default_rng(seed)
    layers = []
    for ls in spec.layers:
        if ls.kind == "stem-conv":
            layers.append(StemConv(ls.c_in, ls.c_out, ls.stride, rng, dtype,
                                   kernel=ls.kernel, pool=ls.pool))
        elif ls.kind in BINARY_CONV_KERNELS:
            layers.append(BinaryConvBlock(ls.c_in, ls.c_out, BINARY_CONV_KERNELS[ls.kind],
                                          ls.stride, rng, dtype, dynamic=ls.dynamic))
        elif ls.kind == "binary-mlp":
            layers.append(BinaryMlpBlock(ls.c_in, rng, dtype, branches=ls.branches))
        elif ls.kind == "classifier":
            layers.append(Classifier(ls.c_in, spec.classes, rng, dtype))
    return Network(spec, layers, dtype)


# ---------------------------------------------------------------------------
# presets


def replace_trailing_convs(spec: NetworkSpec, n_mlp: int) -> NetworkSpec:
    """Swap the last n_mlp/3 stride-1 3x3 conv blocks for MLP triples.

    Downsampling blocks are never replaced; a count that is not a whole
    number of eligible blocks raises ReplacementError.
    """
    if n_mlp < 0 or n_mlp % 3 != 0:
        raise ReplacementError("replacement converts whole conv blocks (3 MLPs each), "
                               f"got n_mlp = {n_mlp}")
    candidates = [i for i, ls in enumerate(spec.layers)
                  if ls.kind == "binary-conv-3x3" and ls.c_in % 4 == 0]
    k = n_mlp // 3
    if k > len(candidates):
        raise ReplacementError(f"cannot replace {k} conv blocks; only {len(candidates)} "
                               "eligible (downsampling layers are never replaced)")
    chosen = set(candidates[len(candidates) - k:])
    layers = []
    for i, ls in enumerate(spec.layers):
        if i in chosen:
            layers.extend(LayerSpec("binary-mlp", ls.c_in, ls.c_in) for _ in range(3))
        else:
            layers.append(ls)
    name = f"{spec.name}-mlp{n_mlp}" if n_mlp else spec.name
    return NetworkSpec(name, spec.input_hw, spec.classes, layers,
                       spec.in_channels).validate()


# (c_out of the 1x1 conv, stride of the 3x3 conv) per MobileNet-V1 pair
_MOBILENET_PAIRS = [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
                    (512, 1), (512, 1), (512, 1), (512, 1), (512, 1), (1024, 2),
                    (1024, 1)]


def bcdnet_a_like(classes=1000) -> NetworkSpec:
    """MobileNet-V1-shaped binary network with the last three stride-1 3x3
    blocks swapped for three binary MLP blocks each (11 conv + 9 MLP)."""
    layers = [LayerSpec("stem-conv", 3, 32, stride=2)]
    for c_out, stride in _MOBILENET_PAIRS:
        c = layers[-1].c_out
        kind = "downsample" if stride == 2 else "binary-conv-3x3"
        layers += [LayerSpec(kind, c, c, stride=stride),
                   LayerSpec("binary-conv-1x1", c, c_out)]
    layers.append(LayerSpec("classifier", 1024, classes))
    base = NetworkSpec("mobilenet-v1", (224, 224), classes, layers)
    spec = replace_trailing_convs(base, 9)
    spec.name = "bcdnet-a-like"
    return spec


def bcdnet_b_like(classes=1000) -> NetworkSpec:
    """bcdnet-a-like plus dynamic contextual embeddings in the CNN stage,
    every binary layer before the first MLP block."""
    spec = bcdnet_a_like(classes)
    cnn_stage = spec.layers[1:[ls.kind for ls in spec.layers].index("binary-mlp")]
    for ls in cnn_stage:
        ls.dynamic = True
    spec.name = "bcdnet-b-like"
    return spec.validate()


def reactnet18_like(classes=1000, mlp_tail=False) -> NetworkSpec:
    """ResNet-18-shaped binary network (one conv per residual block); with
    mlp_tail, "reactnet18-mlp-like", the three stride-1 convs of the last
    stage become 9 binary MLP blocks."""
    layers = [LayerSpec("stem-conv", 3, 64, stride=2, kernel=7, pool=True)]
    layers += [LayerSpec("binary-conv-3x3", 64, 64) for _ in range(4)]
    for c in (128, 256, 512):  # each later stage opens with a downsample
        layers.append(LayerSpec("downsample", c // 2, c, stride=2))
        layers += [LayerSpec("binary-conv-3x3", c, c) for _ in range(3)]
    layers.append(LayerSpec("classifier", 512, classes))
    spec = NetworkSpec("reactnet18-like", (224, 224), classes, layers)
    if mlp_tail:
        spec = replace_trailing_convs(spec, 9)
        spec.name = "reactnet18-mlp-like"
    return spec.validate()


def desk_tiny(classes=10, branches=("point", "short", "long"),
              dynamic=False) -> NetworkSpec:
    """4 binary conv blocks + 3 binary MLP blocks at 32x32 input."""
    layers = [
        LayerSpec("stem-conv", 3, 32, stride=2),
        LayerSpec("downsample", 32, 64, stride=2, dynamic=dynamic),
        *[LayerSpec("binary-conv-3x3", 64, 64, dynamic=dynamic) for _ in range(3)],
        *[LayerSpec("binary-mlp", 64, 64, branches=branches) for _ in range(3)],
        LayerSpec("classifier", 64, classes),
    ]
    return NetworkSpec("desk-tiny", (32, 32), classes, layers).validate()


def desk_micro(classes=10, branches=("point", "short", "long")) -> NetworkSpec:
    """Small single-channel variant for fast paired-comparison runs; the
    shallow conv stage leaves half-image relations to the MLP stage."""
    layers = [
        LayerSpec("stem-conv", 1, 16, stride=2),
        LayerSpec("downsample", 16, 32, stride=2),
        *[LayerSpec("binary-mlp", 32, 32, branches=branches) for _ in range(3)],
        LayerSpec("classifier", 32, classes),
    ]
    return NetworkSpec("desk-micro", (16, 16), classes, layers,
                       in_channels=1).validate()


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
    """Parse a checkpoint file into (spec, metadata, arrays), reading the
    older name of a dynamic block's `thr`, `dyn.b_beta`, as `thr`. A body
    that does not parse to its last byte raises CheckpointError."""
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

    def text(len_fmt, what):  # a length-prefixed UTF-8 string
        try:
            return sized(len_fmt).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not UTF-8") from None

    (version,) = unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
        )
    spec_text = text("<I", "spec text")
    if hashlib.sha256(spec_text.encode()).digest() != bytes(take(32)):
        raise CheckpointChecksumError(f"{path}: spec hash mismatch")
    meta = _metadata(sized("<I"), path)
    arrays = {}
    for i in range(unpack("<I")[0]):
        name = text("<H", f"tensor {i}'s name").replace(".dyn.b_beta", ".thr")
        if name in arrays:
            raise CheckpointError(f"{path}: tensor {name} is listed twice")
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
    if off != len(body):
        raise CheckpointError(f"{path}: {len(body) - off} bytes follow the last tensor")
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
    net.step = meta["step"]
    return net


def load_into(net: Network, path) -> Network:
    """Load checkpoint tensors into an existing network, which may extend
    the checkpoint's plain one with dynamic embeddings: a dynamic block is
    its plain block plus an embedding, so absent `dyn.*` parameters, inert
    as built (W2 = W3 = 0), keep their values and the network computes what
    the checkpoint did. Older checkpoints' `dyn.b_beta` loads as `thr` (see
    read_checkpoint). Otherwise the specs may differ only in name."""
    spec, meta, arrays = read_checkpoint(path)
    for name, own in net.state_arrays().items():
        if ".dyn." in name:
            arrays.setdefault(name, own)
    net._placed(arrays)  # names and shapes first, then the architecture
    _check_architecture(spec, net.spec, path)
    net.load_state_arrays(arrays)
    net.step = meta["step"]
    return net


def _check_architecture(saved: NetworkSpec, own: NetworkSpec, path):
    """Raise CheckpointError at the first difference between a checkpoint's
    spec and a network's, but for the name and plain layers made dynamic."""
    pairs = [("spec", replace(saved, name=own.name, layers=len(saved.layers)),
              replace(own, layers=len(own.layers)))]
    pairs += [(f"layer {i} ({a.kind})", replace(a, dynamic=a.dynamic or b.dynamic), b)
              for i, (a, b) in enumerate(zip(saved.layers, own.layers))]
    for where, a, b in pairs:
        diff = [f"{f.name} {getattr(a, f.name)!r} -> {getattr(b, f.name)!r}"
                for f in fields(a) if getattr(a, f.name) != getattr(b, f.name)]
        if diff:
            raise CheckpointError(f"{path}: {where} differs: {', '.join(diff)} "
                                  "(checkpoint -> network)")


def _metadata(blob: bytes, path) -> dict:
    """The checkpoint's metadata block, a JSON object whose step is the
    integer 0, 1 or 2 and whose binary_weights, when present, is the bool
    that step implies; anything else raises CheckpointError."""
    try:
        meta = json.loads(blob)
        step = meta.get("step")
    except (ValueError, AttributeError):  # not JSON, or JSON but not an object
        raise CheckpointError(f"{path}: metadata is not a JSON object") from None
    if type(step) is not int or step not in (0, 1, 2):
        raise CheckpointError(f"{path}: metadata step = {step!r} is not 0, 1 or 2")
    binary = meta.get("binary_weights", step != 1)
    if binary is not (step != 1):  # a bool, and the one the step implies
        raise CheckpointError(f"{path}: metadata binary_weights = {binary!r} "
                              f"contradicts step {step}")
    return meta
