"""Every fail-loud rule raises its typed error, and its message names the
value that broke it. Each case is (error type, text the message must hold,
call that must raise)."""

import re
import struct
import zlib

import numpy as np
import pytest

from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from bitcontext import blocks as bk
from bitcontext import cli
from bitcontext import config
from bitcontext import data as dt
from bitcontext import network as nw

STEM = nw.LayerSpec("stem-conv", 3, 8, stride=2)
HEAD = nw.LayerSpec("classifier", 8, 3)


def _net(*layers, hw=(8, 8)):
    return nw.NetworkSpec("net", hw, 3, list(layers)).validate()


def _stepped_net(step):
    net = nw.build(nw.desk_micro(), seed=0)
    net.step = step
    return net


def _rewrite_body(path, edit):
    """Apply edit to a checkpoint's bytes before its CRC, then recompute the
    CRC so the edited file gets past the checksum."""
    body = bytearray(open(path, "rb").read()[:-4])
    edit(body)
    with open(path, "wb") as f:
        f.write(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def _saved(tmp_path, edit=None):
    path = str(tmp_path / "ck.bin")
    nw.save(nw.build(nw.desk_micro(), seed=0), path)
    if edit is not None:
        _rewrite_body(path, edit)
    return path


def _flip_spec_hash(body):
    (n,) = struct.unpack_from("<I", body, 8)  # after magic and version
    body[12 + n] ^= 0xFF  # first byte of the spec's sha256


def _grow_first_tensor(body):
    """Claim 4 more bytes for the first tensor than its shape holds."""
    name = b"b.L00.running_mean"
    at = body.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
    ndim = body[at + 1]
    at += 2 + 4 * ndim
    (nbytes,) = struct.unpack_from("<Q", body, at)
    struct.pack_into("<Q", body, at, nbytes + 4)


def _read_file(tmp_path, name, data, read):
    path = tmp_path / name
    path.write_bytes(data)
    return read(str(path))


CASES = {
    # network.LayerSpec.validate
    "unknown-kind": (nw.SpecError, "'conv-5x5'",
                     lambda tp: nw.LayerSpec("conv-5x5", 8, 8).validate()),
    "bad-branches": (nw.SpecError, "'wide'", lambda tp: nw.LayerSpec(
        "binary-mlp", 8, 8, branches=("point", "short", "wide")).validate()),
    "3x3-strided": (nw.SpecError, "got stride 2, 8 -> 8", lambda tp: nw.LayerSpec(
        "binary-conv-3x3", 8, 8, stride=2).validate()),
    "3x3-widening": (nw.SpecError, "got stride 1, 8 -> 16", lambda tp: nw.LayerSpec(
        "binary-conv-3x3", 8, 16).validate()),
    "1x1-strided": (nw.SpecError, "takes stride 1 and out in [8, 16]; got stride 2",
                    lambda tp: nw.LayerSpec("binary-conv-1x1", 8, 8, stride=2).validate()),
    "downsample-stride-1": (nw.SpecError, "takes stride 2 and out in [8, 16]; got stride 1",
                            lambda tp: nw.LayerSpec("downsample", 8, 16).validate()),
    "1x1-width": (nw.SpecError, "got stride 1, 8 -> 24", lambda tp: nw.LayerSpec(
        "binary-conv-1x1", 8, 24).validate()),
    # network.NetworkSpec.validate
    "no-layers": (nw.SpecError, "bare: empty layer list",
                  lambda tp: nw.NetworkSpec("bare", (8, 8), 3, []).validate()),
    "first-not-stem": (nw.SpecError, "got binary-conv-3x3", lambda tp: _net(
        nw.LayerSpec("binary-conv-3x3", 3, 3), HEAD)),
    "last-not-classifier": (nw.SpecError, "got binary-conv-3x3", lambda tp: _net(
        STEM, nw.LayerSpec("binary-conv-3x3", 8, 8))),
    "mlp-too-small": (nw.SpecError, "got 1x1", lambda tp: _net(
        STEM, nw.LayerSpec("binary-mlp", 8, 8), HEAD, hw=(2, 2))),
    "classifier-not-last": (nw.SpecError, "classifier at layer 1", lambda tp: _net(
        STEM, HEAD, HEAD)),
    # network spec files
    "unknown-section": (nw.SpecError, "line 2: unknown section [net]",
                        lambda tp: nw.parse_network_spec("# spec\n[net]\n")),
    "no-network-section": (nw.SpecError, "missing [network] section",
                           lambda tp: nw.parse_network_spec("[layer]\nkind = classifier\n")),
    "no-layers-in-file": (nw.SpecError, "line 2: unnamed: empty layer list",
                          lambda tp: nw.parse_network_spec(
                              "# spec\n[network]\ninput = 8x8\nclasses = 3\n")),
    # network.Network and presets
    "packed-at-step-1": (ValueError, "at step 1", lambda tp: _stepped_net(1).forward_packed(
        np.zeros((1, 1, 16, 16), np.float32))),
    "unknown-preset": (nw.SpecError, "'resnet'", lambda tp: nw.preset("resnet")),
    # network checkpoints
    "not-a-checkpoint": (nw.CheckpointError, "junk.bin: not a checkpoint", lambda tp: _read_file(
        tp, "junk.bin", b"not a checkpoint at all", nw.read_checkpoint)),
    "spec-hash": (nw.CheckpointChecksumError, "ck.bin: spec hash mismatch",
                  lambda tp: nw.read_checkpoint(_saved(tp, _flip_spec_hash))),
    "tensor-bytes": (nw.CheckpointError, "b.L00.running_mean holds 68 bytes",
                     lambda tp: nw.read_checkpoint(_saved(tp, _grow_first_tensor))),
    # config
    "no-equals": (config.ConfigError, "line 2: expected 'key = value', got 'lr 2'",
                  lambda tp: config.parse_config("[train]\nlr 2\n")),
    "unknown-config-section": (config.ConfigError, "line 1: unknown section [trian]",
                               lambda tp: config.parse_config("[trian]\n")),
    "unknown-config-key": (config.ConfigError, "line 2: unknown key train.rate",
                           lambda tp: config.parse_config("[train]\nrate = 1\n")),
    "missing-config": (config.ConfigError, "nope.cfg",
                       lambda tp: config.load_config(str(tp / "nope.cfg"))),
    "override-form": (config.ConfigError, "'train.lr'", lambda tp: config.apply_overrides(
        config.parse_config(""), ["train.lr"])),
    # cli
    "missing-spec-file": (cli.RuntimeFailure, "nope.spec", lambda tp: cli._network_spec(
        config.apply_overrides(config.parse_config(""),
                               [f"network.spec_file={tp / 'nope.spec'}"]))),
    # data
    "idx-dtype": (ValueError, "int64", lambda tp: dt.write_idx(
        str(tp / "x.idx"), np.zeros(3, np.int64))),
    "cifar-size": (ValueError, "short.bin: size", lambda tp: _read_file(
        tp, "short.bin", bytes(10), dt.read_cifar_bin)),
    # bittensor
    "gemm-rank": (bt.DimensionError, "got (1, 8, 2, 2), (4, 8)", lambda tp: bt.binary_gemm(
        bt.pack(np.ones((1, 8, 2, 2))), bt.pack(np.ones((4, 8))), np.ones(4))),
    "empty-bank": (ValueError, "(0, 3)", lambda tp: bt.weight_scale(np.zeros((0, 3)))),
    # autograd
    "linear-width": (bt.DimensionError, "input width 3 != weight rows 4", lambda tp: ag.linear(
        ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((4, 5))))),
    "conv-stride": (ValueError, "got 0", lambda tp: ag.conv2d(
        ag.Tensor(np.zeros((1, 4, 4, 4))), ag.Tensor(np.zeros((4, 4, 3, 3))), stride=0)),
    "shift-channels": (bt.DimensionError, "channels 6", lambda tp: ag.quartile_shift(
        ag.Tensor(np.zeros((1, 6, 4, 4))), bk.SHORT_OFFSETS)),
    "pool-odd": (bt.DimensionError, "got 3x4", lambda tp: ag.avgpool2(
        ag.Tensor(np.zeros((1, 4, 3, 4))))),
    # blocks
    "reconstruct-rank": (bt.DimensionError, "got shape (2, 8)",
                         lambda tp: bk.reconstruct_short(bt.pack(np.ones((2, 8))))),
    "skip-width": (bt.DimensionError, "8 -> 12", lambda tp: bk.BinaryConvBlock(
        8, 12, 1, 1, np.random.default_rng(0)).forward(
        ag.Tensor(np.zeros((1, 8, 2, 2), np.float32)), bk.ForwardState())),
    "mlp-channels": (bt.DimensionError, "got 6",
                     lambda tp: bk.BinaryMlpBlock(6, np.random.default_rng(0))),
    "mlp-branch": (ValueError, "'wide'", lambda tp: bk.BinaryMlpBlock(
        8, np.random.default_rng(0), branches=("point", "short", "wide"))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_rule_raises_its_error_naming_the_value(case, tmp_path):
    error, names, call = CASES[case]
    with pytest.raises(error, match=re.escape(names)):
        call(tmp_path)
