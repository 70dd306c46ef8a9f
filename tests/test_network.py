import hashlib
import os
import re
import struct
import types
import zlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitcontext import autograd as ag
from bitcontext import network as nw
from bitcontext import train as tr
from bitcontext.config import ConfigError, parse_config
from bitcontext.data import Dataset
from conftest import (binarize_oracle, dense_conv_oracle, reconstruct_oracle,
                      rewrite_metadata)
from bitcontext import blocks as bk


class TestSpecs:
    def test_bcdnet_a_like_composition(self):
        spec = nw.bcdnet_a_like()
        kinds = [ls.kind for ls in spec.layers]
        n_mlp = kinds.count("binary-mlp")
        n_conv3 = kinds.count("binary-conv-3x3") + kinds.count("downsample")
        assert n_mlp == 9
        # 11 convolutional blocks: the stem plus ten remaining 3x3/downsample
        assert 1 + n_conv3 == 11
        assert kinds.count("binary-conv-1x1") == 13
        # conv block distribution per output resolution: 1,1,2,2,4,1
        hw = 224
        dist = {}
        for ls in spec.layers:
            if ls.kind in ("stem-conv", "binary-conv-3x3", "downsample"):
                hw_out = hw // ls.stride
                dist[hw_out] = dist.get(hw_out, 0) + 1
            if ls.kind != "classifier":
                hw //= ls.stride
        assert [dist[r] for r in (112, 56, 28, 14, 7)] == [2, 2, 2, 4, 1]

    def test_bcdnet_b_dynamic_only_in_cnn_stage(self):
        spec = nw.bcdnet_b_like()
        seen_mlp = False
        for ls in spec.layers:
            if ls.kind == "binary-mlp":
                seen_mlp = True
            if ls.kind in ("binary-conv-3x3", "binary-conv-1x1", "downsample"):
                assert ls.dynamic == (not seen_mlp)

    def test_reactnet18_variants(self):
        base = nw.reactnet18_like()
        mlp = nw.reactnet18_like(mlp_tail=True)
        kinds_b = [ls.kind for ls in base.layers]
        kinds_m = [ls.kind for ls in mlp.layers]
        assert kinds_b.count("binary-mlp") == 0
        assert kinds_m.count("binary-mlp") == 9
        n3 = kinds_b.count("binary-conv-3x3")
        assert n3 - kinds_m.count("binary-conv-3x3") == 3
        assert kinds_m.count("downsample") == kinds_b.count("downsample")

    def test_desk_tiny_composition(self):
        spec = nw.desk_tiny()
        kinds = [ls.kind for ls in spec.layers]
        assert kinds.count("binary-mlp") == 3
        assert kinds.count("binary-conv-3x3") + kinds.count("downsample") == 4
        for ls in spec.layers:
            if ls.kind == "binary-mlp":
                assert ls.c_in % 4 == 0

    def test_replacing_conv_with_three_mlps_preserves_chain(self):
        """The structural precondition behind the replacement sweeps."""
        for spec_fn in (nw.desk_tiny, nw.reactnet18_like, nw.bcdnet_a_like):
            spec = spec_fn()
            for i, ls in enumerate(spec.layers):
                if ls.kind == "binary-conv-3x3" and ls.c_in % 4 == 0:
                    layers = (spec.layers[:i]
                              + [nw.LayerSpec("binary-mlp", ls.c_in, ls.c_in)] * 3
                              + spec.layers[i + 1:])
                    nw.NetworkSpec("swap", spec.input_hw, spec.classes,
                                   layers, spec.in_channels).validate()

    def test_shape_chain_violation_rejected(self):
        layers = [
            nw.LayerSpec("stem-conv", 3, 16, stride=2),
            nw.LayerSpec("binary-conv-3x3", 32, 32),
            nw.LayerSpec("classifier", 32, 10),
        ]
        with pytest.raises(nw.SpecError):
            nw.NetworkSpec("bad", (16, 16), 10, layers).validate()

    def test_indivisible_mlp_channels_rejected(self):
        with pytest.raises(nw.SpecError):
            nw.LayerSpec("binary-mlp", 6, 6).validate()

    @pytest.mark.parametrize("kind,c_out,stride", [
        ("downsample", 12, 2), ("binary-conv-1x1", 6, 1), ("binary-conv-3x3", 6, 1)])
    def test_dynamic_layer_needs_channels_divisible_by_4(self, kind, c_out, stride):
        """A dynamic embedding's bottleneck is c_in/4 wide, so a 6-channel
        input is rejected both in code and in a spec file, by its line."""
        match = f"dynamic {kind} needs channels divisible by 4"
        with pytest.raises(nw.SpecError, match=match):
            nw.LayerSpec(kind, 6, c_out, stride=stride, dynamic=True).validate()
        nw.LayerSpec(kind, 8, c_out * 8 // 6, stride=stride, dynamic=True).validate()
        text = ("[network]\ninput = 8x8\nclasses = 10\n"
                "[layer]\nkind = stem-conv\nout = 6\nstride = 1\n"
                f"[layer]\nkind = {kind}\nout = {c_out}\nstride = {stride}\n"
                "dynamic = true\n[layer]\nkind = classifier\n")
        with pytest.raises(nw.SpecError, match=f"line 8: {match}, got 6"):
            nw.parse_network_spec(text)
        nw.parse_network_spec(text.replace("dynamic = true\n", ""))

    # sha256 of each preset's to_text(); a change to the builders keeps them.
    PRESET_SPEC_SHA256 = {
        "bcdnet-a-like": "ac7e6fb7bbe8feb9a5d2ddb15548e2436d28018a0bf00aef5a60f73e93e955d4",
        "bcdnet-b-like": "1c77f3abc3fa2a56bcac55e03874b64bd3217100043f795726ca845d63a74c74",
        "reactnet18-like": "e1b2c85e4bd8b4e4281dfddc865b4dbdc8dc3148873aa61afb592c8bafaa9033",
        "mlp_tail": "06e3a4c9f88810d4c824898a8b401a46b7debdb99e68317a072bba09ea83e546",
        "desk-tiny": "13c525e898b7086751f2482ec0df2f83aef9ddff8e4149fa5eb0d0799a930593",
        "desk-micro": "d6cdbfb343769f09f7e03b8f3e8151f8cf019cdd1585ca0573e258382b84044a",
        "desk-sweep": "527cc11214042b64d252edbe904906479562f53a4cb6fc26c98d8138c38dbbad",
    }

    @pytest.mark.parametrize("name", sorted(PRESET_SPEC_SHA256))
    def test_preset_spec_text_is_pinned(self, name):
        """Presets built through replace_trailing_convs keep their texts."""
        spec = nw.reactnet18_like(mlp_tail=True) if name == "mlp_tail" else nw.preset(name)
        assert hashlib.sha256(spec.to_text().encode()).hexdigest() \
            == self.PRESET_SPEC_SHA256[name]

    def test_spec_text_roundtrip(self):
        for spec in (nw.desk_tiny(dynamic=True), nw.bcdnet_b_like(),
                     nw.reactnet18_like(mlp_tail=True),
                     nw.desk_micro(branches=("point", "long", "long"))):
            text = spec.to_text()
            again = nw.parse_network_spec(text)
            assert again.to_text() == text

    @pytest.mark.parametrize("parse,error", [
        (nw.parse_network_spec, nw.SpecError), (parse_config, ConfigError)])
    def test_key_outside_section_reports_its_line(self, parse, error):
        with pytest.raises(error, match="line 2"):
            parse("# comment\nname = x\n[network]\n")

    @pytest.mark.parametrize("text,line,key", [
        ("[network]\nclasses = 3\n", 1, "input"),
        ("# spec\n[network]\ninput = 8x8\n", 2, "classes"),
        ("[network]\ninput = 8x8\nclasses = 3\n\n[layer]\nout = 8\n", 5, "kind"),
        ("[network]\ninput = 8x8\nclasses = 3\n[layer]\nkind = stem-conv\n", 4, "out"),
    ])
    def test_missing_required_key_names_its_section_line(self, text, line, key):
        with pytest.raises(nw.SpecError, match=f"line {line}: .* '{key}'"):
            nw.parse_network_spec(text)

    @pytest.mark.parametrize("bad,line", [
        ("input = 32", 3),
        ("classes = three", 4),
        ("dynamic = maybe", 7),
        ("pool = yes", 7),
    ])
    def test_malformed_value_names_its_line(self, bad, line):
        key = bad.split(" = ")[0]
        text = ("# spec\n[network]\ninput = 8x8\nclasses = 3\n[layer]\n"
                "kind = stem-conv\nout = 8\n[layer]\nkind = classifier\n")
        lines = text.splitlines()
        if key in ("input", "classes"):
            lines[line - 1] = bad
        else:
            lines.insert(line - 1, bad)
        with pytest.raises(nw.SpecError, match=f"line {line}: {key} = '"):
            nw.parse_network_spec("\n".join(lines))

    @pytest.mark.parametrize("ls", [
        nw.LayerSpec("binary-conv-3x3", 8, 8, pool=True),
        nw.LayerSpec("binary-mlp", 8, 8, stride=2)])
    def test_pool_or_stride_the_block_lacks_rejected(self, ls):
        with pytest.raises(nw.SpecError):
            ls.validate()

    @pytest.mark.parametrize("section,old", [("network", "classes = 10"),
                                             ("layer", "kind = classifier")])
    def test_unknown_spec_key_names_its_path(self, section, old):
        text = _stem_spec_text().replace(old, f"{old}\nwhat = 1")
        with pytest.raises(nw.SpecError, match=f"unknown key {section}.what"):
            nw.parse_network_spec(text)

    @pytest.mark.parametrize("old,line,key", [
        ("classes = 10", 4, "network.classes"), ("stride = 2", 10, "layer.stride")])
    def test_repeated_spec_key_names_its_line(self, old, line, key):
        """The first value would otherwise be dropped without a word."""
        text = _stem_spec_text().replace(old, f"{old}\n{old}")
        with pytest.raises(nw.SpecError, match=f"line {line}: repeated key {key}"):
            nw.parse_network_spec(text)

    def test_repeated_config_key_names_its_line(self):
        with pytest.raises(ConfigError, match="line 3: repeated key train.lr"):
            parse_config("[train]\nlr = 1\nlr = 2\n")
        # a key may appear once in each of two sections
        cfg = parse_config("[train]\nlr = 1\n[train2]\nlr = 2\n")
        assert (cfg["train"]["lr"], cfg["train2"]["lr"]) == (1.0, 2.0)

    def test_second_config_section_names_its_line(self):
        """A reopened section would otherwise replace the earlier value."""
        for text in ("[train]\nlr = 1\n[train]\nlr = 2\n", "[train]\nlr = 1\n[train]\n"):
            with pytest.raises(ConfigError, match="line 3: a second \\[train\\] section"):
                parse_config(text)
        # a spec file repeats [layer], once per layer
        assert len(nw.parse_network_spec(nw.desk_micro().to_text()).layers) == 6

    def test_second_network_section_names_its_line(self):
        text = "[network]\ninput = 8x8\nclasses = 3\n\n" + nw.desk_micro().to_text()
        with pytest.raises(nw.SpecError, match="line 5: a second \\[network\\] section"):
            nw.parse_network_spec(text)

    def test_classifier_width_is_classes(self):
        stem = nw.LayerSpec("stem-conv", 3, 8, stride=2)
        spec = nw.NetworkSpec("x", (8, 8), 10, [stem, nw.LayerSpec("classifier", 8, 5)])
        with pytest.raises(nw.SpecError, match="classifier out = 5 is not classes = 10"):
            spec.validate()
        text = _stem_spec_text().replace("kind = classifier", "kind = classifier\nout = 5")
        with pytest.raises(nw.SpecError,
                           match="line 12: classifier out = 5 is not classes = 10"):
            nw.parse_network_spec(text)
        for head in ("kind = classifier\nout = 10", "kind = classifier"):
            spec = nw.parse_network_spec(_stem_spec_text().replace("kind = classifier", head))
            assert spec.layers[-1].c_out == 10

    @pytest.mark.parametrize("field,value,named", [
        ("input_hw", (0, 0), "input 0x0"), ("input_hw", (8, -8), "input 8x-8"),
        ("in_channels", 0, "in_channels 0"), ("in_channels", -3, "in_channels -3"),
        ("classes", 0, "classes 0")])
    def test_programmatic_network_values_must_be_positive(self, field, value, named):
        """The file reader's positive-value rule holds for specs built in code."""
        spec = nw.desk_micro()
        setattr(spec, field, value)
        with pytest.raises(nw.SpecError, match=named):
            spec.validate()
        with pytest.raises(nw.SpecError, match=named):
            nw.build(spec)

    def test_spec_parse_rejects_unknown_keys(self):
        text = nw.desk_micro().to_text().replace("classes = 10",
                                                 "classes = 10\nwhat = 1")
        with pytest.raises(nw.SpecError):
            nw.parse_network_spec(text)

    @pytest.mark.parametrize("old,new,line", [
        ("stride = 2", "stride = 0", 9), ("stride = 2", "stride = -1", 9),
        ("kernel = 3", "kernel = 0", 10), ("out = 8", "out = 0", 8),
        ("input = 32x32", "input = 0x0", 2), ("classes = 10", "classes = 0", 3),
        ("input = 32x32", "input = 32x-4", 2)])
    def test_non_positive_value_names_its_line(self, old, new, line):
        text = _stem_spec_text().replace(old, new)
        with pytest.raises(nw.SpecError, match=f"line {line}: .* positive"):
            nw.parse_network_spec(text)

    @pytest.mark.parametrize("stem,match", [
        ("stride = 3\nkernel = 3", "not divisible by 3"),
        ("stride = 1\nkernel = 4", "kernel must be odd"),
        ("stride = 2\nkernel = 2", "kernel must be odd"),
        ("stride = 2\nkernel = 3\npool = true", None),
        ("stride = 3\nkernel = 3\npool = true", "not divisible by 6")])
    def test_stem_counted_resolution_is_built(self, stem, match):
        """At 32x32 a stride-3 stem builds 11x11 and an even kernel one more
        row and column than out_hw counts, so both are rejected."""
        text = _stem_spec_text().replace("stride = 2\nkernel = 3", stem)
        if match is not None:
            with pytest.raises(nw.SpecError, match=match):
                nw.parse_network_spec(text)
        else:
            assert _built_stem_hw(nw.parse_network_spec(text)) == (8, 8)

    @pytest.mark.parametrize("hw,stride,layer,match", [
        (9, 1, "kind = downsample\nout = 8\nstride = 2",
         "layer 1 downsamples 9x9 not divisible by 2"),
        (2, 2, "kind = binary-mlp\nout = 8\nstride = 1",
         "binary-mlp at layer 1 needs h,w >= 2, got 1x1"),
        (8, 2, "kind = classifier", "classifier at layer 1 must be last")])
    def test_network_rule_in_a_spec_file_names_its_line(self, hw, stride, layer, match):
        """NetworkSpec.validate finds these, and the reader names the line
        of the layer it fails at."""
        text = _stem_spec_text(hw, hw).replace("stride = 2", f"stride = {stride}").replace(
            "[layer]\nkind = classifier", f"[layer]\n{layer}\n\n[layer]\nkind = classifier")
        with pytest.raises(nw.SpecError, match=f"^line 12: {re.escape(match)}$"):
            nw.parse_network_spec(text)

    @pytest.mark.parametrize("name", ["x\ny", "a#b", " pad ", "pad\n"])
    def test_name_a_spec_file_cannot_hold_rejected(self, name):
        """to_text writes the name on one `name = ...` line, where a line
        break splits the file and a comment or outer whitespace is dropped,
        so build refuses the spec before any checkpoint holds it."""
        spec = replace(nw.desk_micro(), name=name)
        for call in (spec.validate, lambda: nw.build(spec)):
            with pytest.raises(nw.SpecError, match=re.escape(repr(name))):
                call()
        spec.name = "a = [b] c"
        assert nw.parse_network_spec(spec.to_text()) == spec

    def test_kernel_off_the_stem_rejected(self):
        text = _stem_spec_text().replace(
            "[layer]\nkind = classifier",
            "[layer]\nkind = binary-conv-3x3\nout = 8\nkernel = 5\n\n"
            "[layer]\nkind = classifier")
        with pytest.raises(nw.SpecError, match="line 12: binary-conv-3x3 .*kernel"):
            nw.parse_network_spec(text)

    @pytest.mark.parametrize("kind,key,match", [
        ("binary-mlp", "dynamic = true", "binary-mlp takes no 'dynamic'"),
        ("stem-conv", "dynamic = true", "stem-conv takes no 'dynamic'"),
        ("classifier", "dynamic = true", "classifier takes no 'dynamic'"),
        ("classifier", "stride = 5", "classifier takes no 'stride'"),
        ("binary-conv-3x3", "branches = point,short,long",
         "binary-conv-3x3 takes no 'branches'"),
        ("stem-conv", "branches = long,long,long", "stem-conv takes no 'branches'"),
        ("classifier", "branches = point,point,point",
         "classifier takes no 'branches'"),
        ("binary-mlp", "dynamic = false", "binary-mlp takes no 'dynamic'"),
        ("classifier", "stride = 1", "classifier takes no 'stride'"),
        ("downsample", "pool = false", "downsample takes no 'pool'")])
    def test_key_the_kind_ignores_names_its_line(self, kind, key, match):
        """build would drop each of these keys, so each is a SpecError, even
        at its default value."""
        with pytest.raises(nw.SpecError, match=f"line {_KIND_LINES[kind]}: {match}"):
            nw.parse_network_spec(_kinds_spec_text(kind, key))

    @pytest.mark.parametrize("kind,key", [
        ("binary-conv-3x3", "dynamic = true"), ("downsample", "dynamic = false"),
        ("binary-mlp", "branches = long,point,short"), ("stem-conv", "pool = false")])
    def test_key_the_kind_takes_parses(self, kind, key):
        spec = nw.parse_network_spec(_kinds_spec_text(kind, key))
        assert nw.parse_network_spec(spec.to_text()) == spec
        nw.build(spec)

    @pytest.mark.parametrize("ls", [
        nw.LayerSpec("binary-mlp", 8, 8, dynamic=True),
        nw.LayerSpec("stem-conv", 3, 8, dynamic=True),
        nw.LayerSpec("classifier", 8, 10, dynamic=True),
        nw.LayerSpec("classifier", 8, 10, stride=2),
        nw.LayerSpec("downsample", 8, 16, stride=2, branches=("long",) * 3),
        nw.LayerSpec("binary-conv-3x3", 64, 64, kernel=5),
        nw.LayerSpec("binary-conv-1x1", 64, 64, kernel=1),
        nw.LayerSpec("downsample", 64, 128, stride=2, kernel=1),
        nw.LayerSpec("binary-mlp", 64, 64, kernel=5),
        nw.LayerSpec("classifier", 64, 10, kernel=1)])
    def test_programmatic_key_the_kind_ignores_rejected(self, ls):
        with pytest.raises(nw.SpecError, match=f"^{ls.kind} (has|takes) no"):
            ls.validate()

    def test_listed_branches_write_the_tuple_spec_text(self):
        """The default branches given as a list are the default: to_text
        omits them, as it does for the tuple-built spec."""
        listed = nw.desk_micro(branches=list(nw.BRANCH_KINDS))
        assert listed.layers[2].branches == nw.BRANCH_KINDS
        assert listed.to_text() == nw.desk_micro().to_text()

    def test_listed_default_branches_accepted_off_the_mlp(self):
        """A conv layer given the default branches as a list takes them."""
        ls = nw.LayerSpec("binary-conv-3x3", 8, 8, branches=list(nw.BRANCH_KINDS))
        ls.validate()
        assert ls == nw.LayerSpec("binary-conv-3x3", 8, 8)

    def test_listed_input_hw_spec_survives_save_and_load(self, tmp_path):
        spec = replace(nw.desk_micro(), input_hw=[16, 16])
        assert spec.input_hw == (16, 16)
        net = nw.build(spec, seed=1)
        nw.save(net, tmp_path / "net.ckpt")
        assert nw.load(tmp_path / "net.ckpt").spec == net.spec

    def test_programmatic_zero_stride_rejected(self):
        with pytest.raises(nw.SpecError, match="positive"):
            nw.LayerSpec("stem-conv", 3, 8, stride=0).validate()

    @given(st.integers(-1, 4), st.integers(-1, 6), st.booleans(),
           st.integers(-1, 13), st.integers(-1, 13))
    @settings(max_examples=60, deadline=None)
    def test_stem_out_hw_matches_the_build(self, stride, kernel, pool, h, w):
        """Any stem either fails as a SpecError or builds exactly the
        resolution LayerSpec.out_hw (and so costmodel) counts."""
        text = _stem_spec_text(h, w).replace(
            "stride = 2\nkernel = 3",
            f"stride = {stride}\nkernel = {kernel}\npool = {str(pool).lower()}")
        try:
            spec = nw.parse_network_spec(text)
        except nw.SpecError:
            return
        assert _built_stem_hw(spec) == spec.layers[0].out_hw(h, w)


def _stem_spec_text(h=32, w=32):
    return (f"[network]\ninput = {h}x{w}\nclasses = 10\nin_channels = 1\n\n"
            "[layer]\nkind = stem-conv\nout = 8\nstride = 2\nkernel = 3\n\n"
            "[layer]\nkind = classifier\n")


# The [layer] header line of each layer in _kinds_spec_text.
_KIND_LINES = {"stem-conv": 5, "binary-conv-3x3": 10, "binary-mlp": 13,
               "downsample": 16, "classifier": 20}


def _kinds_spec_text(kind, key):
    """A stem, a binary-conv-3x3, a binary-mlp, a downsample and a
    classifier, whose headers are at _KIND_LINES, with key added to the
    layer of that kind."""
    layers = [("stem-conv", "out = 8\nstride = 1\nkernel = 3\n"),
              ("binary-conv-3x3", "out = 8\n"), ("binary-mlp", "out = 8\n"),
              ("downsample", "out = 8\nstride = 2\n"), ("classifier", "")]
    text = "[network]\ninput = 8x8\nclasses = 10\nin_channels = 1\n"
    for k, body in layers:
        text += f"[layer]\nkind = {k}\n{body}" + (f"{key}\n" if k == kind else "")
    return text


def _built_stem_hw(spec):
    net = nw.build(spec)
    h, w = spec.input_hw
    with ag.no_grad():
        y = net.layers[0].forward(ag.Tensor(np.zeros((1, 1, h, w), np.float32)),
                                  bk.ForwardState())
    return y.shape[2:]


@st.composite
def random_specs(draw):
    """Valid specs with odd or even extents, channel counts that are
    multiples of 4 but not of 64, dynamic thresholds, stride-2 downsamples
    and arbitrary branch tuples."""
    input_hw = h, w = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    c = draw(st.sampled_from([4, 12, 20, 36, 68]))
    layers = [nw.LayerSpec("stem-conv", draw(st.integers(1, 3)), c, stride=1)]
    kinds = ("binary-conv-3x3", "binary-conv-1x1", "downsample", "binary-mlp")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "downsample" and (h % 2 or w % 2):
            kind = "binary-conv-1x1"
        if kind == "binary-mlp" and min(h, w) < 2:
            kind = "binary-conv-3x3"
        if kind == "binary-mlp":
            branches = tuple(draw(st.lists(st.sampled_from(bk.BRANCH_KINDS),
                                           min_size=3, max_size=3)))
            layers.append(nw.LayerSpec(kind, c, c, branches=branches))
            continue
        c_out = c if kind == "binary-conv-3x3" else c * draw(st.sampled_from([1, 2]))
        stride = 2 if kind == "downsample" else 1
        layers.append(nw.LayerSpec(kind, c, c_out, stride=stride,
                                   dynamic=draw(st.booleans())))
        c, h, w = c_out, h // stride, w // stride
    layers.append(nw.LayerSpec("classifier", c, 5))
    return nw.NetworkSpec("random", input_hw, 5, layers,
                          in_channels=layers[0].c_in).validate()


class TestRandomSpecExactness:
    @given(random_specs())
    @settings(max_examples=60, deadline=None)
    def test_spec_text_roundtrips(self, spec):
        """The reader takes back every text to_text writes, as a checkpoint
        holds it."""
        assert nw.parse_network_spec(spec.to_text()) == spec

    @given(random_specs(), st.integers(2, 3), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_packed_equals_float_and_training_unaffected(self, spec, n, seed):
        net = nw.build(spec, seed=seed % 1000)
        r = np.random.default_rng(seed)
        for p in net.params().values():  # off the zero/one init values
            p.data += (0.1 * r.standard_normal(p.data.shape)).astype(p.data.dtype)
        for name, b in net.buffers().items():
            b[...] = r.uniform(0.5, 1.5, b.shape) if name.endswith("var") \
                else 0.1 * r.standard_normal(b.shape)
        h, w = spec.input_hw
        x = r.standard_normal((n, spec.in_channels, h, w)).astype(np.float32)
        assert np.array_equal(net.forward_packed(x), net.forward(x).data)

        with mock.patch.object(bk, "pack", side_effect=RuntimeError("kernel")):
            with pytest.raises(RuntimeError):
                net.forward_packed(x)
        params = net.params()
        assert all(p.requires_grad for p in params.values())

        before = {k: p.data.copy() for k, p in params.items()}
        data = Dataset(x, r.integers(0, 5, n), 5)
        tr.train_step(net, data, tr.TrainConfig(step=2, iterations=2, batch_size=n,
                                                lr=1e-2, weight_decay=0.0))
        assert [k for k, p in params.items() if np.array_equal(p.data, before[k])] == []


class TestForward:
    def test_packed_transient_memory_bounded(self, rng, monkeypatch):
        """forward_packed on a fresh desk-tiny at batch 64 peaks under 7 MiB
        by tracemalloc: 6.3 MiB with the batch-norm and GEMM epilogues in
        place, 8.0 MiB out of place. One GEMM worker holds one tile's
        buffers at a time, so the bound does not depend on the core count."""
        import tracemalloc
        from concurrent.futures import ThreadPoolExecutor

        from bitcontext import bittensor as bt
        pool = ThreadPoolExecutor(max_workers=1)
        monkeypatch.setattr(bt, "_POOL", pool)
        net = nw.build(nw.desk_tiny(), seed=0)
        x = rng.standard_normal((64, 3, 32, 32), dtype=np.float32)
        try:
            net.forward_packed(x)  # first-call allocations stay out of the peak
            tracemalloc.start()
            net.forward_packed(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            pool.shutdown()
        assert peak < 7 * 2**20, peak / 2**20

    def test_training_step_transient_memory_bounded(self, rng):
        """One step-2 training step (forward, backward, AdamW) on a fresh
        desk-tiny at batch 64 peaks under 51 MiB by tracemalloc: 39.1 MiB
        with binary convs holding their +-1 inputs as int8, 43.2 MiB when a
        conv's column gradient outlived the re-gather of its windows, 75.9
        MiB when they held float window matrices, 184.8 MiB when the graph
        also held every op output and interior gradient until the loss
        died."""
        import tracemalloc

        data = Dataset(rng.standard_normal((64, 3, 32, 32), dtype=np.float32),
                       rng.integers(0, 10, 64), 10)
        net = nw.build(nw.desk_tiny(), seed=0)
        cfg = tr.TrainConfig(step=2, iterations=1, batch_size=64, weight_decay=0.0)
        tracemalloc.start()
        try:
            tr.train_step(net, data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 51 * 2**20, peak / 2**20

    def test_graph_building_forward_transient_memory_bounded(self, rng):
        """An evaluation forward that builds the graph (the parameters
        require grad) on a fresh desk-tiny at batch 64 peaks under 48 MiB
        by tracemalloc: 37.0 MiB with binary convs holding their +-1
        inputs as int8, 73.0 MiB when they held float window matrices."""
        import tracemalloc

        net = nw.build(nw.desk_tiny(), seed=0)
        x = rng.standard_normal((64, 3, 32, 32), dtype=np.float32)
        tracemalloc.start()
        try:
            logits = net.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.requires_grad
        assert peak < 48 * 2**20, peak / 2**20

    def test_zero_weight_classifier_zero_logits(self, rng):
        net = nw.build(nw.desk_micro(), seed=0)
        head = net.layers[-1]
        head.w.data[...] = 0.0
        head.b.data[...] = 0.0
        x = rng.normal(size=(2, 1, 16, 16)).astype(np.float32)
        assert np.all(net.forward(x).data == 0.0)

    def test_identical_inputs_identical_logits(self, rng):
        net = nw.build(nw.desk_micro(), seed=1)
        one = rng.normal(size=(1, 1, 16, 16)).astype(np.float32)
        batch = np.concatenate([one, one], axis=0)
        out = net.forward(batch, training=False).data
        assert np.array_equal(out[0], out[1])

    def test_resolution_mismatch(self, rng):
        net = nw.build(nw.desk_micro(), seed=1)
        with pytest.raises(ValueError):
            net.forward(rng.normal(size=(1, 1, 8, 8)).astype(np.float32))

    def test_finite_logits(self, rng):
        net = nw.build(nw.desk_tiny(), seed=3)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        for packed in (False, True):
            out = net.forward_packed(x) if packed else net.forward(x).data
            assert np.all(np.isfinite(out))

    def test_desk_net_vs_layer_by_layer_scalar_reference(self, rng):
        """Whole-network eval forward against a loop-based reference."""
        spec = nw.NetworkSpec("ref", (8, 8), 3, [
            nw.LayerSpec("stem-conv", 2, 8, stride=2),
            nw.LayerSpec("downsample", 8, 16, stride=2),
            nw.LayerSpec("binary-mlp", 16, 16),
            nw.LayerSpec("classifier", 16, 3),
        ], in_channels=2).validate()
        net = nw.build(spec, seed=11)
        x = rng.normal(size=(1, 2, 8, 8)).astype(np.float32)
        got = net.forward(x, training=False).data

        def bn_eval(y, layer):
            inv = 1.0 / np.sqrt(layer.running_var + 1e-5)
            yh = (y - layer.running_mean[None, :, None, None]) \
                * inv[None, :, None, None]
            return yh * layer.bn_gamma.data[None, :, None, None] \
                + layer.bn_beta.data[None, :, None, None]

        def act(y, layer):
            t = y - layer.act_shift_in.data[None, :, None, None]
            return np.where(t > 0, t,
                            layer.act_slope.data[None, :, None, None] * t) \
                + layer.act_shift_out.data[None, :, None, None]

        stem = net.layers[0]
        y = dense_conv_oracle(x, stem.w.data, np.ones(8), 2, 1, pad_value=0.0)
        y = bn_eval(y.astype(np.float32), stem)

        conv = net.layers[1]
        xb = binarize_oracle(y, conv.thr.data.reshape(1, 8, 1, 1))
        scale = np.abs(conv.w.data.reshape(16, -1)).mean(axis=1)
        z = dense_conv_oracle(xb, binarize_oracle(conv.w.data), scale, 2, 1)
        z = bn_eval(z.astype(np.float32), conv)
        skip = y.reshape(1, 8, 2, 2, 2, 2).mean(axis=(3, 5))
        z = z + np.concatenate([skip, skip], axis=1)
        z = act(z, conv)

        mlp = net.layers[2]
        xb = binarize_oracle(z, mlp.thr.data.reshape(1, 16, 1, 1))
        offmap = [None, bk.SHORT_OFFSETS, bk.long_offsets(2, 2)]
        acc = None
        for i in range(3):
            tok = xb if offmap[i] is None else reconstruct_oracle(xb, offmap[i])
            sgn = binarize_oracle(mlp.ws[i].data)
            sc = np.abs(mlp.ws[i].data).mean(axis=1)
            dots = np.zeros((1, 16, 2, 2), dtype=np.float32)
            for yy in range(2):
                for xx in range(2):
                    for o in range(16):
                        dots[0, o, yy, xx] = float(sgn[o] @ tok[0, :, yy, xx])
            contrib = dots * sc[None, :, None, None].astype(np.float32)
            acc = contrib if acc is None else acc + contrib
        acc = bn_eval(acc, mlp) + z
        acc = act(acc, mlp)

        head = net.layers[-1]
        ref = acc.mean(axis=(2, 3)) @ head.w.data + head.b.data
        assert np.allclose(got, ref, rtol=0, atol=2e-6)
        # and the packed route agrees with the float route exactly
        assert np.array_equal(net.forward_packed(x), got)


class TestDeterminism:
    def test_same_seed_same_params_and_first_loss(self):
        from bitcontext import data as dt, train as tr
        data = dt.synthetic_pairs_dataset(128, size=16, channels=1, seed=5)
        losses = []
        for _ in range(2):
            net = nw.build(nw.desk_micro(), seed=9)
            cfg = tr.TrainConfig(step=1, iterations=1, batch_size=32,
                                 lr=1e-3, seed=4)
            res = tr.train_step(net, data, cfg)
            losses.append(res.loss_history[0])
        assert losses[0] == losses[1]
        a = nw.build(nw.desk_micro(), seed=9).state_arrays()
        b = nw.build(nw.desk_micro(), seed=9).state_arrays()
        for k in a:
            assert np.array_equal(a[k], b[k])


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        net = nw.build(nw.desk_micro(), seed=2)
        x = rng.normal(size=(2, 1, 16, 16)).astype(np.float32)
        ref = net.forward(x, training=False).data
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        again = nw.load(p)
        assert np.array_equal(again.forward(x, training=False).data, ref)
        assert again.binary_weights == net.binary_weights

    def test_forward_checks_and_casts_every_input(self, rng):
        """Both routes read the input through one rule: shape-checked, then
        cast to the network's dtype."""
        net = nw.build(nw.desk_micro(), seed=2)
        x = rng.normal(size=(2, 1, 16, 16))
        want = net.forward(x.astype(np.float32)).data
        got = net.forward(x).data
        assert got.dtype == np.float32 and np.array_equal(got, want)
        assert np.array_equal(net.forward_packed(x), want)
        for forward in (lambda a: net.forward(a), net.forward_packed):
            with pytest.raises(ValueError, match="input 1x8x8 does not match spec 1x16x16"):
                forward(np.zeros((1, 1, 8, 8)))
            for shape in ((1, 16, 16), (1, 1, 1, 16, 16)):
                with pytest.raises(ValueError, match=f"input of rank {len(shape)} does "
                                                     "not match spec 1x16x16"):
                    forward(np.zeros(shape))
            with pytest.raises(ValueError, match="input of rank 2 does not match spec "
                                                 r"1x16x16 \(an N x C x H x W batch\)"):
                forward([[1.0]])

    def test_float64_roundtrip_keeps_dtype_and_logits(self, tmp_path, rng):
        """load builds the network in the checkpoint's own dtype."""
        net = nw.build(nw.desk_micro(), seed=2, dtype=np.float64)
        x = rng.normal(size=(2, 1, 16, 16))
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        again = nw.load(p)
        assert {a.dtype for a in again.state_arrays().values()} == {np.dtype(np.float64)}
        assert np.array_equal(again.forward(x).data, net.forward(x).data)
        assert np.array_equal(again.forward_packed(x), net.forward_packed(x))

    def test_mixed_dtype_checkpoint_rejected(self, tmp_path):
        net = nw.build(nw.desk_micro(), seed=2)
        thr = net.params()["L01.thr"]
        thr.data = thr.data.astype(np.float64)
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        with pytest.raises(nw.CheckpointError, match="mix dtypes float32, float64"):
            nw.load(p)

    def test_wrong_version_rejected(self, tmp_path):
        net = nw.build(nw.desk_micro(), seed=2)
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        blob = bytearray(p.read_bytes())
        import struct, zlib
        struct.pack_into("<I", blob, 4, 99)  # bump version field
        body = bytes(blob[:-4])
        blob[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        p.write_bytes(bytes(blob))
        with pytest.raises(nw.CheckpointVersionError):
            nw.load(p)

    def test_truncated_file_checksum_error(self, tmp_path):
        net = nw.build(nw.desk_micro(), seed=2)
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        blob = p.read_bytes()
        p.write_bytes(blob[:len(blob) - 100])
        with pytest.raises(nw.CheckpointChecksumError):
            nw.load(p)

    def test_bitflip_checksum_error(self, tmp_path):
        net = nw.build(nw.desk_micro(), seed=2)
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        blob = bytearray(p.read_bytes())
        blob[len(blob) // 3] ^= 0x40
        p.write_bytes(bytes(blob))
        with pytest.raises(nw.CheckpointChecksumError):
            nw.load(p)

    @staticmethod
    def _resealed(tmp_path, edit):
        """A saved desk-micro checkpoint whose body edit(body, first tensor
        name) damaged, given a fresh CRC so the damage gets past the check."""
        net = nw.build(nw.desk_micro(), seed=2)
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        body = edit(bytearray(p.read_bytes()[:-4]), sorted(net.state_arrays())[0])
        p.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        return p

    def test_unknown_dtype_code_rejected(self, tmp_path):
        def edit(body, first):
            body[body.index(first.encode()) + len(first)] = 7  # dtype code byte
            return body
        with pytest.raises(nw.CheckpointError, match="unknown dtype code 7"):
            nw.load(self._resealed(tmp_path, edit))

    def test_body_shorter_than_headers_claim_rejected(self, tmp_path):
        with pytest.raises(nw.CheckpointError, match="headers claim"):
            nw.load(self._resealed(tmp_path, lambda body, _: body[:-100]))

    def test_bytes_after_the_last_tensor_rejected(self, tmp_path):
        with pytest.raises(nw.CheckpointError, match="net.ckpt: 8 bytes follow the last"):
            nw.load(self._resealed(tmp_path, lambda body, _: body + bytes(8)))

    def test_tensor_listed_twice_rejected(self, tmp_path):
        def edit(body, first):  # repeat the first tensor record, count + 1
            start = body.index(first.encode()) - 2
            ndim = body[start + 2 + len(first) + 1]
            at = start + 2 + len(first) + 2 + 4 * ndim
            end = at + 8 + struct.unpack_from("<Q", body, at)[0]
            count = struct.unpack_from("<I", body, start - 4)[0]
            struct.pack_into("<I", body, start - 4, count + 1)
            return body[:end] + body[start:end] + body[end:]
        with pytest.raises(nw.CheckpointError,
                           match="net.ckpt: tensor b.L00.running_mean is listed twice"):
            nw.load(self._resealed(tmp_path, edit))

    @pytest.mark.parametrize("field,match", [("spec", "spec text"),
                                             ("name", "tensor 0's name")])
    def test_text_that_is_not_utf8_rejected(self, tmp_path, field, match):
        def edit(body, first):
            body[12 if field == "spec" else body.index(first.encode())] = 0xFF
            return body
        with pytest.raises(nw.CheckpointError, match=f"net.ckpt: {match} is not UTF-8"):
            nw.load(self._resealed(tmp_path, edit))

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path, monkeypatch, rng):
        net = nw.build(nw.desk_micro(), seed=2)
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        saved = p.read_bytes()
        real_open = open

        class HalfWritten:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(bytes(data)[:len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(nw, "open", lambda *a, **k: HalfWritten(real_open(*a, **k)),
                            raising=False)
        other = nw.build(nw.desk_micro(), seed=3)
        with pytest.raises(OSError, match="No space"):
            nw.save(other, p)
        monkeypatch.undo()
        assert p.read_bytes() == saved
        assert sorted(os.listdir(tmp_path)) == ["net.ckpt"]
        x = rng.normal(size=(2, 1, 16, 16)).astype(np.float32)
        assert np.array_equal(nw.load(p).forward(x).data, net.forward(x).data)

    @pytest.mark.parametrize("variant,differs", [
        ("branches", "layer 2 (binary-mlp) differs: branches ('point', 'short', "
                     "'long') -> ('point', 'point', 'point') (checkpoint -> network)"),
        ("stem", "layer 0 (stem-conv) differs: stride 2 -> 1, pool False -> True")], ids=["branches", "stem"])
    def test_load_into_another_architecture_rejected(self, tmp_path, variant, differs):
        """Tensor names and shapes match, but the network is not the saved
        one: a P-P-P tail, or a stride-1 pooling stem, whose logits differ."""
        p = tmp_path / "psl.ckpt"
        nw.save(nw.build(nw.desk_micro(), seed=3), p)
        spec = nw.desk_micro(branches=("point",) * 3)
        if variant == "stem":
            spec = nw.desk_micro()
            spec.layers[0] = replace(spec.layers[0], stride=1, pool=True)
        net = nw.build(spec.validate(), seed=4)
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        with pytest.raises(nw.CheckpointError, match=re.escape(f"{p}: {differs}")):
            nw.load_into(net, p)
        for k, v in net.state_arrays().items():
            assert np.array_equal(before[k], v), k

    def test_load_into_another_input_size_rejected(self, tmp_path):
        p = tmp_path / "micro.ckpt"
        nw.save(nw.build(nw.desk_micro(), seed=3), p)
        spec = nw.desk_micro()
        spec.input_hw = (32, 32)
        with pytest.raises(nw.CheckpointError, match=re.escape(
                f"{p}: spec differs: input_hw (16, 16) -> (32, 32) (checkpoint")):
            nw.load_into(nw.build(spec, seed=4), p)

    def test_load_into_takes_another_name_and_dynamic_layers(self, tmp_path):
        """Lists where the spec reader makes tuples are the same spec."""
        p = tmp_path / "plain.ckpt"
        nw.save(nw.build(nw.desk_tiny(), seed=3), p)
        spec = replace(nw.desk_tiny(dynamic=True), name="tuned", input_hw=[32, 32])
        spec.layers[5] = replace(spec.layers[5], branches=list(spec.layers[5].branches))
        nw.load_into(nw.build(spec, seed=4), p)

    def test_load_into_dynamic_variant_keeps_zero_embeddings(self, tmp_path, rng):
        plain = nw.build(nw.desk_tiny(), seed=3)
        p = tmp_path / "plain.ckpt"
        nw.save(plain, p)
        dyn = nw.build(nw.desk_tiny(dynamic=True), seed=77)
        nw.load_into(dyn, p)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(dyn.forward(x).data, plain.forward(x).data)

    def test_missing_tensor_strict_failure(self, tmp_path):
        """load_state_arrays is strict: a plain state lacks a dynamic
        network's embeddings (only load_into extends plain to dynamic), and
        a dynamic state's embeddings have no place in a plain network."""
        plain = nw.build(nw.desk_tiny(), seed=3)
        dyn = nw.build(nw.desk_tiny(dynamic=True), seed=77)
        with pytest.raises(nw.CheckpointError, match="missing tensor p.L01.dyn"):
            dyn.load_state_arrays(plain.state_arrays())
        with pytest.raises(nw.CheckpointError, match="network has no tensor p.L01.dyn"):
            plain.load_state_arrays(dyn.state_arrays())

    def test_load_into_dynamic_variant_seeds_thresholds(self, tmp_path, rng):
        """A plain layer's trained thr is the dynamic layer's thr, so the
        fine-tune starts from the checkpoint's function."""
        plain = nw.build(nw.desk_tiny(), seed=3)
        for name, p in plain.params().items():
            if name.endswith(".thr"):
                p.data[...] = rng.normal(scale=0.3, size=p.data.shape)
        p = tmp_path / "plain.ckpt"
        nw.save(plain, p)
        dyn = nw.build(nw.desk_tiny(dynamic=True), seed=77)
        nw.load_into(dyn, p)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        assert np.array_equal(dyn.forward(x).data, plain.forward(x).data)
        assert np.array_equal(dyn.forward_packed(x), plain.forward_packed(x))

    def test_checkpoint_naming_thr_dyn_b_beta_loads(self, tmp_path, rng, monkeypatch):
        """Older checkpoints name a dynamic block's thr dyn.b_beta; load and
        load_into read it as thr and reproduce the saved logits."""
        net = nw.build(nw.desk_tiny(dynamic=True), seed=3)
        for v in net.state_arrays().values():
            v[...] = rng.normal(scale=0.3, size=v.shape)
        for k, v in net.buffers().items():
            if k.endswith("running_var"):
                v[...] = np.abs(v) + 0.5
        old = {k.replace(".thr", ".dyn.b_beta") if net.spec.layers[int(k[3:5])].dynamic
               else k: v for k, v in net.state_arrays().items()}
        assert sum(k.endswith(".dyn.b_beta") for k in old) == 4
        p = tmp_path / "old.ckpt"
        with monkeypatch.context() as m:
            m.setattr(net, "state_arrays", lambda: old)
            nw.save(net, p)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        want = net.forward(x).data
        for got in (nw.load(p), nw.load_into(nw.build(net.spec, seed=8), p)):
            assert np.array_equal(got.forward(x).data, want)
            assert np.array_equal(got.forward_packed(x), want)

    def test_checkpoint_with_thr_under_both_names_rejected(self, tmp_path, monkeypatch):
        """dyn.b_beta reads as thr, so a file holding both holds thr twice."""
        net = nw.build(nw.desk_tiny(dynamic=True), seed=3)
        arrays = net.state_arrays()
        arrays["p.L01.dyn.b_beta"] = arrays["p.L01.thr"]
        monkeypatch.setattr(net, "state_arrays", lambda: arrays)
        p = tmp_path / "both.ckpt"
        nw.save(net, p)
        with pytest.raises(nw.CheckpointError, match="tensor p.L01.thr is listed twice"):
            nw.read_checkpoint(p)

    def test_load_into_plain_from_dynamic_rejected(self, tmp_path):
        dyn = nw.build(nw.desk_tiny(dynamic=True), seed=3)
        p = tmp_path / "dyn.ckpt"
        nw.save(dyn, p)
        plain = nw.build(nw.desk_tiny(), seed=3)
        with pytest.raises(nw.CheckpointError, match="network has no tensor p.L.*dyn"):
            nw.load_into(plain, p)

    def test_load_into_missing_non_embedding_tensor_rejected(self, tmp_path,
                                                             monkeypatch):
        net = nw.build(nw.desk_tiny(), seed=3)
        arrays = net.state_arrays()
        arrays.pop("p.L02.thr")
        monkeypatch.setattr(net, "state_arrays", lambda: arrays)
        p = tmp_path / "short.ckpt"
        nw.save(net, p)
        with pytest.raises(nw.CheckpointError, match="missing tensor p.L02.thr"):
            nw.load_into(nw.build(nw.desk_tiny(), seed=3), p)

    def test_load_into_same_spec_equals_load(self, tmp_path, rng):
        """Without anything to extend, load_into is load's strict copy into
        an existing network, step included."""
        net = nw.build(nw.desk_tiny(dynamic=True), seed=3)
        for v in net.state_arrays().values():
            v[...] = rng.normal(size=v.shape)
        net.step = 1
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        into = nw.load_into(nw.build(nw.desk_tiny(dynamic=True), seed=8), p)
        again = nw.load(p)
        assert into.step == again.step == 1
        for k, v in again.state_arrays().items():
            assert np.array_equal(into.state_arrays()[k], v), k

    def test_failed_load_leaves_the_network_unchanged(self, tmp_path):
        """Every name and shape is checked before the first write: a 5-class
        checkpoint fails on the classifier, a state short of its last tensor
        on that tensor, and the earlier layers keep their own values."""
        p = tmp_path / "five.ckpt"
        nw.save(nw.build(nw.desk_tiny(classes=5), seed=3), p)
        short = nw.build(nw.desk_tiny(), seed=3).state_arrays()
        last = list(short)[-1]
        short.pop(last)
        net = nw.build(nw.desk_tiny(), seed=4)
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        for load, match in ((lambda: nw.load_into(net, p), "shape mismatch for p.L08.w"),
                            (lambda: net.load_state_arrays(short),
                             f"missing tensor {last}")):
            with pytest.raises(nw.CheckpointError, match=match):
                load()
            for k, v in net.state_arrays().items():
                assert np.array_equal(before[k], v), k

    @pytest.mark.parametrize("dtype", [np.float16, np.int32])
    def test_build_rejects_a_dtype_no_checkpoint_holds(self, dtype):
        with pytest.raises(ValueError, match=f"network dtype {np.dtype(dtype)} "
                           "is not one of float32, float64"):
            nw.build(nw.desk_micro(), dtype=dtype)

    def test_binary_weights_is_derived_from_the_step(self):
        net = nw.build(nw.desk_micro(), seed=0)
        assert net.step == 0 and net.binary_weights is True
        net.step = 1
        assert net.binary_weights is False
        net.step = 2
        assert net.binary_weights is True
        with pytest.raises(AttributeError):
            net.binary_weights = False

    @pytest.mark.parametrize("step", [0, 1, 2])
    def test_checkpoint_meta_records_step_and_weight_mode(self, tmp_path, step):
        net = nw.build(nw.desk_micro(), seed=0)
        net.step = step
        p = tmp_path / "net.ckpt"
        nw.save(net, p)
        assert nw.read_checkpoint(p)[1] == {"binary_weights": step != 1, "step": step}
        assert nw.load(p).step == step
        assert nw.load_into(nw.build(nw.desk_micro(), seed=1), p).step == step

    @pytest.mark.parametrize("binary_weights,step", [(True, 1), (False, 0), (False, 2)])
    def test_meta_contradicting_its_step_rejected(self, tmp_path, binary_weights, step):
        """Both readers reject it, and load_into before it touches the network."""
        saved = nw.build(nw.desk_micro(), seed=0)
        p = tmp_path / "odd.ckpt"
        nw.save(types.SimpleNamespace(spec=saved.spec, state_arrays=saved.state_arrays,
                                      binary_weights=binary_weights, step=step), p)
        net = nw.build(nw.desk_micro(), seed=1)
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        for read in (nw.load, lambda path: nw.load_into(net, path)):
            with pytest.raises(nw.CheckpointError,
                               match=f"binary_weights = {binary_weights} "
                                     f"contradicts step {step}"):
                read(p)
        assert net.step == 0
        for k, v in net.state_arrays().items():
            assert np.array_equal(before[k], v), k

    @pytest.mark.parametrize("meta,match", [
        (b"[]", "is not a JSON object"),
        (b"not json", "is not a JSON object"),
        (b'{"step": 7}', "step = 7 is not 0, 1 or 2"),
        (b'{"step": 0.5}', "step = 0.5 is not"),
        (b'{"step": true}', "step = True is not"),
        (b'{"binary_weights": true}', "step = None is not"),
        (b'{"step": 2, "binary_weights": 1}', "binary_weights = 1 contradicts step 2"),
        (b'{"step": 1, "binary_weights": "no"}', "binary_weights = 'no' contradicts")])
    def test_malformed_metadata_rejected(self, tmp_path, meta, match):
        """A metadata block that passes the CRC is still checked field by
        field; load_into rejects it before it touches the network."""
        p = tmp_path / "meta.ckpt"
        nw.save(nw.build(nw.desk_micro(), seed=0), p)
        rewrite_metadata(p, meta)
        net = nw.build(nw.desk_micro(), seed=1)
        before = {k: v.copy() for k, v in net.state_arrays().items()}
        for read in (nw.load, lambda path: nw.load_into(net, path)):
            with pytest.raises(nw.CheckpointError, match=f"meta.ckpt: metadata {match}"):
                read(p)
        assert net.step == 0
        for k, v in net.state_arrays().items():
            assert np.array_equal(before[k], v), k

    def test_metadata_without_binary_weights_loads_its_step(self, tmp_path):
        p = tmp_path / "meta.ckpt"
        nw.save(nw.build(nw.desk_micro(), seed=0), p)
        rewrite_metadata(p, b'{"step": 2}')
        assert nw.load(p).step == 2
        assert nw.load_into(nw.build(nw.desk_micro(), seed=1), p).step == 2
