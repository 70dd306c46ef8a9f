import hashlib

import pytest

from bitcontext import costmodel as cm
from bitcontext import network as nw


class TestCountLayer:
    def test_3x3_conv_closed_form(self):
        ls = nw.LayerSpec("binary-conv-3x3", 512, 512)
        bops, flops, convfc, hw = cm.count_layer(ls, (7, 7))
        assert bops == 9 * 512 * 512 * 49
        assert convfc == 0 and hw == (7, 7)

    def test_mlp_block_roughly_one_third_of_conv(self):
        conv = cm.conv_block_ops(512, 7, 7)
        mlp = cm.mlp_block_ops(512, 7, 7)
        assert abs(mlp / conv - 0.39) / 0.39 < 0.03

    def test_mlp_block_bops(self):
        ls = nw.LayerSpec("binary-mlp", 512, 512)
        bops, _, _, _ = cm.count_layer(ls, (14, 14))
        assert bops == 3 * 512 * 512 * 196

    def test_classifier_row_is_gap_plus_fc(self):
        ls = nw.LayerSpec("classifier", 1024, 1000)
        bops, flops, convfc, hw = cm.count_layer(ls, (7, 7))
        assert bops == 0
        assert flops == 1024 * 7 * 7 + 1024 * 1000  # GAP = c*h*w, fc MACs
        assert convfc == 1024 * 1000
        assert hw == (1, 1)

    def test_downsample_resolution_chain(self):
        ls = nw.LayerSpec("downsample", 64, 128, stride=2)
        bops, _, _, hw = cm.count_layer(ls, (16, 16))
        assert hw == (8, 8)
        assert bops == 9 * 64 * 128 * 64

    def test_unknown_kind(self):
        ls = nw.LayerSpec("binary-conv-3x3", 8, 8)
        ls.kind = "mystery"
        with pytest.raises(ValueError):
            cm.count_layer(ls, (4, 4))


class TestCountNetwork:
    def test_bcdnet_a_reference_costs(self):
        r = cm.count_network(nw.bcdnet_a_like())
        assert abs(r.bops - 4.82e9) / 4.82e9 < 0.02
        assert abs(r.ops - 1.08e8) / 1.08e8 < 0.02
        assert abs(r.ops_convfc - 0.87e8) / 0.87e8 < 0.02

    def test_replacement_left_bops_unchanged(self):
        """Three MLP blocks carry exactly the BOPs of the 3x3 conv they
        replace, so the headline BOPs figure is preserved."""
        assert cm.count_network(nw.bcdnet_a_like()).bops == 4816896000
        for conv, mlp in ((nw.reactnet18_like(), nw.reactnet18_like(mlp_tail=True)),
                          (nw.desk_sweep(), nw.desk_sweep(n_mlp=9))):
            assert cm.count_network(mlp).bops == cm.count_network(conv).bops
            assert cm.count_network(mlp).flops != cm.count_network(conv).flops

    def test_dynamic_embeddings_increase_only_flops(self):
        a = cm.count_network(nw.bcdnet_a_like())
        b = cm.count_network(nw.bcdnet_b_like())
        assert b.bops == a.bops
        assert b.ops_convfc == a.ops_convfc
        delta = b.flops - a.flops
        # documented accounting: GAP + bottleneck matmuls + fused bias per
        # dynamic block (see the cost conventions in the module docstring)
        expect = 0
        hw = 224 * 224
        for ls in nw.bcdnet_b_like().layers:
            if ls.kind == "classifier":
                continue
            if ls.dynamic:
                cb = ls.c_in // 4
                expect += ls.c_in * hw + ls.c_in * cb + cb * ls.c_in \
                    + cb * ls.c_out + ls.c_out
            hw //= ls.stride ** 2
        assert delta == expect
        assert 0 < delta < 0.15e8

    def test_empty_network_zero_report(self):
        r = cm.count_network(nw.NetworkSpec("empty", (8, 8), 2, []))
        assert r.bops == 0 and r.flops == 0 and r.ops == 0.0

    def test_ops_identity_every_row(self):
        r = cm.count_network(nw.desk_tiny())
        for row in r.rows:
            assert row.bops / 64.0 + row.flops == pytest.approx(
                row.bops / 64.0 + row.flops)
        assert r.ops == r.bops / 64.0 + r.flops

    def test_counting_is_structural(self):
        a = cm.count_network(nw.desk_tiny(branches=("point", "short", "long")))
        b = cm.count_network(nw.desk_tiny(branches=("point", "point", "point")))
        assert a.bops == b.bops and a.flops == b.flops

    def test_report_formats(self):
        r = cm.count_network(nw.desk_micro())
        text = r.to_text()
        assert "total" in text and "conv+fc" in text
        tsv = r.to_delimited()
        assert tsv.splitlines()[0] == "layer\tbops\tflops\tops"


class TestPinnedReports:
    # sha256 of count_network(preset, mac_ops).to_delimited(), per preset
    # and convention; a change to the counting rules keeps them.
    REPORT_SHA256 = {
        ("bcdnet-a-like", 1): "55e019c0de8fd5b38d991d08483857d7e3db6c18834d7b6fa4f94653dd48195e",
        ("bcdnet-a-like", 2): "b8aceee9d97b06099264465a7c46572b76b328e2845aedb3d7a69adf0e15b834",
        ("bcdnet-b-like", 1): "6caef3e9318401f00e7b84c40831ebb307976ac58c0a1538e63916cc8830b45b",
        ("bcdnet-b-like", 2): "43b474cf70218c850a671cd8b86a15001d422d4053cd55369e86621ad5fb20ac",
        ("desk-micro", 1): "f285746112d4dd7a0cc1af27aeaaaa4477e4becf99cb6e4764cf81c667023726",
        ("desk-micro", 2): "71090fa4353f9af1b3fbee8c7bbdd273272d86d3e24615fdc0f3badba717ca31",
        ("desk-sweep", 1): "a75b904736f97be00091b9f2165992edac492ae1fa5f8570e732462c1ab65233",
        ("desk-sweep", 2): "b05d5d890492c1f71a1392f8dc0d9cd805a73723373260c234f276a7e2eb8f74",
        ("desk-tiny", 1): "b4443aecbceac1c52035c845358e5befa2e916deb358f6c54ac876702a2d7ada",
        ("desk-tiny", 2): "d353ac8275de7caa4cd600397a8bf6625c267320248b89f05f7769c2d6574dbb",
        ("reactnet18-like", 1): "3451c9d0fc403988fe3e5755499053096f9b08eb6edf03695570524e59dcdbae",
        ("reactnet18-like", 2): "2fdb1f511c68a8454295fceb6e7afaa095c3644f286b08ade5f2f539b674ee53",
    }

    @pytest.mark.parametrize("name,mac_ops", sorted(REPORT_SHA256))
    def test_preset_report_is_pinned(self, name, mac_ops):
        text = cm.count_network(nw.preset(name), mac_ops=mac_ops).to_delimited()
        assert hashlib.sha256(text.encode()).hexdigest() \
            == self.REPORT_SHA256[name, mac_ops]


class TestTableFiveRatios:
    def test_single_block_ratios(self):
        conv = cm.conv_block_ops(512, 7, 7)
        mlp = cm.mlp_block_ops(512, 7, 7)
        for k, target in ((1, 0.39), (2, 0.79), (3, 1.18)):
            assert abs(k * mlp / conv - target) / target < 0.03

    def test_double_mac_convention_absolute_block_costs(self):
        assert cm.conv_block_ops(512, 7, 7, mac_ops=2) == 3813376  # 3.813e6
        assert cm.mlp_block_ops(512, 7, 7, mac_ops=2) == 1505280   # 1.505e6

    def test_ratios_are_convention_independent(self):
        r1 = cm.mlp_block_ops(512, 7, 7, 1) / cm.conv_block_ops(512, 7, 7, 1)
        r2 = cm.mlp_block_ops(512, 7, 7, 2) / cm.conv_block_ops(512, 7, 7, 2)
        assert r1 == pytest.approx(r2, rel=1e-12)
