import numpy as np
import pytest

from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from bitcontext import blocks as bk
from conftest import reconstruct_oracle


def random_bits(rng, n, c, h, w):
    x = rng.choice([-1.0, 1.0], size=(n, c, h, w)).astype(np.float32)
    return x, bt.pack(x)


class TestSampleIndex:
    def test_wraparound(self):
        assert bk.sample_index((7, 3), (1, 0), 8, 8) == (0, 3)

    def test_identity_offset(self):
        for pos in [(0, 0), (3, 5), (7, 7)]:
            assert bk.sample_index(pos, (0, 0), 8, 8) == pos

    def test_half_shift_twice_is_identity_for_even(self):
        for h in (2, 4, 8):
            for pos in [(y, x) for y in range(h) for x in range(h)]:
                once = bk.sample_index(pos, (h // 2, 0), h, h)
                twice = bk.sample_index(once, (h // 2, 0), h, h)
                assert twice == pos


class TestReconstructShort:
    def test_constant_channels_unchanged(self):
        x = np.ones((1, 4, 4, 4), dtype=np.float32)
        x[0, 1] = -1.0
        b = bt.pack(x)
        out = bt.unpack(bk.reconstruct_short(b))
        assert np.array_equal(out, x)

    def test_matches_scalar_oracle(self, rng):
        x, b = random_bits(rng, 2, 8, 4, 4)
        out = bt.unpack(bk.reconstruct_short(b))
        assert np.array_equal(out, reconstruct_oracle(x, bk.SHORT_OFFSETS))

    @pytest.mark.parametrize("c", [60, 64, 68, 132, 260])
    def test_multi_word_quartiles_match_oracle(self, rng, c):
        """Quartiles that straddle word boundaries, across up to five words."""
        x, b = random_bits(rng, 2, c, 4, 6)
        for reconstruct, offsets in ((bk.reconstruct_short, bk.SHORT_OFFSETS),
                                     (bk.reconstruct_long, bk.long_offsets(4, 6))):
            out = reconstruct(b)
            assert out.padding_is_clean()
            assert np.array_equal(bt.unpack(out), reconstruct_oracle(x, offsets))

    def test_impulse_moves_down_under_minus_one_offset(self):
        """Quartile 0 samples from (i-1, j): an impulse at (i, j) appears
        at (i+1 mod h, j)."""
        x = -np.ones((1, 4, 5, 5), dtype=np.float32)
        x[0, 0, 2, 3] = 1.0
        out = bt.unpack(bk.reconstruct_short(bt.pack(x)))
        assert out[0, 0, 3, 3] == 1.0
        assert out[0, 0, 2, 3] == -1.0

    def test_channels_not_divisible_by_four(self, rng):
        _, b = random_bits(rng, 1, 6, 4, 4)
        with pytest.raises(bt.DimensionError):
            bk.reconstruct_short(b)

    def test_channel_count_preserved(self, rng):
        _, b = random_bits(rng, 1, 16, 4, 4)
        assert bk.reconstruct_short(b).shape == b.shape

    def test_padding_bits_stay_clean(self, rng):
        """Public operations cannot dirty padding; c=12 leaves 52 pad bits."""
        _, b = random_bits(rng, 2, 12, 4, 4)
        assert bk.reconstruct_short(b).padding_is_clean()
        assert bk.reconstruct_long(b).padding_is_clean()


class TestReconstructLong:
    def test_involution_for_even_dims(self, rng):
        for hw in (2, 4, 8):
            _, b = random_bits(rng, 1, 8, hw, hw)
            twice = bk.reconstruct_long(bk.reconstruct_long(b))
            assert np.array_equal(twice.words, b.words)

    def test_2x2_long_equals_short(self, rng):
        x, b = random_bits(rng, 2, 8, 2, 2)
        long = bt.unpack(bk.reconstruct_long(b))
        short = bt.unpack(bk.reconstruct_short(b))
        assert np.array_equal(long, short)

    def test_matches_scalar_oracle(self, rng):
        for h, w in ((4, 4), (8, 4), (6, 8)):
            x, b = random_bits(rng, 2, 8, h, w)
            out = bt.unpack(bk.reconstruct_long(b))
            ref = reconstruct_oracle(x, bk.long_offsets(h, w))
            assert np.array_equal(out, ref)

    def test_bit_multiset_preserved_per_quartile(self, rng):
        x, b = random_bits(rng, 1, 8, 4, 4)
        out = bt.unpack(bk.reconstruct_long(b))
        for q in range(4):
            sl = slice(q * 2, (q + 1) * 2)
            assert out[:, sl].sum() == x[:, sl].sum()

    def test_small_spatial_rejected(self, rng):
        _, b = random_bits(rng, 1, 4, 1, 4)
        with pytest.raises(bt.DimensionError):
            bk.reconstruct_long(b)

    def test_reconstructions_are_invertible(self, rng):
        """Applying the negated offsets undoes a reconstruction exactly."""
        _, b = random_bits(rng, 2, 8, 5, 6)
        inv_short = tuple((-r1, -r2) for r1, r2 in bk.SHORT_OFFSETS)
        back = bk._reconstruct(bk.reconstruct_short(b), inv_short)
        assert np.array_equal(back.words, b.words)
        inv_long = tuple((-r1, -r2) for r1, r2 in bk.long_offsets(5, 6))
        back = bk._reconstruct(bk.reconstruct_long(b), inv_long)
        assert np.array_equal(back.words, b.words)


class TestQuartileShiftOp:
    def test_matches_bit_reconstruction(self, rng):
        """Float-graph shifts and bit-plane shifts are the same permutation."""
        x, b = random_bits(rng, 2, 12, 4, 6)
        t = ag.quartile_shift(ag.Tensor(x), bk.SHORT_OFFSETS)
        assert np.array_equal(t.data, bt.unpack(bk.reconstruct_short(b)))
        t2 = ag.quartile_shift(ag.Tensor(x), bk.long_offsets(4, 6))
        assert np.array_equal(t2.data, bt.unpack(bk.reconstruct_long(b)))

    def test_backward_is_inverse_permutation(self, rng):
        x = ag.param(rng.normal(size=(1, 8, 4, 4)), dtype=np.float64)
        y = ag.quartile_shift(x, bk.SHORT_OFFSETS)
        g = rng.normal(size=y.data.shape)
        y.accumulate(g)
        y.node.backward(y.grad)
        # adjoint of a permutation is its inverse
        assert np.allclose(
            x.grad, reconstruct_oracle(g, [(-r1, -r2) for r1, r2 in
                                           bk.SHORT_OFFSETS]))


def _mk_state(**kw):
    return bk.ForwardState(**kw)


class TestBinaryMlpBlock:
    def test_nulled_branches_reduce_to_pointwise(self, rng):
        blk = bk.BinaryMlpBlock(8, np.random.default_rng(0))
        blk.ws[1].data[...] = 0.0
        blk.ws[2].data[...] = 0.0
        x = rng.normal(size=(2, 8, 4, 4)).astype(np.float32)
        st = _mk_state()
        got = blk.forward(ag.Tensor(x), st).data
        # reference: pointwise-only wiring from the same parameters
        xb = ag.binarize(ag.Tensor(x), blk.thr)
        y = ag.token_fc(xb, blk.ws[0], scale=bt.weight_scale(blk.ws[0].data))
        y = ag.batchnorm(y, blk.bn_gamma, blk.bn_beta,
                         blk.running_mean.copy(), blk.running_var.copy(),
                         training=False)
        ref = ag.rprelu(ag.add(y, ag.Tensor(x)), blk.act_shift_in,
                        blk.act_slope, blk.act_shift_out).data
        assert np.array_equal(got, ref)

    def test_constant_field_branches_agree(self, rng):
        """Reconstructions of a constant field are the field itself, so the
        three pre-scale integer branch outputs coincide."""
        c = 8
        x = np.broadcast_to(
            rng.normal(size=(1, c, 1, 1)).astype(np.float32), (1, c, 4, 4)).copy()
        bits = bt.pack(x, np.zeros(c, np.float32))
        w = rng.normal(size=(c, c)).astype(np.float32)
        wq = bt.pack_filters(w)
        ones = np.ones(c, np.float32)
        rows = lambda b: bt.BitTensor((16, c), b.words.reshape(16, -1), c)
        p = bt.binary_gemm(rows(bits), wq, ones)
        s = bt.binary_gemm(rows(bk.reconstruct_short(bits)), wq, ones)
        l = bt.binary_gemm(rows(bk.reconstruct_long(bits)), wq, ones)
        assert np.array_equal(p, s) and np.array_equal(p, l)

    def test_branch_sum_matches_scalar_reference(self, rng):
        """Pre-normalization branch outputs: integer dots exactly equal a
        per-position scalar reference; scaling rounds identically."""
        c, h, w = 16, 8, 8
        x = rng.normal(size=(1, c, h, w)).astype(np.float32)
        blk = bk.BinaryMlpBlock(c, np.random.default_rng(3))
        bits = bt.pack(x, blk.thr.data)
        xb = np.where(x > blk.thr.data.reshape(1, c, 1, 1), 1.0, -1.0)
        offmap = {"point": [(0, 0)] * 4, "short": bk.SHORT_OFFSETS,
                  "long": bk.long_offsets(h, w)}
        acc = None
        ref_acc = None
        for i, kind in enumerate(blk.branches):
            b = bits if kind == "point" else (
                bk.reconstruct_short(bits) if kind == "short"
                else bk.reconstruct_long(bits))
            rows = bt.BitTensor((h * w, c), b.words.reshape(h * w, -1), c)
            ones = np.ones(c, np.float32)
            dots = bt.binary_gemm(rows, bt.pack_filters(blk.ws[i].data), ones)
            dots = dots.reshape(1, h, w, c).transpose(0, 3, 1, 2)
            # integer dots against the scalar gather + dot oracle
            tok = reconstruct_oracle(xb, offmap[kind])
            sgn = np.where(blk.ws[i].data > 0, 1.0, -1.0)
            ref = np.zeros((1, c, h, w))
            for y in range(h):
                for xx in range(w):
                    ref[0, :, y, xx] = sgn @ tok[0, :, y, xx]
            assert np.array_equal(dots.astype(np.float64), ref), kind
            scale = bt.weight_scale(blk.ws[i].data)
            scaled = dots * scale[None, :, None, None]
            acc = scaled if acc is None else acc + scaled
            ref_scaled = (ref.astype(np.float32)
                          * scale[None, :, None, None]).astype(np.float32)
            ref_acc = ref_scaled if ref_acc is None else ref_acc + ref_scaled
        assert np.array_equal(acc, ref_acc)

    @pytest.mark.parametrize("branches", [("point", "short"), ("point",) * 4, ()])
    def test_branch_count_is_three(self, branches):
        with pytest.raises(ValueError, match="takes 3 branches"):
            bk.BinaryMlpBlock(8, np.random.default_rng(1), branches=branches)

    def test_branch_config_pointwise_only(self, rng):
        blk = bk.BinaryMlpBlock(8, np.random.default_rng(1),
                                branches=("point", "point", "point"))
        x = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        got = blk.forward(ag.Tensor(x), _mk_state()).data
        assert np.array_equal(got, blk.infer_packed(x))


class TestDynamicEmbedding:
    def _params(self, c_in=8, c_out=8, seed=0):
        return bk.DynamicEmbedding(c_in, c_out, np.random.default_rng(seed))

    def test_gap_matches_scalar_loop(self, rng):
        d = self._params()
        x = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        alpha = d.alpha(ag.Tensor(x)).data
        for ni in range(2):
            for c in range(8):
                acc = 0.0
                for y in range(3):
                    for xx in range(3):
                        acc += x[ni, c, y, xx]
                gap_c = acc / 9.0
                ref = sum(gap_c * d.w1.data[c, j] for j in range(2))
        assert alpha.shape == (2, 2)

    def test_zero_input_zero_bias_gives_zero_alpha(self):
        d = self._params()
        x = np.zeros((2, 8, 4, 4), dtype=np.float32)
        assert np.all(d.alpha(ag.Tensor(x)).data == 0.0)

    def test_alpha_constant_input(self, rng):
        d = self._params()
        v = 0.5
        x = np.full((1, 8, 4, 4), v, dtype=np.float32)
        expect = v * d.w1.data.sum(axis=0)
        assert np.allclose(d.alpha(ag.Tensor(x)).data, expect[None, :], rtol=1e-5)

    def test_zero_w2_gives_zero_thresholds(self, rng):
        d = self._params()
        alpha = rng.normal(size=(3, 2)).astype(np.float32)
        assert np.all(d.thresholds(ag.Tensor(alpha)).data == 0.0)

    def test_uniform_bias_threshold(self):
        """The embedding holds no static threshold (the block's thr is it):
        a uniform alpha W2 comes out as the shift, with no bias added."""
        d = self._params()
        assert sorted(d.params()) == ["b_alpha", "b_gamma", "w1", "w2", "w3"]
        d.w2.data[...] = 0.125
        alpha = np.ones((3, 2), dtype=np.float32)
        assert np.all(d.thresholds(ag.Tensor(alpha)).data == 0.25)

    def test_threshold_matmul_oracle(self, rng):
        d = self._params()
        d.w2.data[...] = rng.normal(size=d.w2.data.shape).astype(np.float32)
        alpha = rng.normal(size=(4, 2)).astype(np.float32)
        assert np.array_equal(d.thresholds(ag.Tensor(alpha)).data, alpha @ d.w2.data)

    def test_gamma_zero_init_and_uniform_bias(self, rng):
        d = self._params(c_out=12)
        alpha = rng.normal(size=(2, 2)).astype(np.float32)
        assert np.all(d.gamma(ag.Tensor(alpha)).data == 0.0)
        d.b_gamma.data[...] = -0.5
        assert np.all(d.gamma(ag.Tensor(alpha)).data == -0.5)

    def test_gamma_matmul_oracle(self, rng):
        d = self._params(c_out=12)
        d.w3.data[...] = rng.normal(size=d.w3.data.shape).astype(np.float32)
        alpha = rng.normal(size=(2, 2)).astype(np.float32)
        assert np.allclose(d.gamma(ag.Tensor(alpha)).data, alpha @ d.w3.data, rtol=1e-6)

    def test_bottleneck_width_is_quarter(self):
        d = bk.DynamicEmbedding(16, 16, np.random.default_rng(0))
        assert d.w1.data.shape == (16, 4)
        with pytest.raises(bt.DimensionError):
            bk.DynamicEmbedding(6, 6, np.random.default_rng(0))


class TestBinaryConvBlock:
    def test_zero_init_dynamic_equals_plain(self, rng):
        """A dynamic block is its plain block plus an embedding: with W2 = 0
        it computes the plain block, a nonzero thr included, on both routes."""
        rng0 = np.random.default_rng(0)
        plain = bk.BinaryConvBlock(8, 8, 3, 1, rng0)
        plain.thr.data[...] = rng.normal(scale=0.5, size=8)
        dyn = bk.BinaryConvBlock(8, 8, 3, 1, np.random.default_rng(1),
                                 dynamic=True)
        for name, p in plain.params().items():
            dyn.params()[name].data[...] = p.data
        x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        a = plain.forward(ag.Tensor(x), _mk_state()).data
        b = dyn.forward(ag.Tensor(x), _mk_state()).data
        assert np.array_equal(a, b)
        assert np.array_equal(dyn.infer_packed(x), a)

    def test_stride_two_halves_spatial_dims(self, rng):
        blk = bk.BinaryConvBlock(8, 16, 3, 2, np.random.default_rng(2))
        x = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        out = blk.forward(ag.Tensor(x), _mk_state())
        assert out.data.shape == (1, 16, 4, 4)

    def test_packed_equals_float_route(self, rng):
        for cin, cout, k, s, dyn in ((8, 8, 3, 1, False), (8, 16, 3, 2, False),
                                     (8, 16, 1, 1, True), (8, 8, 1, 1, False)):
            blk = bk.BinaryConvBlock(cin, cout, k, s, np.random.default_rng(4),
                                     dynamic=dyn)
            if dyn:  # give the dynamic path nonzero effect
                blk.dynamic.w2.data[...] = 0.1 * np.random.default_rng(5).normal(
                    size=blk.dynamic.w2.data.shape).astype(np.float32)
                blk.dynamic.w3.data[...] = 0.1 * np.random.default_rng(6).normal(
                    size=blk.dynamic.w3.data.shape).astype(np.float32)
            x = rng.normal(size=(2, cin, 8, 8)).astype(np.float32)
            a = blk.forward(ag.Tensor(x), _mk_state()).data
            b = blk.infer_packed(x)
            assert np.array_equal(a, b), (cin, cout, k, s, dyn)

    def test_conv_core_matches_dense_reference(self, rng):
        """Binarize -> binary conv -> +gamma, against a dense float oracle."""
        from conftest import dense_conv_oracle
        blk = bk.BinaryConvBlock(4, 6, 3, 1, np.random.default_rng(7),
                                 dynamic=True)
        blk.dynamic.w2.data[...] = 0.05
        blk.dynamic.w3.data[...] = -0.02
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        alpha = blk.dynamic.alpha(ag.Tensor(x))
        thr = blk.dynamic.thresholds(alpha).data
        gamma = blk.dynamic.gamma(alpha).data
        bits = bt.pack(x, thr)
        scale = bt.weight_scale(blk.w.data)
        got = bt.binary_conv2d(bits, bt.pack_filters(blk.w.data), scale,
                               stride=1, pad=1) + gamma[:, :, None, None]
        xb = np.where(x > thr.reshape(1, 4, 1, 1), 1.0, -1.0)
        wq = np.where(blk.w.data > 0, 1.0, -1.0)
        ref = dense_conv_oracle(xb, wq, scale.astype(np.float64), 1, 1)
        ref = ref + gamma.astype(np.float64)[:, :, None, None]
        assert np.allclose(got, ref, rtol=0, atol=1e-6)

    def test_real_weight_mode_uses_shadow_weights(self, rng):
        blk = bk.BinaryConvBlock(4, 4, 3, 1, np.random.default_rng(8))
        x = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        real = blk.forward(ag.Tensor(x), _mk_state(binary_weights=False)).data
        binr = blk.forward(ag.Tensor(x), _mk_state(binary_weights=True)).data
        assert not np.array_equal(real, binr)
