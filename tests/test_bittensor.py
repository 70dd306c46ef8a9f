import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from conftest import binarize_oracle, dense_conv_oracle


class TestPack:
    def test_threshold_convention(self):
        b = bt.pack(np.array([0.3, -0.2, 0.0]), 0.0)
        assert np.array_equal(bt.unpack(b), [1.0, -1.0, -1.0])

    def test_all_zeros_binarize_to_minus_one(self):
        b = bt.pack(np.zeros((3, 10)), 0.0)
        assert np.all(bt.unpack(b) == -1.0)

    def test_matches_scalar_sign_oracle(self, rng):
        x = rng.uniform(-1, 1, size=(5, 77))
        got = bt.unpack(bt.pack(x, 0.0))
        assert np.array_equal(got, binarize_oracle(x))

    def test_per_channel_threshold_nchw(self, rng):
        x = rng.normal(size=(2, 6, 4, 4)).astype(np.float32)
        thr = rng.normal(size=6).astype(np.float32)
        got = bt.unpack(bt.pack(x, thr))
        assert np.array_equal(got, binarize_oracle(x, thr.reshape(1, 6, 1, 1)))

    def test_per_sample_threshold(self, rng):
        x = rng.normal(size=(3, 8, 2, 2)).astype(np.float32)
        thr = rng.normal(size=(3, 8)).astype(np.float32)
        got = bt.unpack(bt.pack(x, thr))
        assert np.array_equal(got, binarize_oracle(x, thr.reshape(3, 8, 1, 1)))

    def test_threshold_shape_mismatch(self):
        with pytest.raises(bt.DimensionError):
            bt.pack(np.zeros((2, 4, 3, 3)), np.zeros(5))

    def test_padding_bits_zeroed(self, rng):
        b = bt.pack(rng.normal(size=(4, 70)), 0.0)
        assert b.padding_is_clean()

    @pytest.mark.parametrize("x_shape,t_shape", [
        ((2, 6, 3, 3), ()), ((2, 6, 3, 3), (6,)), ((2, 6, 3, 3), (2, 6)),
        ((4, 70), ()), ((4, 70), (70,)), ((4, 70), (4, 70)),
        ((70,), ()), ((70,), (70,))])
    def test_bits_equal_float_route_signs(self, x_shape, t_shape, rng):
        x = rng.normal(size=x_shape).astype(np.float32)
        t = rng.normal(size=t_shape).astype(np.float32)
        x.flat[0] = t.flat[0]  # an exact tie is -1 on both routes
        bits = bt.unpack(bt.pack(x, t)) > 0
        signs = ag.binarize(ag.Tensor(x), ag.Tensor(t)).data > 0
        assert np.array_equal(bits, signs)

    @pytest.mark.parametrize("x_shape,t_shape", [
        ((2, 6, 3, 3), (5,)), ((2, 6, 3, 3), (3, 6)), ((2, 6, 3, 3), (6, 3, 3)),
        ((4, 70), (4,)), ((4, 70), (3, 70)), ((70,), (1, 70)), ((2, 3, 4), ())])
    def test_bad_threshold_shape_rejected_on_both_routes(self, x_shape, t_shape):
        x, t = np.zeros(x_shape, np.float32), np.zeros(t_shape, np.float32)
        with pytest.raises(bt.DimensionError):
            bt.pack(x, t)
        with pytest.raises(bt.DimensionError):
            ag.binarize(ag.Tensor(x), ag.Tensor(t))


class TestUnpack:
    def test_encoding(self):
        b = bt.pack_bits(np.array([1, 0, 1], dtype=np.uint8))
        assert np.array_equal(bt.unpack(b), [1.0, -1.0, 1.0])

    def test_full_word_of_ones(self):
        b = bt.pack_bits(np.ones(64, dtype=np.uint8))
        assert b.n_words == 1
        assert np.all(bt.unpack(b) == 1.0)

    @given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_patterns(self, n, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=n).astype(np.uint8)
        b = bt.pack_bits(bits)
        again = bt.pack(bt.unpack(b), 0.0)
        assert np.array_equal(again.words, b.words)
        assert again.nbits == b.nbits

    def test_unpack_pack_is_threshold_binarization(self, rng):
        x = rng.normal(size=(3, 40))
        assert np.array_equal(bt.unpack(bt.pack(x)), binarize_oracle(x))


class TestXnorDot:
    def test_half_matching(self):
        a = bt.pack(np.array([1.0, -1.0, 1.0, -1.0]))
        w = bt.pack(np.array([1.0, 1.0, -1.0, -1.0]))
        assert bt.xnor_dot(a, w) == 0

    def test_identical_full_word(self):
        v = np.resize([1.0, -1.0], 64)
        assert bt.xnor_dot(bt.pack(v), bt.pack(v)) == 64

    @pytest.mark.parametrize("n", [1, 3, 63, 64, 65, 127, 1000, 4096])
    def test_matches_float_dot(self, n, rng):
        a = rng.choice([-1.0, 1.0], size=n)
        w = rng.choice([-1.0, 1.0], size=n)
        assert bt.xnor_dot(bt.pack(a), bt.pack(w)) == int(a @ w)

    def test_length_mismatch(self):
        with pytest.raises(bt.DimensionError):
            bt.xnor_dot(bt.pack(np.ones(5)), bt.pack(np.ones(6)))

    @given(st.integers(1, 600), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_float_dot(self, n, seed):
        r = np.random.default_rng(seed)
        a = r.choice([-1.0, 1.0], size=n)
        w = r.choice([-1.0, 1.0], size=n)
        assert bt.xnor_dot(bt.pack(a), bt.pack(w)) == int(a @ w)


class TestBinaryGemm:
    def test_identity_filter_recovers_fan_in(self, rng):
        a = rng.choice([-1.0, 1.0], size=(1, 37))
        out = bt.binary_gemm(bt.pack(a), bt.pack(a), np.ones(1, np.float32))
        assert out[0, 0] == 37.0

    def test_random_vs_dense_float(self, rng):
        a = rng.choice([-1.0, 1.0], size=(3, 5)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(5, 2)).astype(np.float32)
        scale = rng.uniform(0.1, 2.0, size=2).astype(np.float32)
        got = bt.binary_gemm(bt.pack(a), bt.pack(w.T.copy()), scale)
        ref = (a @ w) * scale[None, :]
        assert np.array_equal(got, ref)

    def test_non_word_multiple_fan_in(self, rng):
        for k in (5, 63, 65, 130):
            a = rng.choice([-1.0, 1.0], size=(4, k)).astype(np.float32)
            w = rng.choice([-1.0, 1.0], size=(3, k)).astype(np.float32)
            s = rng.uniform(0.1, 1.0, size=3).astype(np.float32)
            got = bt.binary_gemm(bt.pack(a), bt.pack(w), s)
            assert np.array_equal(got, (a @ w.T) * s[None, :])

    def test_scale_length_mismatch(self, rng):
        a = bt.pack(rng.choice([-1.0, 1.0], size=(2, 8)))
        w = bt.pack(rng.choice([-1.0, 1.0], size=(3, 8)))
        with pytest.raises(bt.DimensionError):
            bt.binary_gemm(a, w, np.ones(4, np.float32))

    def test_inner_dim_mismatch(self, rng):
        a = bt.pack(rng.choice([-1.0, 1.0], size=(2, 8)))
        w = bt.pack(rng.choice([-1.0, 1.0], size=(3, 9)))
        with pytest.raises(bt.DimensionError):
            bt.binary_gemm(a, w, np.ones(3, np.float32))

    def test_padding_bit_independence(self, rng):
        """Flipping garbage into padding bits must not change results."""
        a = bt.pack(rng.choice([-1.0, 1.0], size=(2, 70)))
        w = bt.pack(rng.choice([-1.0, 1.0], size=(3, 70)))
        s = np.ones(3, np.float32)
        clean = bt.binary_gemm(a, w, s)
        dirty = a.copy()
        dirty.words[:, -1] |= np.uint64(0xFFFF) << np.uint64(48)
        assert not dirty.padding_is_clean()
        assert np.array_equal(bt.binary_gemm(dirty, w, s), clean)
        assert bt.xnor_dot(
            bt.BitTensor((70,), dirty.words[0], 70),
            bt.BitTensor((70,), w.words[1], 70),
        ) == int(bt.unpack(a)[0] @ bt.unpack(w)[1])


class TestBinaryConv2d:
    def test_1x1_equals_gemm_over_positions(self, rng):
        a = rng.choice([-1.0, 1.0], size=(2, 8, 3, 3)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(4, 8, 1, 1)).astype(np.float32)
        s = rng.uniform(0.2, 1.5, size=4).astype(np.float32)
        out = bt.binary_conv2d(bt.pack(a), bt.pack_filters(w), s)
        rows = a.transpose(0, 2, 3, 1).reshape(-1, 8)
        ref = bt.binary_gemm(bt.pack(rows), bt.pack_filters(w), s)
        ref = ref.reshape(2, 3, 3, 4).transpose(0, 3, 1, 2)
        assert np.array_equal(out, ref)

    def test_3x3_vs_float_conv_oracle(self, rng):
        a = rng.choice([-1.0, 1.0], size=(1, 1, 8, 8)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(2, 1, 3, 3)).astype(np.float32)
        s = rng.uniform(0.1, 1.0, size=2).astype(np.float32)
        out = bt.binary_conv2d(bt.pack(a), bt.pack_filters(w), s, stride=1, pad=1)
        ref = dense_conv_oracle(a, w, s, 1, 1)
        assert np.array_equal(out.astype(np.float64), ref)

    def test_all_ones_k3_no_pad(self):
        a = np.ones((1, 1, 5, 5), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = bt.binary_conv2d(bt.pack(a), bt.pack_filters(w),
                               np.ones(1, np.float32))
        assert np.all(out == 9.0)

    def test_strides_and_padding_against_oracle(self, rng):
        for stride, pad, cin, hw in ((1, 1, 3, 6), (2, 1, 5, 8), (1, 0, 2, 5)):
            a = rng.choice([-1.0, 1.0], size=(2, cin, hw, hw)).astype(np.float32)
            w = rng.choice([-1.0, 1.0], size=(3, cin, 3, 3)).astype(np.float32)
            s = rng.uniform(0.1, 1.0, size=3).astype(np.float32)
            out = bt.binary_conv2d(bt.pack(a), bt.pack_filters(w), s,
                                   stride=stride, pad=pad)
            assert np.array_equal(out.astype(np.float64),
                                  dense_conv_oracle(a, w, s, stride, pad))

    def test_bad_stride(self, rng):
        a = bt.pack(rng.choice([-1.0, 1.0], size=(1, 4, 4, 4)))
        w = bt.pack_filters(rng.choice([-1.0, 1.0], size=(2, 4, 3, 3)))
        with pytest.raises(ValueError):
            bt.binary_conv2d(a, w, np.ones(2, np.float32), stride=0)


class TestWeightScale:
    def test_constant_magnitude(self):
        w = np.full((2, 3, 3, 3), 0.5)
        w[0, 1] *= -1
        assert np.allclose(bt.weight_scale(w), 0.5)

    def test_exact_sign_multiple_has_zero_binarization_error(self):
        from bitcontext.analysis import binarization_error
        sign = np.where(np.arange(24).reshape(2, 12) % 3 == 0, 1.0, -1.0)
        w = 0.75 * sign
        assert binarization_error(w, "xnor") == 0.0

    def test_matches_scalar_loop(self, rng):
        w = rng.normal(size=(4, 2, 3, 3))
        got = bt.weight_scale(w)
        for j in range(4):
            acc = 0.0
            cnt = 0
            for v in w[j].ravel():
                acc += abs(v)
                cnt += 1
            assert got[j] == pytest.approx(acc / cnt, rel=1e-6)

    def test_scale_is_l2_optimal_among_scalar_multiples(self, rng):
        """alpha*sign(w) minimizes L2 distance over candidate scalars."""
        w = rng.normal(size=(1, 40))
        alpha = float(bt.weight_scale(w)[0])
        sign = np.where(w > 0, 1.0, -1.0)
        best = np.sum((alpha * sign - w) ** 2)
        for cand in np.linspace(0.0, 2.5 * alpha, 801):
            assert best <= np.sum((cand * sign - w) ** 2) + 1e-12


class TestOracleEquivalenceBulk:
    def test_randomized_configs(self, rng):
        """Varied shapes and fan-ins (word-aligned and not), exact equality."""
        for _ in range(25):
            r = int(rng.integers(1, 20))
            k = int(rng.integers(1, 200))
            c = int(rng.integers(1, 12))
            a = rng.choice([-1.0, 1.0], size=(r, k)).astype(np.float32)
            w = rng.choice([-1.0, 1.0], size=(c, k)).astype(np.float32)
            s = rng.uniform(0.01, 3.0, size=c).astype(np.float32)
            got = bt.binary_gemm(bt.pack(a), bt.pack(w), s)
            assert np.array_equal(got, (a @ w.T) * s[None, :])
