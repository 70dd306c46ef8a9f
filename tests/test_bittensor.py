import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitcontext import autograd as ag
from bitcontext import bittensor as bt
from conftest import binarize_oracle, channel_last, dense_conv_oracle


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
        b = bt.pack(np.array([1.0, -1.0, 1.0]))
        assert b.words.tolist() == [0b101]
        assert np.array_equal(bt.unpack(b), [1.0, -1.0, 1.0])

    def test_full_word_of_ones(self):
        b = bt.pack(np.ones(64))
        assert b.n_words == 1
        assert np.all(bt.unpack(b) == 1.0)

    @given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_patterns(self, n, seed):
        bits = np.random.default_rng(seed).integers(0, 2, size=n)
        b = bt.pack(2.0 * bits - 1.0)
        assert np.array_equal(bt.unpack(b), 2.0 * bits - 1.0)
        again = bt.pack(bt.unpack(b), 0.0)
        assert np.array_equal(again.words, b.words)
        assert again.nbits == b.nbits

    def test_unpack_pack_is_threshold_binarization(self, rng):
        x = rng.normal(size=(3, 40))
        assert np.array_equal(bt.unpack(bt.pack(x)), binarize_oracle(x))


def row_dot(a, w):
    """XNOR/popcount dot product of two sign vectors: binary_gemm on one row
    and one filter at unit scale."""
    out = bt.binary_gemm(bt.pack(np.reshape(a, (1, -1))),
                         bt.pack(np.reshape(w, (1, -1))), np.ones(1, np.float32))
    return out[0, 0]


class TestXnorDot:
    def test_half_matching(self):
        assert row_dot([1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]) == 0

    def test_identical_full_word(self):
        v = np.resize([1.0, -1.0], 64)
        assert row_dot(v, v) == 64

    @pytest.mark.parametrize("n", [1, 3, 63, 64, 65, 127, 1000, 4096])
    def test_matches_float_dot(self, n, rng):
        a = rng.choice([-1.0, 1.0], size=n)
        w = rng.choice([-1.0, 1.0], size=n)
        assert row_dot(a, w) == int(a @ w)

    def test_length_mismatch(self):
        with pytest.raises(bt.DimensionError):
            row_dot(np.ones(5), np.ones(6))
        with pytest.raises(bt.DimensionError):  # one word against two
            row_dot(np.ones(64), np.ones(65))

    @given(st.integers(1, 600), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_property_matches_float_dot(self, n, seed):
        r = np.random.default_rng(seed)
        a = r.choice([-1.0, 1.0], size=n)
        w = r.choice([-1.0, 1.0], size=n)
        assert row_dot(a, w) == int(a @ w)


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

    def test_integer_scale_equals_its_float32_cast(self, rng):
        a = bt.pack(rng.choice([-1.0, 1.0], size=(4, 70)))
        w = bt.pack(rng.choice([-1.0, 1.0], size=(3, 70)))
        got = bt.binary_gemm(a, w, np.array([1, 2, 3]))
        want = bt.binary_gemm(a, w, np.array([1, 2, 3], np.float32))
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

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
        """Garbage in both operands' padding bits must not change results,
        and the kernel must not clean it out of the callers' words."""
        for k in (37, 63, 70, 130):  # W == 1 twice, then 2 and 3 words
            a = bt.pack(rng.choice([-1.0, 1.0], size=(2, k)))
            w = bt.pack(rng.choice([-1.0, 1.0], size=(3, k)))
            s = np.ones(3, np.float32)
            clean = bt.binary_gemm(a, w, s)
            dirty_a, dirty_w = a.copy(), w.copy()
            padding = ~bt._tail_mask(k)
            dirty_a.words[:, -1] |= padding
            dirty_w.words[:, -1] |= padding & np.uint64(0xAAAAAAAAAAAAAAAA)
            assert not dirty_a.padding_is_clean()
            before = dirty_a.words.copy(), dirty_w.words.copy()
            assert np.array_equal(bt.binary_gemm(dirty_a, dirty_w, s), clean)
            assert np.array_equal(dirty_a.words, before[0])
            assert np.array_equal(dirty_w.words, before[1])
            assert bt.binary_gemm(
                bt.BitTensor((1, k), dirty_a.words[:1], k),
                bt.BitTensor((1, k), dirty_w.words[1:2], k), s[:1],
            )[0, 0] == int(bt.unpack(a)[0] @ bt.unpack(w)[1])

    @staticmethod
    def _mismatch_reference(a_words, w_words, nbits):
        """Unpack every row to its valid bits and count differing positions."""
        def bits(words):
            as_bytes = np.ascontiguousarray(words).view(np.uint8)
            return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :nbits]
        a, w = bits(a_words), bits(w_words)
        return np.array([[int(np.count_nonzero(ra != rw)) for rw in w] for ra in a])

    @pytest.mark.parametrize("rows,cols,nbits,dirty", [
        (2 * (bt.TILE_ELEMS // 64) + 7, 64, 130, False),  # ragged last tile
        (5, 64, 130, True),                               # fewer rows than a tile
        (3, bt.TILE_ELEMS + 3, 70, True),                 # tile height 1
        (9, 5, 37, True),                                 # W == 1
        (10, 7, 64, False),                               # W == 1, no padding
        (3, 4, 65_600, False),                            # 1,025 words: int32 accumulator
    ])
    def test_xor_popcount_gemm_matches_unpacked_reference(self, rows, cols, nbits,
                                                          dirty, rng):
        n_words = -(-nbits // 64)
        a = rng.integers(0, 1 << 63, size=(rows, n_words), dtype=np.uint64)
        a |= rng.integers(0, 2, size=(rows, n_words), dtype=np.uint64) << np.uint64(63)
        w = rng.integers(0, 1 << 63, size=(cols, n_words), dtype=np.uint64)
        w[0] = ~a[0]  # every bit differs: past 65,535 bits a uint16 count wraps
        if not dirty and nbits % 64:
            mask = np.uint64((1 << nbits % 64) - 1)
            a[:, -1] &= mask
            w[:, -1] &= mask
        a_view = a[:, :]  # the kernel gets views, as MLP branches pass them
        before = a.copy(), w.copy()
        got = bt._xor_popcount_gemm(a_view, w, nbits)
        assert got.dtype == np.int32 and got.shape == (rows, cols)
        assert got[0, 0] == nbits
        assert np.array_equal(got, self._mismatch_reference(a, w, nbits))
        assert np.array_equal(a, before[0]) and np.array_equal(w, before[1])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_pool(self, rng):
        """A child forked after the pool ran has none of its workers; a
        multi-tile call there must still finish with the parent's counts."""
        a = rng.integers(0, 1 << 63, size=(3 * (bt.TILE_ELEMS // 64), 2), dtype=np.uint64)
        w = rng.integers(0, 1 << 63, size=(64, 2), dtype=np.uint64)
        expected = bt._xor_popcount_gemm(a, w, 128)
        pid = os.fork()
        if pid == 0:  # child: exit 0 only on a finished, equal result
            signal.alarm(20)
            os._exit(0 if np.array_equal(bt._xor_popcount_gemm(a, w, 128), expected) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_concurrent_forward_packed_matches_sequential(self, rng):
        """More caller threads than cores share the kernel pool, switching
        often; each gets the sequential logits, and every parameter still
        requires grad afterwards."""
        import sys
        import threading

        from bitcontext import network as nw
        net = nw.build(nw.desk_micro(), seed=5)
        x = rng.normal(size=(160, 1, 16, 16)).astype(np.float32)  # multi-tile rows
        expected = net.forward_packed(x)
        n_threads = bt._USABLE_CORES + 2
        barrier = threading.Barrier(n_threads, timeout=60)
        results = [None] * n_threads

        def worker(i):
            barrier.wait()
            results[i] = [net.forward_packed(x) for _ in range(2)]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got is not None
            for logits in got:
                assert np.array_equal(logits, expected)
        assert all(p.requires_grad for p in net.params().values())


def im2col_reference(x, k, stride, pad, pad_value=0):
    """The sliding-window im2col used before the tap loop, kept as its
    oracle: np.pad, then a transposed window view copied out."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)),
                   constant_values=pad_value)
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (n, c, oh, ow, k, k)
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * k * k)
    return np.ascontiguousarray(cols), oh, ow


class TestIm2col:
    @pytest.mark.parametrize("pad_value", [0, -1])
    @pytest.mark.parametrize("layout", ["nchw", "channel_last"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint64])
    def test_matches_sliding_window_reference(self, dtype, layout, pad_value):
        """Bit for bit, C-contiguous, over k, stride, pad, channel counts
        on both sides of a word and odd and even sizes."""
        rng = np.random.default_rng(7)
        for k in (1, 3):
            for stride in (1, 2):
                for pad in (0, 1):
                    for c in (1, 3, 8, 64):
                        for hw in ((5, 7), (6, 8)):
                            shape = (2, c) + hw
                            if dtype == np.uint64:
                                x = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64)
                            else:
                                x = rng.normal(size=shape).astype(dtype)
                                x.flat[::5] = -0.0
                            if layout == "channel_last":
                                x = channel_last(x)
                            got = bt.im2col(x, k, stride, pad, pad_value)
                            want = im2col_reference(x, k, stride, pad, pad_value)
                            case = (k, stride, pad, c, hw)
                            assert got[1:] == want[1:], case
                            assert got[0].dtype == want[0].dtype, case
                            assert got[0].shape == want[0].shape, case
                            assert got[0].flags.c_contiguous, case
                            assert got[0].tobytes() == want[0].tobytes(), case

    @pytest.mark.parametrize("dtype", [np.float32, np.uint64])
    def test_1x1_gather_of_channel_last_input_is_a_view(self, dtype):
        """A stride-1 unpadded 1x1 gather of an NHWC-memory input copies
        nothing: copying it raises the float route's peak memory."""
        x = channel_last(np.arange(2 * 8 * 5 * 7).reshape(2, 8, 5, 7).astype(dtype))
        cols, oh, ow = bt.im2col(x, 1, 1, 0)
        assert (oh, ow) == (5, 7) and cols.shape == (70, 8)
        assert cols.flags.c_contiguous and np.shares_memory(cols, x)
        assert cols.tobytes() == im2col_reference(x, 1, 1, 0)[0].tobytes()
        for k, stride, pad in ((1, 2, 0), (1, 1, 1), (3, 1, 1)):
            assert not np.shares_memory(bt.im2col(x, k, stride, pad)[0], x)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(bt.DimensionError):
            bt.im2col(np.zeros((1, 2, 2, 4)), 3, 1, 0)
        assert bt.im2col(np.zeros((1, 2, 1, 2)), 3, 1, 1)[0].shape == (2, 18)


class TestBinaryConv2d:
    def test_1x1_equals_gemm_over_positions(self, rng):
        a = rng.choice([-1.0, 1.0], size=(2, 8, 3, 3)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(4, 8, 1, 1)).astype(np.float32)
        s = rng.uniform(0.2, 1.5, size=4).astype(np.float32)
        out = bt.binary_conv2d(bt.pack(a), bt.pack_filters(w), s)
        rows = a.transpose(0, 2, 3, 1).reshape(-1, 8)
        ref = bt.binary_gemm(bt.pack(rows), bt.pack_filters(w.reshape(4, 8)), s)
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

    @pytest.mark.parametrize("w_shape", [(2, 36), (2, 5, 3, 3), (2, 4, 3, 1)])
    def test_filter_bank_must_fit_activation(self, w_shape, rng):
        a = bt.pack(rng.choice([-1.0, 1.0], size=(1, 4, 4, 4)))
        w = bt.pack_filters(rng.choice([-1.0, 1.0], size=w_shape))
        with pytest.raises(bt.DimensionError):
            bt.binary_conv2d(a, w, np.ones(2, np.float32))

    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c", [1, 3, 36, 64, 70, 130])
    def test_padding_bit_independence(self, c, k, stride, pad, rng):
        a = rng.choice([-1.0, 1.0], size=(2, c, 5, 5)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], size=(3, c, k, k)).astype(np.float32)
        s = rng.uniform(0.1, 1.0, size=3).astype(np.float32)
        pa, pw = bt.pack(a), bt.pack_filters(w)
        padding = ~bt._tail_mask(c)
        pa.words[..., -1] |= padding
        pw.words[..., -1] |= padding & rng.integers(0, 2 ** 63, size=pw.words.shape[:-1],
                                                     dtype=np.uint64)
        before = pa.words.copy(), pw.words.copy()
        out = bt.binary_conv2d(pa, pw, s, stride=stride, pad=pad)
        assert np.array_equal(out.astype(np.float64),
                              dense_conv_oracle(a, w, s, stride, pad))
        assert np.array_equal(pa.words, before[0])
        assert np.array_equal(pw.words, before[1])


class TestPackFilters:
    @pytest.mark.parametrize("c,k", [(1, 1), (3, 3), (36, 3), (64, 1), (70, 3), (130, 3)])
    def test_4d_bank_packs_like_an_activation_and_round_trips(self, c, k, rng):
        w = rng.normal(size=(5, c, k, k)).astype(np.float32)
        b = bt.pack_filters(w)
        assert b.shape == w.shape and b.nbits == c
        assert b.words.shape == (5, k, k, -(-c // 64))
        assert b.padding_is_clean()
        assert np.array_equal(bt.unpack(b), binarize_oracle(w))

    def test_other_ranks_rejected(self):
        with pytest.raises(bt.DimensionError):
            bt.pack_filters(np.ones((2, 3, 4)))


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
