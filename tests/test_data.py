import os
import re

import numpy as np
import pytest

from bitcontext import data as dt


class TestIdx:
    def test_ubyte_roundtrip(self, tmp_path, rng):
        arr = rng.integers(0, 256, size=(7, 5, 5)).astype(np.uint8)
        p = tmp_path / "x.idx"
        dt.write_idx(p, arr)
        assert np.array_equal(dt.read_idx(p), arr)

    def test_float_roundtrip(self, tmp_path, rng):
        arr = rng.normal(size=(3, 4)).astype(np.float32)
        p = tmp_path / "x.idx"
        dt.write_idx(p, arr)
        assert np.array_equal(dt.read_idx(p), arr)

    def test_big_endian_magic(self, tmp_path):
        p = tmp_path / "x.idx"
        dt.write_idx(p, np.zeros((2, 3), dtype=np.uint8))
        head = p.read_bytes()[:4]
        assert head[0] == 0 and head[1] == 0
        assert head[2] == dt.IDX_UBYTE and head[3] == 2

    @pytest.mark.parametrize("cut,what", [
        (0, "header"), (3, "header"), (4, "dims block"), (11, "dims block"),
        (12, r"shape \(2, 3\)"), (17, r"shape \(2, 3\)")])
    def test_truncated_file_names_what_is_short(self, tmp_path, cut, what):
        p = tmp_path / "x.idx"
        dt.write_idx(p, np.zeros((2, 3), dtype=np.uint8))
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"{what} needs .* file has {cut}"):
            dt.read_idx(p)

    @pytest.mark.parametrize("head,match", [
        (b"\x01\x00\x08\x01", "magic"), (b"\x00\x00\x09\x01", "type 0x09")])
    def test_bad_magic_or_type_code(self, tmp_path, head, match):
        p = tmp_path / "x.idx"
        p.write_bytes(head + b"\x00\x00\x00\x01\x00")
        with pytest.raises(ValueError, match=match):
            dt.read_idx(p)


class TestCifarBin:
    def test_roundtrip(self, tmp_path, rng):
        imgs = rng.integers(0, 256, size=(9, 3, 32, 32)).astype(np.uint8)
        labels = rng.integers(0, 10, size=9).astype(np.int64)
        p = tmp_path / "batch.bin"
        dt.write_cifar_bin(p, imgs, labels)
        gi, gl = dt.read_cifar_bin(p)
        assert np.array_equal(gi, imgs)
        assert np.array_equal(gl, labels)

    def test_record_size_is_canonical(self, tmp_path):
        imgs = np.zeros((2, 3, 32, 32), dtype=np.uint8)
        p = tmp_path / "b.bin"
        dt.write_cifar_bin(p, imgs, np.array([1, 2]))
        assert p.stat().st_size == 2 * 3073

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dt.write_cifar_bin(tmp_path / "b.bin",
                               np.zeros((1, 1, 32, 32), dtype=np.uint8),
                               np.array([0]))


class TestLoadDir:
    def test_cifar_autodetect(self, tmp_path):
        dt.write_synthetic_dir(tmp_path, 40, 20, size=32, channels=3, seed=0)
        ds = dt.load_dir(tmp_path, "train")
        assert ds.x.shape == (40, 3, 32, 32)
        assert ds.x.dtype == np.float32
        assert ds.classes == 10

    def test_idx_autodetect(self, tmp_path):
        dt.write_synthetic_dir(tmp_path, 30, 10, size=16, channels=1, seed=0)
        ds = dt.load_dir(tmp_path, "test")
        assert ds.x.shape == (10, 1, 16, 16)

    def test_cifar_split_reads_only_its_own_files(self, tmp_path):
        """A split is <split>.bin or <split>_<digits>.bin, so test_extra.bin
        is not split test's, and the CIFAR-10 layout still loads."""
        for name, n in (("test.bin", 12), ("test_extra.bin", 7), ("data_batch_1.bin", 3),
                        ("data_batch_2.bin", 4), ("test_batch.bin", 5)):
            dt.write_cifar_bin(tmp_path / name, *dt.make_blob_pairs(n, seed=n))
        assert len(dt.load_dir(tmp_path, "test")) == 12
        assert len(dt.load_dir(tmp_path, "data_batch")) == 3 + 4
        assert len(dt.load_dir(tmp_path, "test_batch")) == 5
        with pytest.raises(FileNotFoundError):
            dt.load_dir(tmp_path, "data")

    def test_numbered_cifar_files_load_in_numeric_order(self, tmp_path):
        """<split>.bin comes first, then the numbered files by their integer,
        so data_batch_10.bin follows data_batch_2.bin."""
        parts = {}
        for name, n in (("data_batch_10.bin", 2), ("data_batch_2.bin", 3),
                        ("data_batch.bin", 4), ("data_batch_1.bin", 5)):
            parts[name] = dt.make_blob_pairs(n, seed=n)
            dt.write_cifar_bin(tmp_path / name, *parts[name])
        order = ["data_batch.bin", "data_batch_1.bin", "data_batch_2.bin",
                 "data_batch_10.bin"]
        assert [os.path.basename(f) for f in dt.split_files(tmp_path, "data_batch")] \
            == order
        ds = dt.load_dir(tmp_path, "data_batch")
        assert np.array_equal(ds.y, np.concatenate([parts[f][1] for f in order]))

    def test_float_idx_images_load_as_stored(self, tmp_path, rng):
        """Only uint8 pixels are normalized; float32 images are model units."""
        images = rng.normal(size=(6, 4, 4)).astype(np.float32)
        dt.write_idx(tmp_path / "train-images.idx", images)
        dt.write_idx(tmp_path / "train-labels.idx", np.arange(6, dtype=np.uint8))
        ds = dt.load_dir(tmp_path, "train")
        assert ds.x.dtype == np.float32
        assert np.array_equal(ds.x, images[:, None])

    def test_idx_image_label_count_mismatch(self, tmp_path):
        dt.write_idx(tmp_path / "train-images.idx", np.zeros((10, 4, 4), np.uint8))
        dt.write_idx(tmp_path / "train-labels.idx", np.zeros(4, np.uint8))
        with pytest.raises(ValueError, match="10 images but 4 labels"):
            dt.load_dir(tmp_path, "train")

    @pytest.mark.parametrize("labels,first", [
        ([0.5, 2.9, -0.7], "label 0.5 at index 0"), ([1, 2, -1], "label -1.0 at index 2"),
        ([1, np.nan, 0], "label nan at index 1"), ([0, np.inf, 1], "label inf at index 1"),
        ([0, 1, 2.0 ** 64], "label 1.8446744073709552e+19 at index 2")])
    def test_idx_labels_must_be_non_negative_whole_numbers(self, tmp_path, labels, first):
        """A float label would otherwise be truncated, or wrap past int64,
        to a class index."""
        dt.write_idx(tmp_path / "train-images.idx", np.zeros((3, 4, 4), np.uint8))
        dt.write_idx(tmp_path / "train-labels.idx", np.array(labels, np.float32))
        with pytest.raises(ValueError, match=f"^'train' {re.escape(first)} is not a "
                                             r"non-negative whole number below 2\*\*63$"):
            dt.load_dir(tmp_path, "train")

    def test_whole_float_idx_labels_load(self, tmp_path):
        dt.write_idx(tmp_path / "train-images.idx", np.zeros((3, 4, 4), np.uint8))
        dt.write_idx(tmp_path / "train-labels.idx", np.array([0, 3, 1], np.float32))
        ds = dt.load_dir(tmp_path, "train")
        assert ds.y.dtype == np.int64 and ds.y.tolist() == [0, 3, 1] and ds.classes == 4

    def test_idx_labels_of_another_rank_rejected(self, tmp_path):
        """A (n, 10) labels file is not one label per image; cross_entropy
        would read it as soft targets."""
        dt.write_idx(tmp_path / "train-images.idx", np.zeros((10, 4, 4), np.uint8))
        dt.write_idx(tmp_path / "train-labels.idx", np.zeros((10, 10), np.uint8))
        with pytest.raises(ValueError, match=r"'train' labels have shape \(10, 10\)"):
            dt.load_dir(tmp_path, "train")

    @pytest.mark.parametrize("shape", [(), (4,), (4, 16), (4, 1, 1, 4, 4)])
    def test_idx_images_of_another_rank_rejected(self, tmp_path, shape):
        """Images are (n, h, w) or (n, c, h, w); any other rank is named
        with its split and shape, not left to fail later."""
        dt.write_idx(tmp_path / "train-images.idx", np.zeros(shape, np.uint8))
        dt.write_idx(tmp_path / "train-labels.idx", np.zeros(4, np.uint8))
        with pytest.raises(ValueError, match=re.escape(
                f"'train' images have shape {shape}; images need shape "
                "(n, h, w) or (n, c, h, w)")):
            dt.load_dir(tmp_path, "train")

    @pytest.mark.parametrize("fmt,shape", [("idx", r"\(0, 1, 4, 4\)"),
                                           ("cifar", r"\(0, 3, 32, 32\)")])
    def test_empty_split_rejected(self, tmp_path, fmt, shape):
        if fmt == "idx":
            dt.write_idx(tmp_path / "train-images.idx", np.zeros((0, 4, 4), np.uint8))
            dt.write_idx(tmp_path / "train-labels.idx", np.zeros(0, np.uint8))
        else:
            (tmp_path / "train.bin").write_bytes(b"")
        with pytest.raises(ValueError, match=f"'train' has no images \\(images shape {shape}"):
            dt.load_dir(tmp_path, "train")

    def test_missing_split(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            dt.load_dir(tmp_path, "train")


class TestSynthetic:
    def test_deterministic_generation(self):
        a, la = dt.make_blob_pairs(20, seed=3)
        b, lb = dt.make_blob_pairs(20, seed=3)
        assert np.array_equal(a, b) and np.array_equal(la, lb)

    def test_class_count_and_ranges(self):
        u8, labels = dt.make_blob_pairs(200, seed=0)
        assert u8.dtype == np.uint8
        assert set(np.unique(labels)) <= set(range(10))
        assert len(dt.pair_offsets(32)) == 10

    @pytest.mark.parametrize("size,channels", [(32, 3), (16, 1)])
    def test_written_dir_loads_the_in_memory_sets(self, tmp_path, size, channels):
        """The CLI builds a synthetic run's sets in memory, train seeded seed
        and eval seed + 1; written out and read back they are the same."""
        dt.write_synthetic_dir(tmp_path, 200, 80, size=size, channels=channels, seed=4)
        for split, n, seed in (("train", 200, 4), ("test", 80, 5)):
            disk = dt.load_dir(tmp_path, split)
            mem = dt.synthetic_pairs_dataset(n, size, channels, seed)
            assert disk.x.dtype == mem.x.dtype and disk.y.dtype == mem.y.dtype
            assert np.array_equal(disk.x, mem.x) and np.array_equal(disk.y, mem.y)
            assert disk.classes == mem.classes

    def test_offsets_distinct_under_torus_negation(self):
        """Classes must stay separable: no two offsets coincide modulo the
        (o ~ -o) equivalence of an unordered blob pair."""
        for size in (16, 32):
            canon = set()
            for dy, dx in dt.pair_offsets(size):
                o1 = (dy % size, dx % size)
                o2 = ((-dy) % size, (-dx) % size)
                canon.add(min(o1, o2))
            assert len(canon) == 10


class TestAugment:
    def test_none_passthrough(self, rng):
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        assert dt.augment_batch(x, "none", rng) is x

    def test_roll_preserves_content_multiset(self, rng):
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        out = dt.augment_batch(x, "roll", np.random.default_rng(0))
        assert out.shape == x.shape
        for i in range(4):
            assert np.allclose(np.sort(out[i].ravel()), np.sort(x[i].ravel()))

    def test_flip_crop_shape_and_determinism(self, rng):
        x = rng.normal(size=(6, 3, 32, 32)).astype(np.float32)
        a = dt.augment_batch(x, "flip-crop", np.random.default_rng(7))
        b = dt.augment_batch(x, "flip-crop", np.random.default_rng(7))
        assert a.shape == x.shape
        assert np.array_equal(a, b)

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            dt.augment_batch(np.zeros((1, 1, 4, 4), np.float32), "mixup", rng)
