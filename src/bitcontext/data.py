"""Dataset ingestion (IDX and CIFAR binary record formats), augmentation,
and the synthetic desk-scale generator used by the training smoke tests.

The synthetic task ("blob pairs") places two identical Gaussian bright
spots on a noisy torus; the class is the pair's relative offset. Long
relative distances (half the image) are exactly what the long-range token
shifts resolve, so the task separates contextual from pointwise-only
models while staying learnable in minutes on a CPU.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_UBYTE = 0x08
IDX_FLOAT = 0x0D


@dataclass
class Dataset:
    """Images as float32 NCHW in model units plus integer labels."""

    x: np.ndarray
    y: np.ndarray
    classes: int

    def __len__(self):
        return self.x.shape[0]


def normalize_images(u8: np.ndarray) -> np.ndarray:
    """uint8 pixels -> roughly [-2, 2] model units."""
    return ((u8.astype(np.float32) - 128.0) / 64.0).astype(np.float32)


# ---------------------------------------------------------------------------
# IDX format (big-endian magic + dims, as used by the classic digit sets)


def write_idx(path, arr: np.ndarray) -> None:
    arr = np.asarray(arr)
    if arr.dtype == np.uint8:
        code = IDX_UBYTE
    elif arr.dtype == np.float32:
        code = IDX_FLOAT
    else:
        raise ValueError(f"unsupported IDX dtype {arr.dtype}")
    with open(path, "wb") as f:
        f.write(struct.pack(">HBB", 0, code, arr.ndim))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(arr.astype(arr.dtype.newbyteorder(">")).tobytes())


def read_idx(path) -> np.ndarray:
    """Read an IDX file; a bad magic or type code, or a header, dims block
    or payload shorter than it declares, raises ValueError."""
    with open(path, "rb") as f:
        blob = f.read()

    def need(nbytes, what):
        if len(blob) < nbytes:
            raise ValueError(f"{path}: IDX {what} needs {nbytes} bytes, "
                             f"file has {len(blob)}")

    need(4, "header")
    zero, code, ndim = struct.unpack_from(">HBB", blob)
    if zero != 0:
        raise ValueError(f"{path}: bad IDX magic")
    if code == IDX_UBYTE:
        dt = np.dtype(np.uint8)
    elif code == IDX_FLOAT:
        dt = np.dtype(np.float32).newbyteorder(">")
    else:
        raise ValueError(f"{path}: unsupported IDX type 0x{code:02x}")
    off = 4 + 4 * ndim
    need(off, "dims block")
    shape = struct.unpack_from(f">{ndim}I", blob, 4)
    count = int(np.prod(shape))
    need(off + dt.itemsize * count, f"shape {shape}")
    data = np.frombuffer(blob, dtype=dt, count=count, offset=off)
    return data.reshape(shape).astype(dt.newbyteorder("="))


# ---------------------------------------------------------------------------
# CIFAR binary record format: 1 label byte + 32*32 R, G, B planes


CIFAR_HW = 32
CIFAR_RECORD = 1 + 3 * CIFAR_HW * CIFAR_HW


def write_cifar_bin(path, images_u8: np.ndarray, labels: np.ndarray) -> None:
    n, c, h, w = images_u8.shape
    if (c, h, w) != (3, CIFAR_HW, CIFAR_HW) or images_u8.dtype != np.uint8:
        raise ValueError("CIFAR records are uint8 (n, 3, 32, 32)")
    rec = np.empty((n, CIFAR_RECORD), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = images_u8.reshape(n, -1)
    rec.tofile(path)


def read_cifar_bin(path):
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % CIFAR_RECORD != 0:
        raise ValueError(f"{path}: size is not a multiple of {CIFAR_RECORD}")
    rec = raw.reshape(-1, CIFAR_RECORD)
    labels = rec[:, 0].astype(np.int64)
    images = rec[:, 1:].reshape(-1, 3, CIFAR_HW, CIFAR_HW)
    return images, labels


# ---------------------------------------------------------------------------
# directory loading


def split_files(root, split: str) -> list:
    """The files that hold a split under root, [] when there are none.

    IDX naming: <split>-images.idx + <split>-labels.idx, one label per image.
    CIFAR naming: <split>*.bin (all matching files, in name order).
    """
    idx = [os.path.join(root, f"{split}-{part}.idx") for part in ("images", "labels")]
    if os.path.exists(idx[0]):
        return idx
    names = sorted(os.listdir(root)) if os.path.isdir(root) else []
    return [os.path.join(root, f) for f in names
            if f.startswith(split) and f.endswith(".bin")]


def load_dir(root, split: str) -> Dataset:
    """Load a split's IDX pair, or its CIFAR .bin files concatenated."""
    files = split_files(root, split)
    if not files:
        raise FileNotFoundError(f"no {split!r} files under {root}")
    if files[0].endswith(".idx"):
        images = read_idx(files[0])
        labels = read_idx(files[1]).astype(np.int64)
        if len(images) != len(labels):
            raise ValueError(f"{split!r} has {len(images)} images "
                             f"but {len(labels)} labels")
        if images.ndim == 3:  # (n, h, w) -> single channel
            images = images[:, None, :, :]
        x = normalize_images(images) if images.dtype == np.uint8 \
            else images.astype(np.float32)
        return Dataset(x, labels, int(labels.max()) + 1)
    parts = [read_cifar_bin(f) for f in files]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    return Dataset(normalize_images(images), labels, int(labels.max()) + 1)


# ---------------------------------------------------------------------------
# synthetic desk-scale data


def pair_offsets(size: int):
    """The ten class-defining relative offsets for a size x size torus."""
    q, h = size // 4, size // 2
    return [(0, 0), (0, q), (0, h), (q, 0), (h, 0),
            (q, q), (q, -q), (q, h), (h, q), (h, h)]


def make_blob_pairs(n: int, size: int = 32, channels: int = 3, seed: int = 0,
                    noise: float = 0.18, blob_sigma: float = 1.3):
    """Render n labeled blob-pair images; returns (uint8 NCHW, labels)."""
    rng = np.random.default_rng(seed)
    offsets = pair_offsets(size)
    labels = rng.integers(0, len(offsets), size=n)
    cy = rng.integers(0, size, size=n)
    cx = rng.integers(0, size, size=n)
    off = np.array([offsets[k] for k in labels])
    grid = np.arange(size)

    def blob(py, px):
        dy = np.abs(grid[None, :] - py[:, None])
        dy = np.minimum(dy, size - dy).astype(np.float32)
        dx = np.abs(grid[None, :] - px[:, None])
        dx = np.minimum(dx, size - dx).astype(np.float32)
        d2 = dy[:, :, None] ** 2 + dx[:, None, :] ** 2
        return np.exp(-d2 / (2.0 * blob_sigma ** 2))

    field = blob(cy, cx) + blob((cy + off[:, 0]) % size, (cx + off[:, 1]) % size)
    field = np.clip(field, 0.0, 1.0)
    img = field[:, None, :, :] + rng.normal(0.0, noise, size=(n, channels, size, size))
    u8 = np.clip(img * 160.0 + 48.0, 0, 255).astype(np.uint8)
    return u8, labels.astype(np.int64)


def synthetic_pairs_dataset(n: int, size: int = 32, channels: int = 3,
                            seed: int = 0) -> Dataset:
    u8, labels = make_blob_pairs(n, size=size, channels=channels, seed=seed)
    return Dataset(normalize_images(u8), labels, 10)


def write_synthetic_dir(root, n_train: int, n_test: int, size: int = 32,
                        channels: int = 3, seed: int = 0,
                        splits=("train", "test")) -> None:
    """Materialize a synthetic dataset directory, the training and test sets
    named by splits as split_files reads them; 32x32 RGB goes out in the
    CIFAR record format, anything else as IDX pairs."""
    os.makedirs(root, exist_ok=True)
    sets = [make_blob_pairs(n, size, channels, seed + i)
            for i, n in enumerate((n_train, n_test))]
    for split, (u8, y) in zip(splits, sets):
        if size == CIFAR_HW and channels == 3:
            write_cifar_bin(os.path.join(root, f"{split}.bin"), u8, y)
        else:
            write_idx(os.path.join(root, f"{split}-images.idx"),
                      u8[:, 0] if channels == 1 else u8)
            write_idx(os.path.join(root, f"{split}-labels.idx"), y.astype(np.uint8))


# ---------------------------------------------------------------------------
# augmentation

AUGMENTS = ("none", "roll", "flip-crop")


def augment_batch(x: np.ndarray, mode: str, rng) -> np.ndarray:
    """Label-preserving train-time augmentation.

    "flip-crop": horizontal flip + 4px zero-pad random crop (natural
    images); "roll": random toroidal shift, matching the recurrent-index
    topology of the synthetic pair data; "none": passthrough.
    """
    if mode == "none":
        return x
    n, c, h, w = x.shape
    if mode == "roll":
        out = np.empty_like(x)
        dy = rng.integers(0, h, size=n)
        dx = rng.integers(0, w, size=n)
        for i in range(n):
            out[i] = np.roll(x[i], (dy[i], dx[i]), axis=(1, 2))
        return out
    if mode == "flip-crop":
        pad = 4
        flip = rng.random(n) < 0.5
        x = x.copy()
        x[flip] = x[flip, :, :, ::-1]
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oy = rng.integers(0, 2 * pad + 1, size=n)
        ox = rng.integers(0, 2 * pad + 1, size=n)
        out = np.empty_like(x)
        for i in range(n):
            out[i] = xp[i, :, oy[i]:oy[i] + h, ox[i]:ox[i] + w]
        return out
    raise ValueError(f"unknown augmentation {mode!r}")
