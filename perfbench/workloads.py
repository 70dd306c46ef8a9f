"""Workload definitions: network, batch, phase sizing and seeded inputs.

Every workload is a closed loop driven from one process: the next batch or
training iteration starts only when the previous one has returned. A
workload runs as phases ("routes"), each in its own child process so that
its peak RSS is its own:

  float   -- Network.forward(x, training=False).data
  packed  -- Network.forward_packed(x)
  train   -- the library's train_step loop, timed per iteration

Inputs depend only on the seed; the program receives the generated arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_OPS = 4  # per phase: two untraced and two traced in a --trace 1 run


@dataclass(frozen=True)
class Phase:
    route: str
    batch: int
    share: float      # share of --seconds this phase is sized to measure
    nominal_s: float  # one operation on 2 Xeon cores when this was written


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    classes: int
    pool: int          # distinct inference batches, cycled in order
    train_images: int  # size of the synthetic training set
    phases: tuple
    two_step: bool = False  # step 1, step 2, save/load, then eval tail

    def phase(self, route: str) -> Phase:
        for ph in self.phases:
            if ph.route == route:
                return ph
        raise KeyError(route)

    def op_count(self, route: str, seconds: int) -> int:
        """Closed-loop operations a phase runs. The count depends only on
        --seconds, never on measured speed, so two commits run the same
        samples and count-type trace metrics repeat exactly."""
        ph = self.phase(route)
        share = ph.share / 2 if route == "train" and self.two_step else ph.share
        return max(MIN_OPS, round(share * seconds / ph.nominal_s))

    def spec(self):
        from bitcontext import network as nw
        return nw.preset(self.preset, classes=self.classes)


WORKLOADS = {w.name: w for w in (
    # Kernel-bound: ten 512-channel 3x3 convs with a 4,608-bit fan-in.
    Workload("sweep64", "desk-sweep", 10, pool=3, train_images=64, phases=(
        Phase("packed", 64, 0.45, 2.3),
        Phase("float", 64, 0.35, 1.05),
        Phase("train", 8, 0.20, 1.0),
    )),
    # Paper-scale per-image latency: narrow early layers, nine MLP blocks,
    # per-sample dynamic thresholds.
    Workload("bcdnet1", "bcdnet-b-like", 1000, pool=4, train_images=4, phases=(
        Phase("packed", 1, 0.45, 0.6),
        Phase("float", 1, 0.35, 0.45),
        Phase("train", 1, 0.20, 1.5),
    )),
    # STE training: two-step recipe, persistence, then a held-out eval tail.
    Workload("tiny-train", "desk-tiny", 10, pool=4, train_images=512, phases=(
        Phase("train", 64, 0.26, 0.33),
        Phase("float", 256, 0.37, 0.6),
        Phase("packed", 256, 0.37, 0.65),
    ), two_step=True),
)}


def synth_images(seed: int, stream: int, n: int, classes: int, shape):
    """Noise plus a class-dependent row wave on channel 0, so the labels
    are learnable. stream separates independent sets under one seed."""
    rng = np.random.default_rng([seed, stream])
    labels = rng.integers(0, classes, size=n)
    x = rng.standard_normal((n,) + tuple(shape), dtype=np.float32)
    rows = np.arange(shape[1], dtype=np.float32)
    wave = np.cos(2 * np.pi * (labels[:, None] + 1) * rows[None, :] / shape[1])
    x[:, 0] += 0.8 * wave[:, :, None].astype(np.float32)
    return x, labels.astype(np.int64)


def input_shape(spec):
    return (spec.in_channels,) + tuple(spec.input_hw)


def inference_pool(w: Workload, spec, seed: int, batch: int):
    """The batches an inference phase cycles through (held-out images for
    tiny-train)."""
    x, _ = synth_images(seed, 1, w.pool * batch, w.classes, input_shape(spec))
    return [x[i * batch:(i + 1) * batch] for i in range(w.pool)]


def train_set(w: Workload, spec, seed: int):
    from bitcontext.data import Dataset
    x, y = synth_images(seed, 0, w.train_images, w.classes, input_shape(spec))
    return Dataset(x, y, w.classes)


def train_configs(w: Workload, seed: int, seconds: int):
    """TrainConfig per training step the workload runs."""
    from bitcontext.train import TrainConfig
    ph = w.phase("train")
    n = w.op_count("train", seconds)
    if w.two_step:
        return [TrainConfig(step=1, iterations=n, batch_size=ph.batch, lr=2e-3,
                            weight_decay=1e-5, seed=seed, augment="roll"),
                TrainConfig(step=2, iterations=n, batch_size=ph.batch, lr=1e-3,
                            weight_decay=0.0, seed=seed + 1, augment="roll")]
    return [TrainConfig(step=2, iterations=n, batch_size=ph.batch, lr=1e-3,
                        weight_decay=0.0, seed=seed, augment="none")]
