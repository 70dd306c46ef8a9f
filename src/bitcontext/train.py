"""Two-step training pipeline, optimizer, schedules, metrics and the
conv-vs-MLP replacement sweep.

Step one trains full-precision shadow weights under binarized activations;
step two starts from that checkpoint and binarizes weights as well (zero
weight decay, per the training recipe). All randomness flows from the
config seed through one generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import costmodel as cm
from . import network as nw
from .data import Dataset, augment_batch


class DivergenceError(ValueError):
    """Training diverged: the loss, or the gradients' second moments, are
    no longer finite. The iteration that shows it applies no update."""


@dataclass
class TrainConfig:
    step: int = 1
    iterations: int = 500
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-5
    smoothing: float = 0.1
    seed: int = 0
    dataset: str = ""
    augment: str = "none"
    teacher_logits: np.ndarray | None = None
    kd_weight: float = 0.0

    def validate(self):
        if self.step not in (1, 2):
            raise ValueError(f"step must be 1 or 2, got {self.step}")
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")
        return self


@dataclass
class Metrics:
    top1: float
    top5: float
    loss: float
    n: int


@dataclass
class TrainResult:
    loss_history: list = field(default_factory=list)
    final_lr: float = 0.0


def cosine_lr(t: int, total: int, peak: float) -> float:
    """Cosine decay from peak at t=0 to exactly 0 at t=total."""
    if total <= 0:
        return peak
    return float(peak) * 0.5 * (1.0 + math.cos(math.pi * min(t, total) / total))


class AdamW:
    """Adaptive moments with decoupled weight decay.

    The decay is applied to the parameter directly (not folded into the
    gradient): p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p).
    """

    def __init__(self, params: dict, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def overflows(self) -> bool:
        """True when the next step's bias-corrected second-moment estimate
        would not be finite: a gradient is non-finite or too large."""
        b2c = 1.0 - self.beta2 ** (self.t + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for k, p in self.params.items():
                if p.grad is None:
                    continue
                g, v = p.grad, self.v[k]
                # The new v is a convex mix of v and g * g, so it and every
                # intermediate are at most max(v, g * g), up to rounding the
                # halved limit absorbs; a float sum of squares is no less
                # than its largest term.
                bound = max(float(v.max()), float(np.vdot(g, g)))
                if bound / b2c < 0.5 * float(np.finfo(v.dtype).max):
                    continue
                v_hat = (self.beta2 * v + (1.0 - self.beta2) * (g * g)) / b2c
                if not np.isfinite(v_hat).all():
                    return True
        return False

    def step(self, lr: float):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[k] / b1c
            v_hat = self.v[k] / b2c
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= (lr * update).astype(p.data.dtype)


def loss(logits, labels, smoothing: float = 0.0):
    """Cross-entropy against label-smoothed targets; accepts arrays or
    graph tensors (returns a float for arrays, a Tensor otherwise)."""
    if isinstance(logits, ag.Tensor):
        return ag.cross_entropy(logits, labels, smoothing)
    t = ag.cross_entropy(ag.Tensor(np.asarray(logits)), labels, smoothing)
    return float(t.data)


def _batch_iter(n: int, batch_size: int, iterations: int, rng):
    """Shuffled epochs flattened into a fixed number of iterations."""
    order = rng.permutation(n)
    pos = 0
    for _ in range(iterations):
        if pos + batch_size > n:
            order = rng.permutation(n)
            pos = 0
        yield order[pos:pos + batch_size]
        pos += batch_size


def train_step(net: nw.Network, data: Dataset, cfg: TrainConfig) -> TrainResult:
    """One optimization phase; the step number selects the weight mode.
    A non-finite loss, or gradients whose second moments overflow, raise
    DivergenceError before that iteration's update is applied."""
    cfg.validate()
    net.binary_weights = cfg.step == 2
    net.step = cfg.step
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(net.params(), weight_decay=cfg.weight_decay)
    result = TrainResult()
    lr = cfg.lr
    for it, idx in enumerate(_batch_iter(len(data), cfg.batch_size,
                                         cfg.iterations, rng)):
        xb = augment_batch(data.x[idx], cfg.augment, rng)
        yb = data.y[idx]
        logits = net.forward(xb, training=True)
        obj = ag.cross_entropy(logits, yb, cfg.smoothing)
        if cfg.teacher_logits is not None and cfg.kd_weight > 0.0:
            teacher = cfg.teacher_logits[idx]
            p = np.exp(teacher - teacher.max(axis=1, keepdims=True))
            soft = ag.cross_entropy(logits, p / p.sum(axis=1, keepdims=True))
            obj = ag.add(ag.scale_by(obj, 1.0 - cfg.kd_weight),
                         ag.scale_by(soft, cfg.kd_weight))
        value = float(obj.data)
        if not math.isfinite(value):
            raise DivergenceError(f"training diverged: step {cfg.step} iteration {it} "
                                  f"has loss {value}")
        net.zero_grad()
        obj.backward()
        if opt.overflows():
            raise DivergenceError(f"training diverged: step {cfg.step} iteration {it} "
                                  f"has loss {value:.6g} and gradients whose "
                                  "second moments overflow")
        lr = cosine_lr(it, cfg.iterations, cfg.lr)
        opt.step(lr)
        result.loss_history.append(value)
    result.final_lr = lr
    return result


def train_step1(net: nw.Network, data: Dataset, cfg: TrainConfig):
    """Real-weight / binary-activation phase; returns the state arrays."""
    if cfg.step != 1:
        raise ValueError("train_step1 requires cfg.step == 1")
    result = train_step(net, data, cfg)
    return {k: v.copy() for k, v in net.state_arrays().items()}, result


def train_step2(net: nw.Network, init: dict | None, data: Dataset,
                cfg: TrainConfig):
    """Fully binarized phase, initialized from a step-1 state when given."""
    if cfg.step != 2:
        raise ValueError("train_step2 requires cfg.step == 2")
    if init is not None:
        net.load_state_arrays(init, allow_missing=True)
    result = train_step(net, data, cfg)
    return {k: v.copy() for k, v in net.state_arrays().items()}, result


def evaluate(net: nw.Network, data: Dataset, batch_size: int = 256,
             packed: bool = False) -> Metrics:
    """Deterministic full-set evaluation (top-1/top-5/mean loss)."""
    n = len(data)
    correct1 = correct5 = 0
    total_loss = 0.0
    k5 = min(5, data.classes)
    for lo in range(0, n, batch_size):
        xb = data.x[lo:lo + batch_size]
        yb = data.y[lo:lo + batch_size]
        if packed:
            logits = net.forward_packed(xb)
        else:
            logits = net.forward(xb, training=False).data
        pred = logits.argmax(axis=1)
        correct1 += int((pred == yb).sum())
        top5 = np.argpartition(-logits, k5 - 1, axis=1)[:, :k5]
        correct5 += int((top5 == yb[:, None]).any(axis=1).sum())
        total_loss += loss(logits, yb) * len(yb)
    return Metrics(correct1 / n, correct5 / n, total_loss / n, n)


def two_step_pipeline(spec: nw.NetworkSpec, train_data: Dataset,
                      cfg1: TrainConfig, cfg2: TrainConfig, seed: int = 0):
    """Build, run both phases, and return the final network and results."""
    net = nw.build(spec, seed=seed)
    state1, res1 = train_step1(net, train_data, cfg1)
    state2, res2 = train_step2(net, state1, train_data, cfg2)
    return net, (res1, res2)


def sweep_replacement(n_mlp_list, budget_band=None,
                      base_spec: nw.NetworkSpec | None = None, classes=10,
                      train_data: Dataset | None = None,
                      eval_data: Dataset | None = None,
                      cfg1: TrainConfig | None = None,
                      cfg2: TrainConfig | None = None, seed: int = 0):
    """Cost (and optionally accuracy) rows for the conv->MLP trade-off.

    Each point converts trailing stride-1 conv blocks of the base spec
    (the sweep preset by default) into triples of MLP blocks. budget_band
    is an (lo, hi) OPs window each point must stay inside; None derives a
    +-3% band around the all-conv baseline, mirroring the essentially-flat
    full-scale budget.
    """
    if base_spec is None:
        base_spec = nw.desk_sweep(classes=classes)
    base_ops = cm.count_network(base_spec).ops
    if budget_band is None:
        budget_band = (base_ops * 0.97, base_ops * 1.03)
    rows = []
    for n_mlp in n_mlp_list:
        spec = nw.replace_trailing_convs(base_spec, n_mlp)
        report = cm.count_network(spec)
        n_conv = sum(1 for ls in spec.layers if ls.kind == "binary-conv-3x3")
        row = {
            "n_mlp": n_mlp,
            "n_conv": n_conv,
            "bops": report.bops,
            "flops": report.flops,
            "ops": report.ops,
            "in_band": budget_band[0] <= report.ops <= budget_band[1],
        }
        if train_data is not None and cfg1 is not None and cfg2 is not None:
            net, _ = two_step_pipeline(spec, train_data, cfg1, cfg2, seed=seed)
            metrics = evaluate(net, eval_data if eval_data is not None
                               else train_data)
            row["top1"] = metrics.top1
        rows.append(row)
    return rows
