"""Two-step training, optimizer, schedules, metrics and the conv-vs-MLP
replacement sweep.

Step one trains full-precision shadow weights under binarized activations;
step two binarizes the weights as well (zero weight decay, per the training
recipe). Both run as train_step on one network, so step two starts from
exactly what step one left. All randomness flows from the config seed
through one generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from . import costmodel as cm
from . import network as nw
from .data import AUGMENTS, Dataset, augment_batch


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
    augment: str = "none"
    teacher_logits: np.ndarray | None = None
    kd_weight: float = 0.0

    def validate(self):
        """Raise ValueError, its message led by the field's name, on a value
        training cannot use (NaN fails every range)."""
        for bad, name, rule in (
                (self.step not in (1, 2), "step", "1 or 2"),
                (not self.iterations >= 0, "iterations", ">= 0"),
                (not self.batch_size >= 1, "batch_size", ">= 1"),
                (not self.lr >= 0.0, "lr", ">= 0"),
                (not self.weight_decay >= 0.0, "weight_decay", ">= 0"),
                (not 0.0 <= self.smoothing < 1.0, "smoothing", "in [0, 1)"),
                (self.augment not in AUGMENTS, "augment", f"one of {AUGMENTS}"),
                (not 0.0 <= self.kd_weight <= 1.0, "kd_weight", "in [0, 1]")):
            if bad:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
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


def cosine_lr(t: int, total: int, peak: float) -> float:
    """Cosine decay from peak at t=0 to exactly 0 at t=total."""
    if total <= 0:
        return peak
    return float(peak) * 0.5 * (1.0 + math.cos(math.pi * min(t, total) / total))


# Elements per AdamW block: the chain's two scratch blocks and its slices of
# g, m, v and p stay in cache while the thirteen operations run over them.
BLOCK = 1 << 16


class AdamW:
    """Adaptive moments with decoupled weight decay.

    The decay is applied to the parameter directly (not folded into the
    gradient): p -= lr * (m_hat / (sqrt(v_hat) + eps) + wd * p).
    The moments and the parameters are updated in place with the same
    operations in the same order as that formula, so each step rounds
    exactly as the out-of-place form does; the gradients are only read.
    Every operation is elementwise, so a tensor whose gradient, moments and
    values are all C-contiguous runs the chain over consecutive flat blocks
    of BLOCK elements through two block-sized scratch arrays, which makes
    one pass over memory instead of one per operation. Any other tensor
    runs it once over the whole arrays. The chain also takes the maximum of
    each new second moment while it is in cache; v_max[k] is that of v[k]
    as the last step left it (NaN if any element is NaN), which is all
    that overflows needs to read of v.
    """

    def __init__(self, params: dict, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v_max = {k: 0.0 for k in params}

    def overflows(self) -> bool:
        """True when the next step's bias-corrected second-moment estimate
        would not be finite: a gradient is non-finite or too large. It
        reads the gradients and the recorded maxima of the second moments."""
        b2c = 1.0 - self.beta2 ** (self.t + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for k, p in self.params.items():
                if p.grad is None:
                    continue
                g, v = p.grad, self.v[k]
                # The new v is a convex mix of v and g * g, so it and every
                # intermediate are at most max(v, g * g), up to rounding the
                # halved limit absorbs; a float sum of squares is no less
                # than its largest term. np.maximum keeps a NaN from either.
                bound = np.maximum(self.v_max[k], float(np.vdot(g, g)))
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
            arrays = (p.grad, self.m[k], self.v[k], p.data)
            if not all(x.flags.c_contiguous for x in arrays):
                a, b = np.empty_like(arrays[1]), np.empty_like(arrays[1])
                self.v_max[k] = float(self._chain(*arrays, a, b, lr, b1c, b2c))
                continue
            flat = [x.reshape(-1) for x in arrays]  # views: all C-contiguous
            n = flat[1].size
            a = np.empty(min(n, BLOCK), dtype=flat[1].dtype)
            b = np.empty_like(a)
            tops = []
            for i in range(0, n, BLOCK):
                j = min(i + BLOCK, n)
                tops.append(self._chain(*(x[i:j] for x in flat), a[:j - i], b[:j - i],
                                        lr, b1c, b2c))
            self.v_max[k] = float(np.max(tops))  # NaN if any block's is

    def _chain(self, g, m, v, p, a, b, lr, b1c, b2c):
        """One AdamW update of p, m and v in place, with scratch a and b;
        returns the maximum of the new v."""
        np.multiply(self.beta1, m, out=m)
        np.multiply(1.0 - self.beta1, g, out=a)
        np.add(m, a, out=m)                    # m = b1 * m + (1 - b1) * g
        np.multiply(self.beta2, v, out=v)
        np.multiply(g, g, out=a)
        np.multiply(1.0 - self.beta2, a, out=a)
        np.add(v, a, out=v)                    # v = b2 * v + (1 - b2) * (g * g)
        top = v.max()
        np.divide(m, b1c, out=a)               # m_hat
        np.divide(v, b2c, out=b)               # v_hat
        np.sqrt(b, out=b)
        np.add(b, self.eps, out=b)
        np.divide(a, b, out=a)                 # update = m_hat / (sqrt(v_hat) + eps)
        if self.weight_decay:
            np.multiply(self.weight_decay, p, out=b)
            np.add(a, b, out=a)
        np.multiply(lr, a, out=a)
        np.subtract(p, a, out=p)
        return top


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


def _copy_arrays(dst: list, src: list):
    for d, s in zip(dst, src):
        d[...] = s


def train_step(net: nw.Network, data: Dataset, cfg: TrainConfig) -> TrainResult:
    """One optimization phase; the step number selects the weight mode.
    A non-finite loss, or gradients whose second moments overflow, raise
    DivergenceError before that iteration's update is applied, with the
    batch-norm running statistics restored to their values before it."""
    cfg.validate()
    net.step = cfg.step
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(net.params(), weight_decay=cfg.weight_decay)
    result = TrainResult()
    buffers = list(net.buffers().values())
    stats = [b.copy() for b in buffers]  # restored if an iteration diverges
    for it, idx in enumerate(_batch_iter(len(data), cfg.batch_size,
                                         cfg.iterations, rng)):
        xb = augment_batch(data.x[idx], cfg.augment, rng)
        yb = data.y[idx]
        _copy_arrays(stats, buffers)
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
            _copy_arrays(buffers, stats)
            raise DivergenceError(f"training diverged: step {cfg.step} iteration {it} "
                                  f"has loss {value}")
        net.zero_grad()
        obj.backward()
        if opt.overflows():
            _copy_arrays(buffers, stats)
            raise DivergenceError(f"training diverged: step {cfg.step} iteration {it} "
                                  f"has loss {value:.6g} and gradients whose "
                                  "second moments overflow")
        lr = cosine_lr(it, cfg.iterations, cfg.lr)
        opt.step(lr)
        result.loss_history.append(value)
    return result


def train_step1(net: nw.Network, data: Dataset, cfg: TrainConfig):
    """Real-weight / binary-activation phase; returns a copy of the state
    arrays and the result. train_step1 and train_step2 stay only because
    perfbench/phase.py calls them; ROADMAP item 1's benchmark change moves
    phase.py onto train_step and deletes both."""
    if cfg.step != 1:
        raise ValueError("train_step1 requires cfg.step == 1")
    result = train_step(net, data, cfg)
    return {k: v.copy() for k, v in net.state_arrays().items()}, result


def train_step2(net: nw.Network, init: dict | None, data: Dataset,
                cfg: TrainConfig):
    """Fully binarized phase, initialized from a step-1 state of the same network."""
    if cfg.step != 2:
        raise ValueError("train_step2 requires cfg.step == 2")
    if init is not None:
        net.load_state_arrays(init)
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
            with ag.no_grad():
                logits = net.forward(xb, training=False).data
        pred = logits.argmax(axis=1)
        correct1 += int((pred == yb).sum())
        top5 = np.argpartition(-logits, k5 - 1, axis=1)[:, :k5]
        correct5 += int((top5 == yb[:, None]).any(axis=1).sum())
        total_loss += loss(logits, yb) * len(yb)
    return Metrics(correct1 / n, correct5 / n, total_loss / n, n)


def sweep_replacement(n_mlp_list, band: float = 0.03,
                      base_spec: nw.NetworkSpec | None = None, classes=10,
                      train_data: Dataset | None = None,
                      eval_data: Dataset | None = None,
                      cfgs=(), seed: int = 0):
    """Cost (and optionally accuracy) rows for the conv->MLP trade-off.

    Each point converts trailing stride-1 conv blocks of the base spec
    (desk_sweep(classes) by default) into triples of MLP blocks. A point is
    in_band when its OPs lie within +-band of the base spec's, mirroring
    the essentially-flat full-scale budget. With cfgs, each point's network
    is built from seed, trained by train_step once per config on
    train_data, and scored on eval_data as top1.
    """
    if cfgs and (train_data is None or eval_data is None):
        raise ValueError("a trained sweep needs train_data and eval_data")
    if base_spec is None:
        base_spec = nw.desk_sweep(classes=classes)
    base_ops = cm.count_network(base_spec).ops
    lo, hi = base_ops * (1 - band), base_ops * (1 + band)
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
            "in_band": lo <= report.ops <= hi,
        }
        if cfgs:
            net = nw.build(spec, seed=seed)
            for cfg in cfgs:
                train_step(net, train_data, cfg)
            row["top1"] = evaluate(net, eval_data).top1
        rows.append(row)
    return rows
