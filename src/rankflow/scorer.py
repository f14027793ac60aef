"""Per-window scoring: a GT-backed oracle for pipeline verification and a
small trainable MLP classifier optimized with cross-entropy plus a pairwise
margin-ranking term over expected class indices.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .domain import Ranking
from .errors import EmptyDataset, MissingFile, ShapeMismatch, TruncatedData, UnsupportedFormat
from .ingest import write_atomic
from .rankcore import softmax

MODEL_MAGIC = b"RFM1"
ORACLE_PEAK = 10.0


@dataclass
class ScorerModel:
    w1: np.ndarray  # d_in x h
    b1: np.ndarray  # h
    w2: np.ndarray  # h x C
    b2: np.ndarray  # C

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.w1.shape[0], self.w1.shape[1], self.w2.shape[1]

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def copy(self) -> "ScorerModel":
        return ScorerModel(*(p.copy() for p in self.params()))


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay_every: int = 10
    lr_decay_factor: float = 0.1
    alpha: float = 1.0
    margin: float = 0.0
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0 or not 0 <= self.momentum < 1:
            raise ValueError("lr must be >= 0 and momentum in [0,1)")


def init_model(d_in: int = 18, hidden: int = 32, n_classes: int = 6, seed: int = 0) -> ScorerModel:
    """Glorot-uniform weights, zero biases, deterministic under seed."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return ScorerModel(
        w1=glorot(d_in, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, n_classes),
        b2=np.zeros(n_classes),
    )


def window_gt_labels(gt: Ranking, member_ids) -> tuple[int, ...]:
    """Re-rank the members' non-zero global orders to within-window 1..k.

    Ids absent from the ranking (dummies) and global order 0 map to class 0.
    """
    orders = [gt.labels.get(pid, 0) for pid in member_ids]
    salient = sorted(o for o in orders if o > 0)
    return tuple(0 if o == 0 else 1 + salient.index(o) for o in orders)


def oracle_scorer(gt: Ranking):
    """Scorer emitting one-hot-like logits at each member's GT-derived label,
    for one window of ids or an (n, W) array with one window per row."""

    def score(member_ids, inputs):
        ids = np.asarray(member_ids)
        rows = ids.reshape(-1, ids.shape[-1]).tolist()
        labels = np.array([window_gt_labels(gt, row) for row in rows]).reshape(ids.shape)
        classes = np.arange(ids.shape[-1] + 1)
        return np.where(labels[..., None] == classes, ORACLE_PEAK, 0.0)

    return score


def mlp_forward(model: ScorerModel, inputs: np.ndarray) -> np.ndarray:
    """Logits (..., C) for inputs (..., d_in): one window or a stack of them."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim < 2 or inputs.shape[-1] != model.w1.shape[0]:
        raise ShapeMismatch(
            f"expected inputs with {model.w1.shape[0]} columns, got {inputs.shape}"
        )
    hidden = np.maximum(0.0, inputs @ model.w1 + model.b1)
    return hidden @ model.w2 + model.b2


def make_scorer(model: ScorerModel):
    def score(member_ids, inputs):
        return mlp_forward(model, inputs)

    return score


def loss_and_grad(
    model: ScorerModel,
    inputs: np.ndarray,
    gt_labels,
    cfg: TrainConfig,
    dummy_mask=None,
):
    """Total loss (CE + alpha * margin ranking) and analytic parameter grads.

    Dummy rows are masked out of both terms.  The ranking term compares
    expected class indices of salient pairs: the lower-ranked (less salient)
    member's expectation should exceed the higher-ranked one's by the margin.
    """
    inputs = np.asarray(inputs, dtype=float)
    w = inputs.shape[0]
    if dummy_mask is None:
        dummy_mask = [False] * w
    gt_labels = list(gt_labels)
    if len(gt_labels) != w:
        raise ShapeMismatch(f"{len(gt_labels)} labels for {w} rows")

    hidden = np.maximum(0.0, inputs @ model.w1 + model.b1)
    logits = hidden @ model.w2 + model.b2
    p = softmax(logits)
    n_classes = logits.shape[1]
    valid = [r for r in range(w) if not dummy_mask[r]]

    dlogits = np.zeros_like(logits)
    loss = 0.0

    if valid:
        for r in valid:
            loss += -np.log(max(p[r, gt_labels[r]], 1e-300))
            dlogits[r] += p[r]
            dlogits[r, gt_labels[r]] -= 1.0
        loss /= len(valid)
        dlogits /= len(valid)

    class_idx = np.arange(n_classes)
    y_hat = p @ class_idx
    grad_y = np.zeros(w)
    rank_loss = 0.0
    salient = [r for r in valid if gt_labels[r] > 0]
    for i in salient:
        for j in salient:
            if gt_labels[i] < gt_labels[j]:
                hinge = -(y_hat[j] - y_hat[i]) + cfg.margin
                if hinge > 0:
                    rank_loss += hinge
                    grad_y[j] -= 1.0
                    grad_y[i] += 1.0
    loss += cfg.alpha * rank_loss
    # d(y_hat)/d(logit_k) = p_k * (k - y_hat)
    dlogits += cfg.alpha * grad_y[:, None] * p * (class_idx[None, :] - y_hat[:, None])

    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ model.w2.T
    dhidden[hidden <= 0] = 0.0
    dw1 = inputs.T @ dhidden
    db1 = dhidden.sum(axis=0)
    return loss, ScorerModel(dw1, db1, dw2, db2)


@dataclass
class TrainResult:
    model: ScorerModel
    epoch_losses: list[float] = field(default_factory=list)


def train(dataset, cfg: TrainConfig, model: ScorerModel | None = None) -> TrainResult:
    """SGD with momentum and weight decay over shuffled windows.

    dataset: sequence of (inputs W x d_in, gt_labels, dummy_mask) samples.
    Deterministic: same seed, same data -> identical model.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("no training windows")
    if model is None:
        d_in = dataset[0][0].shape[1]
        n_classes = len(dataset[0][1]) + 1
        model = init_model(d_in=d_in, n_classes=n_classes, seed=cfg.seed)
    else:
        model = model.copy()
    velocity = [np.zeros_like(p) for p in model.params()]
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(dataset))
        total = 0.0
        for idx in order:
            inputs, labels, dummy_mask = dataset[idx]
            loss, grads = loss_and_grad(model, inputs, labels, cfg, dummy_mask)
            total += loss
            for p, v, g in zip(model.params(), velocity, grads.params()):
                g = g + cfg.weight_decay * p
                v *= cfg.momentum
                v += g
                p -= lr * v
        losses.append(total / len(dataset))
    return TrainResult(model=model, epoch_losses=losses)


def save_model(model: ScorerModel, path) -> None:
    """Flat little-endian file: magic, int32 dims (d_in, h, C), float64 params."""
    d_in, h, c = model.dims
    blob = MODEL_MAGIC + struct.pack("<3i", d_in, h, c)
    for p in model.params():
        blob += p.astype("<f8").tobytes()
    write_atomic(path, blob)


def load_model(path) -> ScorerModel:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    data = path.read_bytes()
    if data[:4] != MODEL_MAGIC:
        raise TruncatedData(f"{path}: bad magic")
    if len(data) < 16:
        raise TruncatedData(f"{path}: expected a 16-byte header, got {len(data)} bytes")
    d_in, h, c = struct.unpack("<3i", data[4:16])
    shapes = [(d_in, h), (h,), (h, c), (c,)]
    need = 16 + sum(int(np.prod(s)) for s in shapes) * 8
    if len(data) != need:
        kind = TruncatedData if len(data) < need else UnsupportedFormat
        raise kind(f"{path}: expected {need} bytes, got {len(data)}")
    offset = 16
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        arrays.append(
            np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        )
        offset += count * 8
    return ScorerModel(*arrays)
