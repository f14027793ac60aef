"""Per-window scoring: a GT-backed oracle for pipeline verification and a
small trainable MLP classifier optimized with cross-entropy plus a pairwise
margin-ranking term over expected class indices.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import Ranking, check_fields
from .errors import EmptyDataset, ShapeMismatch, TruncatedData, UnsupportedFormat
from .ingest import read_bytes, write_atomic
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


def _flat_model(d_in: int, h: int, c: int) -> tuple[np.ndarray, ScorerModel]:
    """A zeroed flat float64 buffer and a ScorerModel whose arrays are views
    of it, laid out in params() order (the order of the model file)."""
    shapes = [(d_in, h), (h,), (h, c), (c,)]
    sizes = [math.prod(s) for s in shapes]
    flat = np.zeros(sum(sizes))
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return flat, ScorerModel(*(part.reshape(s) for part, s in zip(parts, shapes)))


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
        integers = (("epochs", 1), ("lr_decay_every", 1), ("seed", 0))
        reals = (
            ("lr", lambda x: x >= 0, ">= 0"),
            ("momentum", lambda x: 0 <= x < 1, "in [0, 1)"),
            ("weight_decay", lambda x: x >= 0, ">= 0"),
            ("lr_decay_factor", lambda x: 0 < x <= 1, "in (0, 1]"),
            ("alpha", lambda x: x >= 0, ">= 0"),
            ("margin", lambda x: x >= 0, ">= 0"),
        )
        check_fields(self, integers, reals)


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


class _Window(NamedTuple):
    """One training window with everything that depends only on its labels."""

    inputs: np.ndarray  # W x d_in
    hot: np.ndarray  # W x C bool one-hot CE targets, all False on dummy rows
    keep: np.ndarray  # W x 1, 1.0 on valid rows and 0.0 on dummies
    nv: int  # valid rows, or 1 when there are none (all terms are then 0)
    pairs: np.ndarray  # W x W bool: both valid and salient, label[i] < label[j]


def _prepare(inputs, gt_labels, dummy_mask, n_classes: int) -> _Window:
    inputs = np.asarray(inputs, dtype=float)
    w = inputs.shape[0]
    labels = np.asarray(list(gt_labels), dtype=int)
    valid = np.ones(w, bool) if dummy_mask is None else ~np.asarray(dummy_mask, dtype=bool)
    if labels.shape != (w,) or valid.shape != (w,):
        raise ShapeMismatch(f"{labels.size} labels and {valid.size} dummy flags for {w} rows")
    if np.any((labels < 0) | (labels >= n_classes)):
        raise ShapeMismatch(f"labels {labels.tolist()} outside 0..{n_classes - 1}")
    hot = (labels[:, None] == np.arange(n_classes)) & valid[:, None]
    salient = valid & (labels > 0)
    pairs = salient[:, None] & salient[None, :] & (labels[:, None] < labels[None, :])
    return _Window(inputs, hot, valid[:, None].astype(float), max(int(valid.sum()), 1), pairs)


def _step(model: ScorerModel, grads: ScorerModel, win: _Window, alpha: float, margin: float) -> float:
    """Loss of one prepared window; its parameter grads are written into grads.

    The CE terms and the positive hinges are added one at a time, in row-major
    order, as Python floats: np.sum adds 8 or more terms pairwise, in another
    order. Loss and grads thus equal the per-row, per-pair loop form's bit for
    bit (tests/test_scorer.py keeps that form as the reference).
    """
    hidden = np.maximum(0.0, win.inputs @ model.w1 + model.b1)
    p = softmax(hidden @ model.w2 + model.b2)
    loss = 0.0
    for log_p in np.log(np.maximum(p[win.hot], 1e-300)).tolist():
        loss -= log_p
    loss /= win.nv
    dlogits = (p * win.keep - win.hot) / win.nv

    class_idx = np.arange(p.shape[1])
    y_hat = p @ class_idx
    hinge = -(y_hat[None, :] - y_hat[:, None]) + margin
    hit = win.pairs & (hinge > 0)
    positive = hinge[hit].tolist()
    if positive:
        rank_loss = 0.0
        for term in positive:
            rank_loss += term
        loss += alpha * rank_loss
        # Each positive hinge (i, j) pushes y_hat[i] up and y_hat[j] down.
        grad_y = hit.sum(axis=1) - hit.sum(axis=0)
        # d(y_hat)/d(logit_k) = p_k * (k - y_hat)
        dlogits += alpha * grad_y[:, None] * p * (class_idx[None, :] - y_hat[:, None])

    np.matmul(hidden.T, dlogits, out=grads.w2)
    dlogits.sum(axis=0, out=grads.b2)
    dhidden = dlogits @ model.w2.T
    dhidden[hidden <= 0] = 0.0
    np.matmul(win.inputs.T, dhidden, out=grads.w1)
    dhidden.sum(axis=0, out=grads.b1)
    return loss


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
    _, grads = _flat_model(*model.dims)
    win = _prepare(inputs, gt_labels, dummy_mask, model.dims[2])
    return _step(model, grads, win, cfg.alpha, cfg.margin), grads


@dataclass
class TrainResult:
    model: ScorerModel
    epoch_losses: list[float] = field(default_factory=list)


def train(dataset, cfg: TrainConfig) -> TrainResult:
    """SGD with momentum and weight decay over shuffled windows.

    dataset: sequence of (inputs W x d_in, gt_labels, dummy_mask) samples.
    Each window is prepared once; parameters, velocity and grads are each one
    flat buffer. Deterministic: same seed, same data -> identical model.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("no training windows")
    model = init_model(d_in=dataset[0][0].shape[1], n_classes=len(dataset[0][1]) + 1, seed=cfg.seed)
    theta, params = _flat_model(*model.dims)
    for dst, src in zip(params.params(), model.params()):
        dst[...] = src
    grad, grads = _flat_model(*model.dims)
    velocity = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    windows = [_prepare(x, labels, mask, model.dims[2]) for x, labels, mask in dataset]
    alpha, margin, decay, momentum = cfg.alpha, cfg.margin, cfg.weight_decay, cfg.momentum
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(windows))
        total = 0.0
        for idx in order.tolist():
            total += _step(params, grads, windows[idx], alpha, margin)
            # g = grad + decay * theta; v = momentum * v + g; theta -= lr * v
            grad += np.multiply(theta, decay, out=scratch)
            velocity *= momentum
            velocity += grad
            theta -= np.multiply(velocity, lr, out=scratch)
        losses.append(total / len(windows))
    return TrainResult(model=params, epoch_losses=losses)


def save_model(model: ScorerModel, path) -> None:
    """Flat little-endian file: magic, int32 dims (d_in, h, C), float64 params."""
    d_in, h, c = model.dims
    blob = MODEL_MAGIC + struct.pack("<3i", d_in, h, c)
    for p in model.params():
        blob += p.astype("<f8").tobytes()
    write_atomic(path, blob)


def load_model(path) -> ScorerModel:
    data = read_bytes(path)
    if data[:4] != MODEL_MAGIC:
        raise TruncatedData(f"{path}: bad magic")
    if len(data) < 16:
        raise TruncatedData(f"{path}: expected a 16-byte header, got {len(data)} bytes")
    d_in, h, c = struct.unpack("<3i", data[4:16])
    if min(d_in, h, c) < 1:
        raise UnsupportedFormat(f"{path}: model dimensions must be >= 1, got {(d_in, h, c)}")
    need = 16 + (d_in * h + h + h * c + c) * 8
    if len(data) != need:
        kind = TruncatedData if len(data) < need else UnsupportedFormat
        raise kind(f"{path}: expected {need} bytes, got {len(data)}")
    flat, model = _flat_model(d_in, h, c)
    flat[:] = np.frombuffer(data, dtype="<f8", offset=16)
    return model
