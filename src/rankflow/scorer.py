"""Per-window scoring: a GT-backed oracle for pipeline verification and a
small trainable MLP classifier optimized with cross-entropy plus a pairwise
margin-ranking term over expected class indices.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .domain import Ranking, check_fields
from .errors import EmptyDataset, ShapeMismatch, TruncatedData, UnsupportedFormat
from .ingest import read_bytes, write_atomic
from .rankcore import softmax

MODEL_MAGIC = b"RFM1"
ORACLE_PEAK = 10.0
BATCH = 16  # windows per SGD step


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
    lr: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay_every: int = 20
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


def _targets(gt_labels, dummy_mask, rows: tuple, n_classes: int):
    """Labels and valid-row flags as arrays of the inputs' row shape (W,) or
    (B, W); dummy_mask None means every row is real."""
    try:
        labels = np.asarray(gt_labels, dtype=int)
        valid = np.ones(rows, bool) if dummy_mask is None else ~np.asarray(dummy_mask, dtype=bool)
    except ValueError:  # ragged rows
        raise ShapeMismatch(f"labels and dummy flags must each have shape {rows}") from None
    if labels.shape != rows or valid.shape != rows:
        raise ShapeMismatch(f"{labels.shape} labels and {valid.shape} dummy flags for {rows} rows")
    if np.any((labels < 0) | (labels >= n_classes)):
        raise ShapeMismatch(f"labels outside 0..{n_classes - 1}")
    return labels, valid


def _window_sums(terms: np.ndarray) -> np.ndarray:
    """Per-window sums of (..., W, K) terms, added one at a time in row-major
    order as the per-row, per-pair loop form adds them (np.sum adds 8 or more
    terms pairwise), so one window's loss matches that form bit for bit."""
    return np.cumsum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)[..., -1]


def loss_and_grad(
    model: ScorerModel,
    inputs: np.ndarray,
    gt_labels,
    cfg: TrainConfig,
    dummy_mask=None,
):
    """Loss (CE + alpha * margin ranking) and analytic parameter grads of one
    window (W x d_in inputs, W labels and dummy flags) or the mean over a
    batch of them ((B, W, d_in) inputs, (B, W) labels and flags).

    Dummy rows are masked out of both terms.  The ranking term compares
    expected class indices of salient pairs: the lower-ranked (less salient)
    member's expectation should exceed the higher-ranked one's by the margin.
    """
    inputs = np.asarray(inputs, dtype=float)
    d_in, _, c = model.dims
    labels, valid = _targets(gt_labels, dummy_mask, inputs.shape[:-1], c)
    x = inputs.reshape(-1, d_in)
    hidden = np.maximum(0.0, x @ model.w1 + model.b1)
    p2 = softmax(hidden @ model.w2 + model.b2)
    p = p2.reshape(labels.shape + (c,))
    class_idx = np.arange(c)
    hot = (labels[..., None] == class_idx) & valid[..., None]
    nv = np.maximum(valid.sum(axis=-1), 1)
    log_p = np.where(hot, np.log(np.maximum(p, 1e-300)), 0.0)
    loss = -_window_sums(log_p) / nv
    dlogits = (p * valid[..., None] - hot) / nv[..., None, None]

    y_hat = (p2 @ class_idx).reshape(labels.shape)
    hinge = y_hat[..., :, None] - y_hat[..., None, :] + cfg.margin
    # Ordered salient pairs (i, j): label[i] < label[j], both real and salient.
    salient = np.where(valid, labels, 0)
    hit = (salient[..., :, None] > 0) & (salient[..., :, None] < salient[..., None, :]) & (hinge > 0)
    loss += cfg.alpha * _window_sums(np.where(hit, hinge, 0.0))
    # Each positive hinge (i, j) pushes y_hat[i] up and y_hat[j] down;
    # d(y_hat)/d(logit_k) = p_k * (k - y_hat).
    grad_y = hit.sum(axis=-1) - hit.sum(axis=-2)
    dlogits += cfg.alpha * grad_y[..., None] * p * (class_idx - y_hat[..., None])

    batch = loss.size
    dlogits = dlogits.reshape(-1, c) / batch
    dhidden = np.where(hidden > 0, dlogits @ model.w2.T, 0.0)
    grads = ScorerModel(x.T @ dhidden, dhidden.sum(axis=0), hidden.T @ dlogits, dlogits.sum(axis=0))
    return float(loss.sum()) / batch, grads


@dataclass
class TrainResult:
    model: ScorerModel
    epoch_losses: list[float] = field(default_factory=list)


def train(dataset, cfg: TrainConfig) -> TrainResult:
    """Minibatch SGD with momentum and weight decay over shuffled windows.

    dataset: sequence of (inputs W x d_in, gt_labels, dummy_mask) samples.
    Each epoch steps once per BATCH windows of a fresh permutation (the last
    batch may be smaller) on the batch's mean loss and grads. Labels and
    dummy flags are held as (N, W) arrays; each batch's inputs are gathered
    from the samples, never all stacked at once. Parameters and velocity are
    each one flat buffer. Deterministic: same seed, same data -> identical
    model.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDataset("no training windows")
    w, d_in = shape = np.shape(dataset[0][0])
    if any(np.shape(x) != shape for x, _, _ in dataset):
        raise ShapeMismatch(f"every window's inputs must have shape {shape}")
    model = init_model(d_in=d_in, n_classes=w + 1, seed=cfg.seed)
    masks = [[False] * w if mask is None else mask for _, _, mask in dataset]
    labels, valid = _targets([gt for _, gt, _ in dataset], masks, (len(dataset), w), w + 1)
    dummy = ~valid
    theta, params = _flat_model(*model.dims)
    for dst, src in zip(params.params(), model.params()):
        dst[...] = src
    velocity = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(dataset))
        total = 0.0
        for start in range(0, len(order), BATCH):
            idx = order[start : start + BATCH]
            x = np.array([dataset[i][0] for i in idx.tolist()], dtype=float)
            loss, grads = loss_and_grad(params, x, labels[idx], cfg, dummy[idx])
            total += loss * len(idx)
            # g = grad + decay * theta; v = momentum * v + g; theta -= lr * v
            grad = np.concatenate([g.ravel() for g in grads.params()])
            grad += np.multiply(theta, cfg.weight_decay, out=scratch)
            velocity *= cfg.momentum
            velocity += grad
            theta -= np.multiply(velocity, lr, out=scratch)
        losses.append(total / len(dataset))
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
