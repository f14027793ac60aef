"""Per-window scoring: a GT-backed oracle for pipeline verification and a
small trainable MLP classifier optimized with cross-entropy plus a pairwise
margin-ranking term over expected class indices.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import Ranking, check_fields
from .errors import RankflowError
from .ingest import read_bytes, write_atomic
from .rankcore import softmax

MODEL_MAGIC = b"RFM1"
ORACLE_PEAK = 10.0
BATCH = 16  # windows per SGD step


class ScorerModel:
    """The MLP's parameters, d_in -> h (ReLU) -> C logits, in one float64
    buffer flat laid out as the model file: w1 (d_in x h), b1 (h), w2 (h x C),
    b2 (C).  w1, b1, w2 and b2 are views of flat.  ScorerModel(d_in, h, c)
    starts at zeros; ScorerModel(d_in, h, c, flat) wraps flat."""

    def __init__(self, d_in: int, h: int, c: int, flat=None):
        self.dims = d_in, h, c
        a, b, e = d_in * h, d_in * h + h, d_in * h + h + h * c
        self.flat = np.zeros(e + c) if flat is None else flat
        self.w1 = self.flat[:a].reshape(d_in, h)
        self.b1 = self.flat[a:b]
        self.w2 = self.flat[b:e].reshape(h, c)
        self.b2 = self.flat[e:]

    def __reduce__(self):
        # Rebuilt around one buffer; a default pickle would give four detached copies.
        return ScorerModel, (*self.dims, self.flat)

    def params(self):
        return [self.w1, self.b1, self.w2, self.b2]


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
    model = ScorerModel(d_in, hidden, n_classes)
    for w in (model.w1, model.w2):
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


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


def _forward(model: ScorerModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ReLU hidden layer (..., h) and the logits (..., C) of x (..., d_in)."""
    hidden = x @ model.w1
    hidden += model.b1
    np.maximum(0.0, hidden, out=hidden)
    logits = hidden @ model.w2
    logits += model.b2
    return hidden, logits


def mlp_forward(model: ScorerModel, inputs: np.ndarray) -> np.ndarray:
    """Logits (..., C) for inputs (..., d_in): one window or a stack of them."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim < 2 or inputs.shape[-1] != model.dims[0]:
        raise RankflowError(f"expected inputs with {model.dims[0]} columns, got {inputs.shape}")
    return _forward(model, inputs)[1]


def make_scorer(model: ScorerModel):
    def score(member_ids, inputs):
        return mlp_forward(model, inputs)

    return score


class Targets(NamedTuple):
    """The label-only arrays of one window or a (..., W) stack of them, with
    C = W + 1 classes (0 non-salient, then within-window ranks 1..W)."""

    hot: np.ndarray  # (..., W, C) bool: one-hot CE target, all False on dummy rows
    keep: np.ndarray  # (..., W, 1) float: 1.0 on real rows, 0.0 on dummy rows
    nv: np.ndarray  # (...,) float: real rows per window, 1 when there are none
    pairs: np.ndarray  # (..., W, W) bool: ordered salient pairs, label[i] < label[j]

    def take(self, idx) -> "Targets":
        """The windows idx (an index array or a slice) of a (N, W) stack."""
        return Targets(*(a[idx] for a in self))


def prepare_targets(gt_labels, dummy_mask=None) -> Targets:
    """Check one window's labels and dummy flags, or a (..., W) stack of
    them, and build their Targets; dummy_mask None means every row is real."""
    try:
        labels = np.asarray(gt_labels, dtype=int)
        valid = np.ones(labels.shape, bool) if dummy_mask is None else ~np.asarray(dummy_mask, dtype=bool)
    except ValueError:  # ragged rows
        raise RankflowError("labels and dummy flags must each be one (..., W) array") from None
    if labels.ndim < 1 or labels.shape != valid.shape:
        raise RankflowError(f"{labels.shape} labels and {valid.shape} dummy flags")
    c = labels.shape[-1] + 1
    if np.any((labels < 0) | (labels >= c)):
        raise RankflowError(f"labels outside 0..{c - 1}")
    hot = (labels[..., None] == np.arange(c)) & valid[..., None]
    nv = np.maximum(valid.sum(axis=-1), 1).astype(float)
    salient = np.where(valid, labels, 0)
    pairs = (salient[..., :, None] > 0) & (salient[..., :, None] < salient[..., None, :])
    return Targets(hot, valid[..., None].astype(float), nv, pairs)


def _window_sums(terms: np.ndarray) -> np.ndarray:
    """Per-window sums of (..., W, K) terms, added one at a time in row-major
    order as the per-row, per-pair loop form adds them (np.sum adds 8 or more
    terms pairwise), so one window's loss matches that form bit for bit.
    Sums in place: terms is overwritten."""
    flat = terms.reshape(terms.shape[:-2] + (-1,))
    return np.add.accumulate(flat, axis=-1, out=flat)[..., -1].copy()


def batch_grads(model: ScorerModel, inputs: np.ndarray, targets: Targets, cfg: TrainConfig, grad: ScorerModel):
    """Analytic parameter grads of the loss (CE + alpha * margin ranking) of
    one window (W x d_in inputs) or of the mean over a batch of them ((B, W,
    d_in) inputs), against the windows' prepare_targets, written through the
    views of grad, a ScorerModel of model's dims, into its one buffer.

    Returns the windows' class probabilities p (..., W, C), hinge terms and
    positive-hinge mask hit (..., W, W), from which window_losses scores
    them.  Dummy rows are masked out of both terms.  The ranking term
    compares expected class indices of salient pairs: the lower-ranked (less
    salient) member's expectation should exceed the higher-ranked one's by
    the margin.
    """
    inputs = np.asarray(inputs, dtype=float)
    d_in, _, c = model.dims
    hot, keep, nv, pairs = targets
    rows = inputs.shape[:-1]
    if hot.shape != rows + (c,):
        raise RankflowError(f"targets of shape {hot.shape} for {rows} input rows and {c} classes")
    x = inputs.reshape(-1, d_in)
    hidden, logits = _forward(model, x)
    p2 = softmax(logits)
    p = p2.reshape(hot.shape)
    dlogits = np.multiply(p, keep)
    dlogits -= hot
    dlogits /= nv[..., None, None]

    class_idx = np.arange(c, dtype=float)
    y_hat = (p2 @ class_idx).reshape(rows)
    hinge = np.subtract(y_hat[..., :, None], y_hat[..., None, :])
    hinge += cfg.margin
    hit = np.greater(hinge, 0)
    hit &= pairs
    # Each positive hinge (i, j) pushes y_hat[i] up and y_hat[j] down, so
    # grad_y[i] = hits (i, .) - hits (., i), an exact integer;
    # d(y_hat)/d(logit_k) = p_k * (k - y_hat).
    flags = hit.view(np.int8)
    grad_y = np.add.reduce(flags - flags.swapaxes(-1, -2), axis=-1)
    rank = np.multiply(cfg.alpha, grad_y[..., None]) * p
    rank *= np.subtract(class_idx, y_hat[..., None])
    dlogits += rank

    dlogits = dlogits.reshape(-1, c)
    dlogits /= nv.size
    dhidden = np.where(hidden > 0, dlogits @ model.w2.T, 0.0)
    np.matmul(x.T, dhidden, out=grad.w1)
    np.add.reduce(dhidden, axis=0, out=grad.b1)
    np.matmul(hidden.T, dlogits, out=grad.w2)
    np.add.reduce(dlogits, axis=0, out=grad.b2)
    return p, hinge, hit


def window_losses(p: np.ndarray, hinge: np.ndarray, hit: np.ndarray, targets: Targets, cfg: TrainConfig) -> np.ndarray:
    """Each window's loss, CE / (real rows) + alpha * margin ranking, from
    batch_grads' p, hinge and hit for the windows of targets."""
    ranking = _window_sums(np.where(hit, hinge, 0.0))
    log_p = np.maximum(p, 1e-300)
    np.log(log_p, out=log_p)
    np.copyto(log_p, 0.0, where=~targets.hot)
    loss = -_window_sums(log_p)
    loss /= targets.nv
    loss += cfg.alpha * ranking
    return loss


def loss_and_grad(model: ScorerModel, inputs: np.ndarray, targets: Targets, cfg: TrainConfig):
    """Loss (CE + alpha * margin ranking) and analytic parameter grads of one
    window (W x d_in inputs) or the mean over a batch of them ((B, W, d_in)
    inputs), against the windows' prepare_targets: batch_grads, then
    window_losses of its outputs."""
    grads = ScorerModel(*model.dims)
    loss = window_losses(*batch_grads(model, inputs, targets, cfg, grads), targets, cfg)
    return float(loss.sum()) / loss.size, grads


@dataclass
class TrainResult:
    model: ScorerModel
    epoch_losses: list[float] = field(default_factory=list)


def train(dataset, cfg: TrainConfig) -> TrainResult:
    """Minibatch SGD with momentum and weight decay over shuffled windows.

    dataset: sequence of (inputs W x d_in, gt_labels, dummy_mask) samples.
    Each epoch steps once per BATCH windows of a fresh permutation (the last
    batch may be smaller) on the batch's mean grads. The windows' inputs are
    stacked and their Targets prepared once, as (N, W) stacks; each batch
    takes its inputs' rows by index, and the Targets are permuted once per
    epoch and sliced per batch. A step computes only grads; each epoch's
    losses are scored once, in one window_losses call over the p, hinge and
    hit its steps kept, and summed per batch in batch order. The step
    updates the model's one flat buffer in place; the grads are a second
    ScorerModel and the velocity a buffer of the same layout. Deterministic:
    same seed, same data -> identical model.
    """
    dataset = list(dataset)
    if not dataset:
        raise RankflowError("no training windows")
    w, d_in = shape = np.shape(dataset[0][0])
    if any(np.shape(x) != shape for x, _, _ in dataset):
        raise RankflowError(f"every window's inputs must have shape {shape}")
    model = init_model(d_in=d_in, n_classes=w + 1, seed=cfg.seed)
    masks = [[False] * w if mask is None else mask for _, _, mask in dataset]
    targets = prepare_targets([gt for _, gt, _ in dataset], masks)
    inputs = np.array([x for x, _, _ in dataset], dtype=float)
    theta = model.flat
    grad = ScorerModel(*model.dims)
    velocity = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    n = len(dataset)
    p = np.empty(targets.hot.shape)
    hinge = np.empty(targets.pairs.shape)
    hit = np.empty(targets.pairs.shape, dtype=bool)
    batches = [slice(start, start + BATCH) for start in range(0, n, BATCH)]
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(n)
        shuffled = targets.take(order)
        for batch in batches:
            p[batch], hinge[batch], hit[batch] = batch_grads(
                model, inputs[order[batch]], shuffled.take(batch), cfg, grad
            )
            # g = grad + decay * theta; v = momentum * v + g; theta -= lr * v
            grad.flat += np.multiply(theta, cfg.weight_decay, out=scratch)
            velocity *= cfg.momentum
            velocity += grad.flat
            theta -= np.multiply(velocity, lr, out=scratch)
        loss = window_losses(p, hinge, hit, shuffled, cfg)
        total = 0.0
        for batch in batches:
            # The batch's mean loss times its size, as a loop of one
            # loss_and_grad call per batch adds it: same epoch loss bits.
            part = loss[batch]
            total += float(part.sum()) / part.size * part.size
        losses.append(total / n)
    return TrainResult(model=model, epoch_losses=losses)


def save_model(model: ScorerModel, path) -> None:
    """Flat little-endian file: magic, int32 dims (d_in, h, C), float64 params."""
    write_atomic(path, MODEL_MAGIC + struct.pack("<3i", *model.dims) + model.flat.astype("<f8").tobytes())


def load_model(path) -> ScorerModel:
    data = read_bytes(path)
    if data[:4] != MODEL_MAGIC:
        raise RankflowError(f"{path}: bad magic")
    if len(data) < 16:
        raise RankflowError(f"{path}: expected a 16-byte header, got {len(data)} bytes")
    d_in, h, c = struct.unpack("<3i", data[4:16])
    if min(d_in, h, c) < 1:
        raise RankflowError(f"{path}: model dimensions must be >= 1, got {(d_in, h, c)}")
    need = 16 + (d_in * h + h + h * c + c) * 8
    if len(data) != need:
        raise RankflowError(f"{path}: expected {need} bytes, got {len(data)}")
    model = ScorerModel(d_in, h, c, np.frombuffer(data, dtype="<f8", offset=16).astype(float))
    if not np.isfinite(model.flat).all():
        raise RankflowError(f"{path}: model parameters must be finite")
    return model
