import hashlib
import math

import numpy as np
import pytest

from rankflow.domain import Ranking
from rankflow.errors import EmptyDataset, ShapeMismatch, TruncatedData, UnsupportedFormat
from rankflow.scorer import (
    ScorerModel,
    TrainConfig,
    init_model,
    load_model,
    loss_and_grad,
    make_scorer,
    mlp_forward,
    oracle_scorer,
    save_model,
    train,
    window_gt_labels,
)


class TestWindowGtLabels:
    def test_compacts_global_orders(self):
        gt = Ranking({10: 3, 11: 0, 12: 7, 13: 1, 14: 0, 15: 2, 16: 4, 17: 5, 18: 6})
        assert window_gt_labels(gt, (10, 11, 12)) == (1, 0, 2)

    def test_absent_ids_are_zero(self):
        gt = Ranking({1: 1})
        assert window_gt_labels(gt, (1, -1, -2)) == (1, 0, 0)


class TestOracleScorer:
    def test_peaks_at_labels(self):
        gt = Ranking({0: 2, 1: 1, 2: 0})
        logits = oracle_scorer(gt)((0, 1, 2), np.zeros((3, 18)))
        assert logits.shape == (3, 4)
        assert np.argmax(logits[0]) == 2
        assert np.argmax(logits[1]) == 1
        assert np.argmax(logits[2]) == 0


class TestInitAndForward:
    def test_deterministic(self):
        a = init_model(seed=3)
        b = init_model(seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a.params(), b.params()))

    def test_shapes(self):
        model = init_model(d_in=18, hidden=32, n_classes=6)
        out = mlp_forward(model, np.zeros((5, 18)))
        assert out.shape == (5, 6)

    def test_rejects_wrong_width(self):
        model = init_model()
        with pytest.raises(ShapeMismatch):
            mlp_forward(model, np.zeros((5, 7)))

    def test_make_scorer_matches_forward(self):
        model = init_model(seed=1)
        x = np.random.default_rng(0).normal(size=(5, 18))
        assert np.array_equal(make_scorer(model)((0, 1, 2, 3, 4), x), mlp_forward(model, x))


class TestLoss:
    def test_uniform_ce_value(self):
        # zero model -> uniform softmax over 6 classes -> CE = ln 6 per row
        model = ScorerModel(
            w1=np.zeros((18, 4)), b1=np.zeros(4), w2=np.zeros((4, 6)), b2=np.zeros(6)
        )
        x = np.random.default_rng(0).normal(size=(5, 18))
        loss, _ = loss_and_grad(model, x, [1, 2, 3, 0, 0], TrainConfig(alpha=0.0))
        assert loss == pytest.approx(math.log(6))
        assert loss == pytest.approx(1.7918, abs=1e-4)

    def test_dummy_rows_masked(self):
        model = init_model(seed=0)
        x = np.random.default_rng(1).normal(size=(5, 18))
        loss_a, grads_a = loss_and_grad(
            model, x, [1, 2, 0, 0, 0], TrainConfig(), dummy_mask=[False, False, False, True, True]
        )
        x2 = x.copy()
        x2[3:] = 99.0  # dummy inputs must not matter
        loss_b, grads_b = loss_and_grad(
            model, x2, [1, 2, 0, 0, 0], TrainConfig(), dummy_mask=[False, False, False, True, True]
        )
        assert loss_a == pytest.approx(loss_b)
        assert np.allclose(grads_a.w1, grads_b.w1)

    def test_rank_term_zero_when_ordered(self):
        # logits already strongly ordered: rank hinge contributes nothing extra
        model = init_model(seed=0)
        x = np.random.default_rng(2).normal(size=(5, 18))
        base, _ = loss_and_grad(model, x, [1, 2, 3, 0, 0], TrainConfig(alpha=0.0))
        with_rank, _ = loss_and_grad(
            model, x, [1, 2, 3, 0, 0], TrainConfig(alpha=1.0, margin=0.0)
        )
        assert with_rank >= base

    def test_rejects_labels_that_do_not_fit(self):
        model = init_model()
        x = np.zeros((5, 18))
        with pytest.raises(ShapeMismatch):
            loss_and_grad(model, x, [1, 2, 0], TrainConfig())
        with pytest.raises(ShapeMismatch):
            loss_and_grad(model, x, [1, 2, 0, 0, 0], TrainConfig(), dummy_mask=[False] * 4)
        with pytest.raises(ShapeMismatch):
            loss_and_grad(model, x, [6, 0, 0, 0, 0], TrainConfig())

    def _numeric_grad(self, model, x, labels, cfg, dummy_mask, eps=1e-6):
        grads = []
        for p in model.params():
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p[idx]
                p[idx] = old + eps
                lp, _ = loss_and_grad(model, x, labels, cfg, dummy_mask)
                p[idx] = old - eps
                lm, _ = loss_and_grad(model, x, labels, cfg, dummy_mask)
                p[idx] = old
                g[idx] = (lp - lm) / (2 * eps)
            grads.append(g)
        return grads

    def test_gradient_check_small(self):
        rng = np.random.default_rng(5)
        model = init_model(d_in=6, hidden=4, n_classes=6, seed=5)
        x = rng.normal(size=(5, 6))
        labels = [2, 1, 0, 3, 0]
        cfg = TrainConfig(alpha=0.7, margin=0.1)
        dummy = [False, False, False, False, True]
        _, analytic = loss_and_grad(model, x, labels, cfg, dummy)
        numeric = self._numeric_grad(model, x, labels, cfg, dummy)
        for a, n in zip(analytic.params(), numeric):
            assert np.allclose(a, n, rtol=1e-4, atol=1e-6)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("epochs", "x"), ("epochs", True), ("epochs", 2.0), ("lr_decay_every", 0),
         ("seed", -1), ("lr", float("nan")), ("lr", -1e-3), ("momentum", 1.0), ("weight_decay", "x"),
         ("weight_decay", float("inf")), ("lr_decay_factor", 0.0), ("lr_decay_factor", 1.5),
         ("alpha", -1.0), ("margin", "x"), ("margin", None)],
    )
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    def test_accepts_ints_for_reals(self):
        assert TrainConfig(lr=0, weight_decay=0, alpha=1, margin=2, lr_decay_factor=1).margin == 2


class TestTrain:
    def _dataset(self, n=20, seed=0):
        rng = np.random.default_rng(seed)
        data = []
        for _ in range(n):
            x = rng.normal(size=(5, 18))
            labels = list(rng.permutation([1, 2, 3, 0, 0]))
            data.append((x, [int(l) for l in labels], [False] * 5))
        return data

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            train([], TrainConfig())

    def test_deterministic(self):
        cfg = TrainConfig(epochs=3, seed=4)
        a = train(self._dataset(), cfg)
        b = train(self._dataset(), cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.model.params(), b.model.params()))
        assert a.epoch_losses == b.epoch_losses

    def test_loss_decreases_on_learnable_data(self):
        # labels depend linearly on inputs -> loss should drop
        rng = np.random.default_rng(9)
        data = []
        for _ in range(40):
            scores = rng.normal(size=5)
            order = np.argsort(-scores)
            labels = [0] * 5
            for rank, idx in enumerate(order[:3], start=1):
                labels[int(idx)] = rank
            x = np.tile(scores[:, None], (1, 18))
            data.append((x, labels, [False] * 5))
        result = train(data, TrainConfig(epochs=10, lr=0.01, seed=0))
        assert result.epoch_losses[-1] < result.epoch_losses[0]


class TestModelIo:
    def test_round_trip(self, tmp_path):
        model = init_model(seed=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dims == model.dims
        assert all(np.array_equal(a, b) for a, b in zip(loaded.params(), model.params()))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(TruncatedData):
            load_model(path)

    def test_non_positive_dimension(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"RFM1" + np.array([-1, 32, 6], "<i4").tobytes() + bytes(1584))
        with pytest.raises(UnsupportedFormat, match="m.bin: model dimensions must be >= 1"):
            load_model(path)
        path.write_bytes(b"RFM1" + np.array([18, 0, 6], "<i4").tobytes() + bytes(48))
        with pytest.raises(UnsupportedFormat):
            load_model(path)

    def test_truncated(self, tmp_path):
        model = init_model(seed=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(TruncatedData):
            load_model(path)


PINNED_MODEL_SHA256 = "c5a9184f02d1a772098b1d752da3652f3324a195958f477fb2d1ee1d31fc309d"


# Frozen reference: the per-window loop form of the loss and the
# per-parameter SGD update that `train` used before windows were prepared
# once and stepped on flat buffers. `train` must reproduce it bit for bit.
def _reference_loss_and_grad(model, inputs, gt_labels, cfg, dummy_mask=None):
    from rankflow.rankcore import softmax

    inputs = np.asarray(inputs, dtype=float)
    w = inputs.shape[0]
    if dummy_mask is None:
        dummy_mask = [False] * w
    gt_labels = list(gt_labels)
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
    dlogits += cfg.alpha * grad_y[:, None] * p * (class_idx[None, :] - y_hat[:, None])
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ model.w2.T
    dhidden[hidden <= 0] = 0.0
    dw1 = inputs.T @ dhidden
    db1 = dhidden.sum(axis=0)
    return loss, ScorerModel(dw1, db1, dw2, db2)


def _reference_train(dataset, cfg):
    model = init_model(d_in=dataset[0][0].shape[1], n_classes=len(dataset[0][1]) + 1, seed=cfg.seed)
    velocity = [np.zeros_like(p) for p in model.params()]
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(dataset))
        total = 0.0
        for idx in order:
            inputs, labels, dummy_mask = dataset[idx]
            loss, grads = _reference_loss_and_grad(model, inputs, labels, cfg, dummy_mask)
            total += loss
            for p, v, g in zip(model.params(), velocity, grads.params()):
                g = g + cfg.weight_decay * p
                v *= cfg.momentum
                v += g
                p -= lr * v
        losses.append(total / len(dataset))
    return model, losses


def _mixed_windows(w, n, seed):
    """Windows with random dummy rows and salient counts, plus an all-dummy
    window (no valid row) and one with a single salient member (no pair)."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        x = rng.normal(size=(w, 18))
        dummy = rng.permutation(np.arange(w) >= w - int(rng.integers(0, w)))
        real = np.flatnonzero(~dummy)
        labels = np.zeros(w, dtype=int)
        chosen = rng.permutation(real)[: int(rng.integers(0, len(real) + 1))]
        labels[chosen] = np.arange(1, len(chosen) + 1)
        data.append((x, labels.tolist(), dummy.tolist()))
    data.append((rng.normal(size=(w, 18)), [0] * w, [True] * w))
    data.append((rng.normal(size=(w, 18)), [1] + [0] * (w - 1), [False] * w))
    return data


class TestSameTrajectory:
    @pytest.mark.parametrize("w", [3, 5, 7])
    @pytest.mark.parametrize(
        "alpha, margin", [(1.0, 0.0), (0.0, 0.5), (0.6, 2.0)], ids=["margin0", "alpha0", "both"]
    )
    def test_train_matches_reference(self, w, alpha, margin):
        data = _mixed_windows(w, 40, seed=w)
        cfg = TrainConfig(epochs=4, lr=0.02, lr_decay_every=2, alpha=alpha, margin=margin, seed=w)
        model, losses = _reference_train(data, cfg)
        result = train(data, cfg)
        assert result.epoch_losses == losses
        for got, want in zip(result.model.params(), model.params()):
            assert got.tobytes() == want.tobytes()

    def test_loss_and_grad_matches_reference(self):
        rng = np.random.default_rng(11)
        for k in range(200):
            # Up to 12 rows: np.sum adds 8 or more terms pairwise, not in row order.
            w = int(rng.integers(2, 13))
            cfg = TrainConfig(alpha=[0.0, 0.3, 1.0][k % 3], margin=[0.0, 0.5, 2.0][k // 3 % 3])
            model = init_model(n_classes=w + 1, seed=k)
            for x, labels, dummy in _mixed_windows(w, 3, seed=k):
                if k % 2:  # dummy rows may carry any label; both forms ignore it
                    labels = [int(rng.integers(0, w + 1)) if d else l for l, d in zip(labels, dummy)]
                want_loss, want = _reference_loss_and_grad(model, x, labels, cfg, dummy)
                got_loss, got = loss_and_grad(model, x, labels, cfg, dummy)
                assert got_loss == want_loss
                for a, b in zip(got.params(), want.params()):
                    assert a.tobytes() == b.tobytes()

    def test_saved_model_bytes_pinned(self, tmp_path):
        # SHA-256 of the model file written by the loop-form trainer.
        path = tmp_path / "m.bin"
        save_model(train(_mixed_windows(5, 30, seed=1), TrainConfig(epochs=3, margin=0.2, seed=5)).model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL_SHA256
