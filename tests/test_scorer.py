import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BYTE_EDITS, edit_bytes
from rankflow import scorer
from rankflow.domain import Ranking
from rankflow.errors import RankflowError
from rankflow.gtgen import rasrgt_rank
from rankflow.metrics import srcc
from rankflow.preprocess import filter_proposals, scene_features
from rankflow.rankcore import rank_scene, window_batch
from rankflow.scorer import (
    BATCH,
    ScorerModel,
    TrainConfig,
    batch_grads,
    init_model,
    load_model,
    loss_and_grad,
    make_scorer,
    mlp_forward,
    oracle_scorer,
    prepare_targets,
    save_model,
    train,
    window_gt_labels,
    window_losses,
)
from rankflow.synth import SynthConfig, generate_scene


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
        with pytest.raises(RankflowError, match=r"expected inputs with 18 columns, got \(5, 7\)"):
            mlp_forward(model, np.zeros((5, 7)))

    def test_make_scorer_matches_forward(self):
        model = init_model(seed=1)
        x = np.random.default_rng(0).normal(size=(5, 18))
        assert np.array_equal(make_scorer(model)((0, 1, 2, 3, 4), x), mlp_forward(model, x))


class TestLoss:
    def test_uniform_ce_value(self):
        # zero model -> uniform softmax over 6 classes -> CE = ln 6 per row
        model = ScorerModel(18, 4, 6)
        x = np.random.default_rng(0).normal(size=(5, 18))
        loss, _ = loss_and_grad(model, x, prepare_targets([1, 2, 3, 0, 0]), TrainConfig(alpha=0.0))
        assert loss == pytest.approx(math.log(6))
        assert loss == pytest.approx(1.7918, abs=1e-4)

    def test_dummy_rows_masked(self):
        model = init_model(seed=0)
        x = np.random.default_rng(1).normal(size=(5, 18))
        loss_a, grads_a = loss_and_grad(
            model, x, prepare_targets([1, 2, 0, 0, 0], dummy_mask=[False, False, False, True, True]), TrainConfig()
        )
        x2 = x.copy()
        x2[3:] = 99.0  # dummy inputs must not matter
        loss_b, grads_b = loss_and_grad(
            model, x2, prepare_targets([1, 2, 0, 0, 0], dummy_mask=[False, False, False, True, True]), TrainConfig()
        )
        assert loss_a == pytest.approx(loss_b)
        assert np.allclose(grads_a.w1, grads_b.w1)

    def test_rank_term_zero_when_ordered(self):
        # logits already strongly ordered: rank hinge contributes nothing extra
        model = init_model(seed=0)
        x = np.random.default_rng(2).normal(size=(5, 18))
        base, _ = loss_and_grad(model, x, prepare_targets([1, 2, 3, 0, 0]), TrainConfig(alpha=0.0))
        with_rank, _ = loss_and_grad(
            model, x, prepare_targets([1, 2, 3, 0, 0]), TrainConfig(alpha=1.0, margin=0.0)
        )
        assert with_rank >= base

    def test_rejects_labels_that_do_not_fit(self):
        model = init_model()
        x = np.zeros((5, 18))
        with pytest.raises(RankflowError, match=r"targets of shape \(3, 4\)"):
            loss_and_grad(model, x, prepare_targets([1, 2, 0]), TrainConfig())
        with pytest.raises(RankflowError, match=r"\(5,\) labels and \(4,\) dummy flags"):
            loss_and_grad(model, x, prepare_targets([1, 2, 0, 0, 0], dummy_mask=[False] * 4), TrainConfig())
        with pytest.raises(RankflowError, match=r"labels outside 0\.\.5"):
            loss_and_grad(model, x, prepare_targets([6, 0, 0, 0, 0]), TrainConfig())
        batch = np.zeros((2, 5, 18))
        with pytest.raises(RankflowError, match=r"labels and dummy flags must each be one \(\.\.\., W\) array"):
            loss_and_grad(model, batch, prepare_targets([[1, 0, 0, 0, 0], [1, 0, 0]]), TrainConfig())
        with pytest.raises(RankflowError, match=r"\(2, 5\) labels and \(5,\) dummy flags"):
            loss_and_grad(model, batch, prepare_targets([[0] * 5] * 2, dummy_mask=[False] * 5), TrainConfig())
        with pytest.raises(RankflowError, match=r"labels outside 0\.\.5"):
            loss_and_grad(model, batch, prepare_targets([[0] * 5, [0, 0, -1, 0, 0]]), TrainConfig())

    def test_rejects_targets_of_other_windows(self):
        model = init_model()
        for targets in (prepare_targets([1, 2, 0, 0, 0]), prepare_targets([[1, 2, 0, 0, 0]] * 3)):
            with pytest.raises(RankflowError, match=r"targets of shape .* for \(2, 5\) input rows"):
                loss_and_grad(model, np.zeros((2, 5, 18)), targets, TrainConfig())

    def _numeric_grad(self, model, x, labels, cfg, dummy_mask, eps=1e-6):
        grads = []
        for p in model.params():
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p[idx]
                p[idx] = old + eps
                lp, _ = loss_and_grad(model, x, prepare_targets(labels, dummy_mask), cfg)
                p[idx] = old - eps
                lm, _ = loss_and_grad(model, x, prepare_targets(labels, dummy_mask), cfg)
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
        _, analytic = loss_and_grad(model, x, prepare_targets(labels, dummy), cfg)
        numeric = self._numeric_grad(model, x, labels, cfg, dummy)
        for a, n in zip(analytic.params(), numeric):
            assert np.allclose(a, n, rtol=1e-4, atol=1e-6)


class TestPrepareTargets:
    def test_arrays(self):
        t = prepare_targets([[2, 0, 1, 3], [1, 0, 0, 2]], [[False, False, False, True], [True] * 4])
        assert t.hot.shape == (2, 4, 5) and t.hot.dtype == bool
        assert np.argwhere(t.hot[0]).tolist() == [[0, 2], [1, 0], [2, 1]]  # the dummy row's label 3 is dropped
        assert not t.hot[1].any()
        assert t.keep.tolist() == [[[1.0], [1.0], [1.0], [0.0]], [[0.0]] * 4]
        assert t.nv.tolist() == [3.0, 1.0]  # a window with no real row counts 1
        # Ordered salient pairs among real rows: label 1 (row 2) before label 2 (row 0).
        assert np.argwhere(t.pairs[0]).tolist() == [[2, 0]]
        assert not t.pairs[1].any()

    def test_take(self):
        t = prepare_targets([[1, 0], [0, 1], [2, 1]])
        for idx in ([2, 0], slice(1, 3)):
            for got, full in zip(t.take(idx), t):
                assert np.array_equal(got, full[idx])

    def test_one_window(self):
        t = prepare_targets([0, 1, 2])
        assert t.hot.shape == (3, 4) and t.keep.shape == (3, 1) and t.nv.shape == () and t.pairs.shape == (3, 3)


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
        with pytest.raises(RankflowError, match="no training windows"):
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

    def test_one_batch_grads_call_per_batch(self, monkeypatch):
        sizes, scored = [], []

        def counted(model, inputs, *args):
            sizes.append(inputs.shape)
            return batch_grads(model, inputs, *args)

        def counted_losses(p, *args):
            scored.append(p.shape[0])
            return window_losses(p, *args)

        monkeypatch.setattr(scorer, "batch_grads", counted)
        monkeypatch.setattr(scorer, "window_losses", counted_losses)
        train(self._dataset(n=2 * BATCH + 3), TrainConfig(epochs=2))
        assert sizes == [(BATCH, 5, 18), (BATCH, 5, 18), (3, 5, 18)] * 2
        assert scored == [2 * BATCH + 3] * 2  # one call per epoch, over every window

    def test_targets_prepared_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(np.shape(args[0]))
            return prepare_targets(*args)

        monkeypatch.setattr(scorer, "prepare_targets", counted)
        train(self._dataset(n=2 * BATCH + 3), TrainConfig(epochs=2))
        assert calls == [(2 * BATCH + 3, 5)]

    def test_rejects_windows_that_do_not_fit(self):
        data = self._dataset()
        for bad, message in (
            ((np.zeros((4, 18)), [1, 0, 0, 0], [False] * 4), "inputs must have shape"),  # another window size
            ((np.zeros((5, 18)), [1, 0, 0], [False] * 5), "labels and dummy flags must each be one"),
            ((np.zeros((5, 18)), [1, 0, 0, 0, 0], [False] * 3), "labels and dummy flags must each be one"),
            ((np.zeros((5, 18)), [6, 0, 0, 0, 0], [False] * 5), "labels outside"),
        ):
            with pytest.raises(RankflowError, match=message):
                train(data[:7] + [bad] + data[7:], TrainConfig(epochs=1))

    def test_accepts_missing_dummy_mask(self):
        data = self._dataset()
        cfg = TrainConfig(epochs=2)
        a = train(data, cfg)
        b = train([(x, labels, None) for x, labels, _ in data], cfg)
        assert a.epoch_losses == b.epoch_losses


def _windows(items):
    samples = []
    for scene, feats, gt in items:
        _, ids, dummy, inputs = window_batch(scene, feats, 5)
        samples += [(x, window_gt_labels(gt, row), d) for x, row, d in zip(inputs, ids.tolist(), dummy.tolist())]
    return samples


class TestSmallData:
    # 150 training scenes of 300 fixations, 100 held out, default TrainConfig.
    # With one SGD step per window at lr 1e-3, decayed tenfold every 10 epochs,
    # training stalled here at held-out SRCC 0.589, 0.559 and 0.475.
    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_default_schedule_learns(self, seed):
        cfg = SynthConfig(
            seed=seed, objects_min=5, objects_max=9, width=320, height=240,
            fixations_per_scene=300, render_maps=False,
        )
        items = []
        for idx in range(250):
            scene = filter_proposals(generate_scene(cfg, idx)[0])
            items.append((scene, scene_features(scene), rasrgt_rank(scene)))
        model = train(_windows(items[:150]), TrainConfig(seed=seed)).model
        held_out = [srcc(rank_scene(scene, feats, make_scorer(model), 5), gt) for scene, feats, gt in items[150:]]
        assert np.mean(held_out) >= 0.9


class TestModelIo:
    def test_round_trip(self, tmp_path):
        model = init_model(seed=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dims == model.dims
        assert all(np.array_equal(a, b) for a, b in zip(loaded.params(), model.params()))

    def test_pickle_keeps_one_buffer(self):
        model = init_model(seed=2)
        copy = pickle.loads(pickle.dumps(model))
        assert copy.dims == model.dims
        assert copy.flat.tobytes() == model.flat.tobytes()
        for view in copy.params():
            assert np.shares_memory(view, copy.flat)
        copy.b2[0] = 1.0
        assert copy.flat[-copy.dims[2]] == 1.0

    def test_views_follow_the_file_order(self):
        model = ScorerModel(2, 3, 4, np.arange(2 * 3 + 3 + 3 * 4 + 4, dtype=float))
        assert model.w1.tolist() == [[0, 1, 2], [3, 4, 5]]
        assert model.b1.tolist() == [6, 7, 8]
        assert model.w2[0].tolist() == [9, 10, 11, 12] and model.b2.tolist() == [21, 22, 23, 24]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(RankflowError, match="m.bin: bad magic"):
            load_model(path)

    def test_non_positive_dimension(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"RFM1" + np.array([-1, 32, 6], "<i4").tobytes() + bytes(1584))
        with pytest.raises(RankflowError, match="m.bin: model dimensions must be >= 1"):
            load_model(path)
        path.write_bytes(b"RFM1" + np.array([18, 0, 6], "<i4").tobytes() + bytes(48))
        with pytest.raises(RankflowError, match=r"m\.bin: model dimensions must be >= 1, got \(18, 0, 6\)"):
            load_model(path)

    @settings(max_examples=200)
    @given(st.sampled_from([(18, 32, 6), (1, 1, 1), (2, 3, 4)]), BYTE_EDITS)
    def test_mutated_file_names_the_file(self, tmp_path_factory, dims, edits):
        # A valid model file cut short, overwritten or grown at any byte,
        # header included: either it loads as a finite model of the size its
        # header gives, or the error names the file.
        path = tmp_path_factory.getbasetemp() / "mutated.bin"
        d_in, h, c = dims
        save_model(ScorerModel(d_in, h, c, np.linspace(-1, 1, d_in * h + h + h * c + c)), path)
        path.write_bytes(edit_bytes(path.read_bytes(), edits))
        try:
            model = load_model(path)
        except RankflowError as e:
            assert str(e).startswith(f"{path}: ")
        else:
            d_in, h, c = model.dims
            assert min(model.dims) >= 1 and model.flat.size == d_in * h + h + h * c + c
            assert np.isfinite(model.flat).all()

    def test_non_finite_parameter(self, tmp_path):
        model = init_model(seed=2)
        model.b1[3] = np.nan
        path = tmp_path / "m.bin"
        save_model(model, path)
        with pytest.raises(RankflowError, match="m.bin: model parameters must be finite"):
            load_model(path)

    def test_truncated(self, tmp_path):
        model = init_model(seed=2)
        path = tmp_path / "m.bin"
        save_model(model, path)
        size = len(path.read_bytes())
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(RankflowError, match=rf"m\.bin: expected {size} bytes, got {size - 16}$"):
            load_model(path)


PINNED_MODEL_SHA256 = "574c2def8dd3e2d90ef2d2fa0e12f3d51be6b0b68f0cb553b76d22495be97002"


# Reference: the per-row, per-pair loop form of one window's loss and grads,
# and minibatch SGD written as a loop over it: each batch of BATCH windows of
# the epoch's permutation (the last one may be smaller) steps on the mean of
# its windows' losses and grads, one parameter at a time. A batched matmul
# adds terms in another order than the per-window one, so `train` matches it
# to rtol 1e-12, not bit for bit; a single window matches bit for bit.
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
    grads = ScorerModel(*model.dims)
    for g, value in zip(grads.params(), (dw1, db1, dw2, db2)):
        g[...] = value
    return loss, grads


def _reference_train(dataset, cfg):
    model = init_model(d_in=dataset[0][0].shape[1], n_classes=len(dataset[0][1]) + 1, seed=cfg.seed)
    velocity = [np.zeros_like(p) for p in model.params()]
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(dataset))
        total = 0.0
        for start in range(0, len(order), BATCH):
            batch = order[start : start + BATCH]
            loss, grads = 0.0, [np.zeros_like(p) for p in model.params()]
            for idx in batch:
                inputs, labels, dummy_mask = dataset[idx]
                win_loss, win_grads = _reference_loss_and_grad(model, inputs, labels, cfg, dummy_mask)
                loss += win_loss
                for g, wg in zip(grads, win_grads.params()):
                    g += wg
            total += loss
            for p, v, g in zip(model.params(), velocity, grads):
                g = g / len(batch) + cfg.weight_decay * p
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


def _per_batch_train(dataset, cfg):
    """`train` as one loss_and_grad call per batch: each batch's inputs
    gathered from the samples, its mean loss added to the epoch total as it
    steps, its grads concatenated into one flat buffer."""
    w = len(dataset[0][1])
    model = init_model(d_in=dataset[0][0].shape[1], n_classes=w + 1, seed=cfg.seed)
    targets = prepare_targets([gt for _, gt, _ in dataset], [mask for _, _, mask in dataset])
    params = ScorerModel(*model.dims)
    for dst, src in zip(params.params(), model.params()):
        dst[...] = src
    theta = params.flat
    velocity = np.zeros_like(theta)
    scratch = np.empty_like(theta)
    rng = np.random.default_rng(cfg.seed + 1)
    losses = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(dataset))
        shuffled = targets.take(order)
        total = 0.0
        for start in range(0, len(order), BATCH):
            idx = order[start : start + BATCH].tolist()
            x = np.array([dataset[i][0] for i in idx], dtype=float)
            loss, grads = loss_and_grad(params, x, shuffled.take(slice(start, start + BATCH)), cfg)
            total += loss * len(idx)
            grad = np.concatenate([g.ravel() for g in grads.params()])
            grad += np.multiply(theta, cfg.weight_decay, out=scratch)
            velocity *= cfg.momentum
            velocity += grad
            theta -= np.multiply(velocity, lr, out=scratch)
        losses.append(total / len(dataset))
    return params, losses


class TestSameTrajectory:
    @pytest.mark.parametrize("w", [3, 5, 7])
    @pytest.mark.parametrize(
        "alpha, margin", [(1.0, 0.0), (0.0, 0.5), (0.6, 2.0)], ids=["margin0", "alpha0", "both"]
    )
    def test_train_matches_reference(self, w, alpha, margin):
        # 42 windows: two full batches and a last one of 10.
        data = _mixed_windows(w, 40, seed=w)
        cfg = TrainConfig(epochs=4, lr=0.02, lr_decay_every=2, alpha=alpha, margin=margin, seed=w)
        model, losses = _reference_train(data, cfg)
        result = train(data, cfg)
        np.testing.assert_allclose(result.epoch_losses, losses, rtol=1e-12, atol=0)
        for got, want in zip(result.model.params(), model.params()):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("w", [3, 5, 7])
    @pytest.mark.parametrize(
        "alpha, margin", [(1.0, 0.0), (0.0, 0.5), (0.6, 2.0)], ids=["margin0", "alpha0", "both"]
    )
    def test_train_matches_per_batch_loop_bit_for_bit(self, w, alpha, margin):
        # 39 windows: two full batches and a last one of 7.
        data = _mixed_windows(w, 37, seed=w)
        cfg = TrainConfig(epochs=4, lr=0.02, lr_decay_every=2, alpha=alpha, margin=margin, seed=w)
        model, losses = _per_batch_train(data, cfg)
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
            windows = []
            for x, labels, dummy in _mixed_windows(w, 3, seed=k):
                if k % 2:  # dummy rows may carry any label; every form ignores it
                    labels = [int(rng.integers(0, w + 1)) if d else l for l, d in zip(labels, dummy)]
                windows.append((x, labels, dummy))
            # Targets prepared once for every window, permuted and sliced as train does.
            perm = np.random.default_rng(k).permutation(len(windows))
            shuffled = prepare_targets([s[1] for s in windows], [s[2] for s in windows]).take(perm)
            for i, (x, labels, dummy) in enumerate(windows):
                want_loss, want = _reference_loss_and_grad(model, x, labels, cfg, dummy)
                at = int(np.flatnonzero(perm == i)[0])
                for got_loss, got in (
                    loss_and_grad(model, x, prepare_targets(labels, dummy), cfg),
                    loss_and_grad(model, x[None], prepare_targets([labels], [dummy]), cfg),  # a batch of one
                    loss_and_grad(model, x[None], shuffled.take(slice(at, at + 1)), cfg),
                ):
                    assert got_loss == want_loss
                    for a, b in zip(got.params(), want.params()):
                        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("w", [2, 5, 12])
    def test_batch_is_mean_of_windows(self, w):
        cfg = TrainConfig(alpha=0.6, margin=0.5)
        model = init_model(n_classes=w + 1, seed=w)
        data = _mixed_windows(w, 14, seed=w)
        x, labels, dummy = (np.array([sample[i] for sample in data]) for i in range(3))
        loss, grads = loss_and_grad(model, x, prepare_targets(labels, dummy), cfg)
        per_window = [_reference_loss_and_grad(model, *sample[:2], cfg, sample[2]) for sample in data]
        np.testing.assert_allclose(loss, np.mean([lo for lo, _ in per_window]), rtol=1e-12, atol=0)
        for k, got in enumerate(grads.params()):
            want = np.mean([g.params()[k] for _, g in per_window], axis=0)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_saved_model_bytes_pinned(self, tmp_path):
        # SHA-256 of the model file written by the minibatch trainer.
        path = tmp_path / "m.bin"
        save_model(train(_mixed_windows(5, 30, seed=1), TrainConfig(epochs=3, margin=0.2, seed=5)).model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL_SHA256
