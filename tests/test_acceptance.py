"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, asserts its pinned
threshold, and prints a single pass line with the measured value.
"""
import itertools
import json
import time

import numpy as np
import pytest
from scipy import stats

from rankflow.cli import dispatch
from rankflow.domain import Ranking
from rankflow.gtgen import (
    GtConfig,
    GtMethod,
    discrepancy_offsets,
    generate_ranking,
    rasrgt_rank,
)
from rankflow.metrics import SrccUndefined, f1_salient, srcc
from rankflow.preprocess import FilterConfig, filter_proposals, scene_features
from rankflow.rankcore import (
    acb_sequences,
    exclusive_classify,
    hungarian,
    rank_scene,
    window_inputs,
)
from rankflow.scorer import (
    TrainConfig,
    init_model,
    loss_and_grad,
    make_scorer,
    oracle_scorer,
    train,
    window_gt_labels,
)
from rankflow.synth import SynthConfig, generate_scene, latent_ranking


def ok(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS — {detail}")


def test_criterion_01_acb_coverage():
    start = time.perf_counter()
    for n in range(5, 65):
        windows = acb_sequences(n, 5)
        assert len(windows) == n
        counts = [0] * n
        for i, w in enumerate(windows):
            assert w.member_ids == tuple((i + k) % n for k in range(5))
            for idx in w.member_ids:
                counts[idx] += 1
        assert counts == [5] * n
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"n=5..64 exact coverage in {elapsed:.3f}s")


def test_criterion_02_hungarian_optimality():
    rng = np.random.default_rng(2024)
    perms_by_k = {
        k: np.array(list(itertools.permutations(range(k)))) for k in range(2, 7)
    }
    start = time.perf_counter()
    for _ in range(10_000):
        k = int(rng.integers(2, 7))
        cost = rng.integers(0, 20, size=(k, k)).astype(float) / 2.0
        perm = hungarian(cost.tolist())
        total = cost[np.arange(k), perm].sum()
        perms = perms_by_k[k]
        brute = cost[np.arange(k)[None, :], perms].sum(axis=1).min()
        assert total == pytest.approx(brute, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(2, f"10,000 matrices (k<=6) match brute force in {elapsed:.2f}s")


def test_criterion_03_ecs_exclusivity():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        logits = rng.normal(scale=2.0, size=(5, 6))
        dummy = (rng.random(5) < 0.15).tolist()
        labels = exclusive_classify(logits, dummy)
        nonzero = [l for l in labels if l > 0]
        assert len(set(nonzero)) == len(nonzero)
        assert all(1 <= l <= 5 for l in nonzero)
        for r, d in enumerate(dummy):
            if d:
                assert labels[r] == 0
    ok(3, "10,000 random score matrices, non-zero labels always distinct")


def test_criterion_04_oracle_end_to_end():
    cfg = SynthConfig(
        seed=4, objects_min=5, objects_max=9, width=320, height=240,
        fixations_per_scene=200, render_maps=False,
    )
    start = time.perf_counter()
    srcc_vals, f1_vals = [], []
    for idx in range(1_000):
        scene, _ = generate_scene(cfg, idx)
        gt = rasrgt_rank(scene)
        feats = np.zeros((len(scene.proposals), 14))
        pred = rank_scene(scene, feats, oracle_scorer(gt), 5)
        assert pred.labels == gt.labels
        srcc_vals.append(srcc(pred, gt))
        f1_vals.append(f1_salient(pred, gt))
    elapsed = time.perf_counter() - start
    assert np.mean(srcc_vals) == 1.0
    assert np.mean(f1_vals) == 1.0
    assert elapsed < 30.0
    ok(4, f"1,000 scenes, mean SRCC=1.0 and F1=1.0 exactly in {elapsed:.1f}s")


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(5)
    eps = 1e-5
    worst = 0.0
    for draw in range(100):
        model = init_model(d_in=8, hidden=6, n_classes=6, seed=1000 + draw)
        x = rng.normal(size=(5, 8))
        labels = [int(l) for l in rng.permutation([1, 2, 3, 0, 0])]
        dummy = [False, False, False, False, bool(rng.random() < 0.3)]
        cfg = TrainConfig(alpha=float(rng.uniform(0.2, 1.5)), margin=float(rng.uniform(0, 0.3)))
        _, analytic = loss_and_grad(model, x, labels, cfg, dummy)
        for p, a in zip(model.params(), analytic.params()):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p[idx]
                p[idx] = old + eps
                lp, _ = loss_and_grad(model, x, labels, cfg, dummy)
                p[idx] = old - eps
                lm, _ = loss_and_grad(model, x, labels, cfg, dummy)
                p[idx] = old
                numeric = (lp - lm) / (2 * eps)
                rel = abs(a[idx] - numeric) / max(1.0, abs(a[idx]), abs(numeric))
                worst = max(worst, rel)
                assert rel < 1e-4
    ok(5, f"100 draws, worst relative gradient error {worst:.2e} < 1e-4")


def test_criterion_06_srcc_oracle():
    gt = Ranking({0: 1, 1: 2, 2: 3, 3: 4})
    pred = Ranking({0: 1, 1: 3, 2: 2, 3: 4})
    assert srcc(pred, gt) == pytest.approx(0.8, abs=1e-15)

    rng = np.random.default_rng(6)
    checked = 0
    while checked < 1_000:
        n = int(rng.integers(3, 12))
        ids = list(range(n))
        def draw():
            k = int(rng.integers(0, n + 1))
            chosen = rng.choice(n, size=k, replace=False)
            labels = {i: 0 for i in ids}
            for order, pid in enumerate(chosen.tolist(), start=1):
                labels[pid] = order
            return Ranking(labels)
        a, b = draw(), draw()
        va = [a.labels[i] for i in ids]
        vb = [b.labels[i] for i in ids]
        if len(set(va)) < 2 or len(set(vb)) < 2:
            continue
        expected = stats.spearmanr(va, vb).statistic
        assert srcc(a, b) == pytest.approx(expected, abs=1e-12)
        checked += 1
    ok(6, "1,000 tied permutations match scipy to 1e-12; hand example = 0.8")


def _benchmark_scenes(cfg, start, stop):
    out = []
    for idx in range(start, stop):
        scene, _ = generate_scene(cfg, idx)
        scene = filter_proposals(scene, FilterConfig())
        out.append((scene, scene_features(scene), rasrgt_rank(scene)))
    return out


def test_criterion_07_trained_scorer_benchmark():
    cfg = SynthConfig(
        seed=7, objects_min=5, objects_max=9, width=320, height=240,
        fixations_per_scene=1000, render_maps=False,
    )
    train_set = _benchmark_scenes(cfg, 0, 500)
    held_out = _benchmark_scenes(cfg, 500, 600)

    samples = []
    for scene, feats, gt in train_set:
        for window in acb_sequences(len(scene.proposals), 5):
            ids = tuple(scene.proposals[i].id for i in window.member_ids)
            samples.append(
                (
                    window_inputs(feats, window.member_ids),
                    window_gt_labels(gt, ids),
                    [scene.proposals[i].is_dummy for i in window.member_ids],
                )
            )
    start = time.perf_counter()
    result = train(samples, TrainConfig(epochs=30, seed=7))
    train_time = time.perf_counter() - start
    assert train_time < 300.0

    scorer = make_scorer(result.model)
    trained, baseline = [], []
    rng = np.random.default_rng(7)
    for scene, feats, gt in held_out:
        pred = rank_scene(scene, feats, scorer, 5)
        trained.append(srcc(pred, gt))
        ids = sorted(gt.labels)
        orders = [gt.labels[i] for i in ids]
        rng.shuffle(orders)
        try:
            baseline.append(srcc(Ranking(dict(zip(ids, orders))), gt))
        except SrccUndefined:
            pass
    mean_trained = float(np.mean(trained))
    mean_baseline = float(np.mean(baseline))
    assert len(trained) == 100
    assert mean_trained >= 0.8
    assert mean_trained > mean_baseline
    assert abs(mean_baseline) < 0.05 + 3.0 / np.sqrt(len(baseline))
    ok(
        7,
        f"held-out mean SRCC {mean_trained:.3f} >= 0.8 "
        f"(random baseline {mean_baseline:+.3f}), trained in {train_time:.1f}s",
    )


def test_criterion_08_gt_method_divergence():
    cfg = SynthConfig(
        seed=21, objects_min=5, objects_max=9, width=320, height=240,
        fixations_per_scene=2000, noise_fixation_fraction=0.0, render_maps=True,
    )
    methods = [GtMethod.FIX_POINTS, GtMethod.MAP_MAX, GtMethod.MAP_AVG, GtMethod.RA_SRGT]
    n_scenes = 200
    disagree = {pair: 0 for pair in itertools.combinations(range(4), 2)}
    latent_match = 0
    for idx in range(n_scenes):
        scene, weights = generate_scene(cfg, idx)
        rankings = [generate_ranking(scene, GtConfig(method=m)).labels for m in methods]
        for a, b in disagree:
            if rankings[a] != rankings[b]:
                disagree[(a, b)] += 1
        if rankings[3] == latent_ranking(scene, weights):
            latent_match += 1
    min_rate = min(disagree.values()) / n_scenes
    match_rate = latent_match / n_scenes
    assert min_rate >= 0.01
    assert match_rate >= 0.95
    ok(
        8,
        f"pairwise disagreement >= {min_rate:.1%} on {n_scenes} scenes; "
        f"latent-order agreement {match_rate:.1%}",
    )


def test_criterion_09_discrepancy_offsets():
    from dataclasses import replace

    cfg = SynthConfig(
        seed=9, n_scenes=20, objects_min=5, objects_max=9, width=320, height=240,
        fixations_per_scene=400, render_maps=False,
    )
    scenes = [generate_scene(cfg, idx)[0] for idx in range(cfg.n_scenes)]
    base = GtConfig()
    grid = [round(0.1 * i, 10) for i in range(1, 11)]
    rows = discrepancy_offsets(scenes, base, grid)
    assert len(rows) == len(grid) - 1
    for (t, offset), t_prev in zip(rows, grid):
        expected = 0
        for scene in scenes:
            prev = rasrgt_rank(scene, replace(base, gamma=t_prev))
            cur = rasrgt_rank(scene, replace(base, gamma=t))
            expected += sum(abs(cur.labels[p] - prev.labels[p]) for p in cur.labels)
        assert offset == expected
    # a grid step so small that no ranking changes must give offset 0
    flat = discrepancy_offsets(scenes, base, [0.2, 0.2 + 1e-12])
    assert flat == [(0.2 + 1e-12, 0)]
    ok(9, "offsets equal brute-force double sum; identical rankings give 0")


def _run_pipeline(root, jobs):
    raw = root / "raw"
    pre = root / "pre"
    steps = [
        ["synth", "--seed", "10", "--scenes", "12", "--objects", "5:8",
         "--fixations", "150", "--out", str(raw)],
        ["preprocess", "--in", str(raw), "--out", str(pre), "--jobs", str(jobs)],
        ["gt-gen", "--method", "rasrgt", "--in", str(raw),
         "--out", str(root / "gt.csv"), "--jobs", str(jobs)],
        ["train", "--in", str(pre), "--gt", str(root / "gt.csv"),
         "--out", str(root / "model.bin"), "--epochs", "2", "--seed", "1"],
        ["rank", "--in", str(pre), "--model", str(root / "model.bin"),
         "--out", str(root / "pred.csv"), "--jobs", str(jobs)],
        ["eval", "--pred", str(root / "pred.csv"), "--gt", str(root / "gt.csv"),
         "--out", str(root / "report.json")],
    ]
    for argv in steps:
        assert dispatch(argv) == 0
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_pipeline_determinism(tmp_path):
    runs = {
        label: _run_pipeline(tmp_path / label, jobs)
        for label, jobs in (("a", 1), ("b", 1), ("c", 3))
    }
    assert set(runs["a"]) == set(runs["b"]) == set(runs["c"])
    for name in runs["a"]:
        assert runs["a"][name] == runs["b"][name], f"rerun differs: {name}"
        assert runs["a"][name] == runs["c"][name], f"--jobs differs: {name}"
    report = json.loads(runs["a"]["report.json"])
    assert report["mean_f1"] is not None
    ok(10, f"{len(runs['a'])} output files byte-identical across reruns and --jobs")
