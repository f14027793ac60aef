"""Ranking evaluation: tie-corrected Spearman correlation, salient/non-salient
F1, the per-object binarization threshold for scoring plain saliency maps as
rankers, and dataset-level report assembly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Ranking, Scene, check_real, map_region, sqrt_size
from .errors import RankflowError
from .gtgen import ranking_from_scores

# lambda's range, as ``check_real``'s ``(ok, span)``: map_threshold and the CLI check it.
LAMBDA_RANGE = (lambda x: 0 < x <= 1, "in (0, 1]")


def midranks(values) -> np.ndarray:
    """Average-rank (fractional) ranks, 1-based, ties share the mean rank."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float), return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of each distinct value's last copy
    return (ends - (counts - 1) / 2)[inverse]


def srcc(pred: Ranking, gt: Ranking) -> float | None:
    """Tie-corrected Spearman correlation of the two order vectors: Pearson's
    r of their mid-ranks.  None where it is undefined: fewer than 2
    proposals, or a constant vector."""
    if set(pred.labels) != set(gt.labels):
        raise RankflowError("pred and gt cover different proposal ids")
    ids = sorted(gt.labels)
    if len(ids) < 2:
        return None
    a = midranks([pred.labels[i] for i in ids])
    b = midranks([gt.labels[i] for i in ids])
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt((da @ da) * (db @ db))
    if denom == 0:
        return None
    return float((da @ db) / denom)


def f1_salient(pred: Ranking, gt: Ranking) -> float:
    """F1 on the binary salient (order > 0) vs non-salient split."""
    if set(pred.labels) != set(gt.labels):
        raise RankflowError("pred and gt cover different proposal ids")
    pred_pos = {i for i, o in pred.labels.items() if o > 0}
    gt_pos = {i for i, o in gt.labels.items() if o > 0}
    if not pred_pos and not gt_pos:
        return 1.0
    tp = len(pred_pos & gt_pos)
    if tp == 0:
        return 0.0
    precision = tp / len(pred_pos)
    recall = tp / len(gt_pos)
    return 2 * precision * recall / (precision + recall)


def map_threshold(scene: Scene, gmap: np.ndarray, lam: float) -> float:
    """Per-object average-intensity binarization threshold, with which
    ``rank_from_saliency_map`` turns a plain saliency map into a ranker.

    T = (1 / (n * lam)) * sum_i sum(values in box_i) / sqrt(area_i), over the
    scene's n real proposals; ``lam`` in (0, 1].
    """
    check_real(lam, "lambda", *LAMBDA_RANGE)
    proposals = scene.real_proposals
    if not proposals:
        raise RankflowError(f"{scene.scene_id}: no proposals")
    total = sum(float(map_region(gmap, p.box).sum()) / sqrt_size(p.box) for p in proposals)
    return total / (len(proposals) * lam)


def rank_from_saliency_map(scene: Scene, gmap: np.ndarray, lam: float) -> Ranking:
    """Binarize at the per-object threshold, rank by white-pixel counts."""
    height, width = gmap.shape
    if (width, height) != (scene.width, scene.height):
        raise RankflowError(f"{scene.scene_id}: map {width}x{height} vs scene {scene.width}x{scene.height}")
    threshold = map_threshold(scene, gmap, lam)
    return ranking_from_scores(
        {p.id: float((map_region(gmap, p.box) > threshold).sum()) for p in scene.real_proposals}
    )


@dataclass
class SceneEval:
    scene_id: str
    srcc: float | None
    f1: float


@dataclass
class EvalReport:
    scenes: list[SceneEval] = field(default_factory=list)
    mean_srcc: float | None = None
    mean_f1: float | None = None
    skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "scenes": [
                {"id": s.scene_id, "srcc": s.srcc, "f1": s.f1} for s in self.scenes
            ],
            "mean_srcc": self.mean_srcc,
            "mean_f1": self.mean_f1,
            "skipped": self.skipped,
        }


def evaluate_rankings(pred: dict[str, Ranking], gt: dict[str, Ranking]) -> EvalReport:
    if set(pred) != set(gt):
        missing = set(pred) ^ set(gt)
        raise RankflowError(f"scene id sets differ: {sorted(missing)[:5]}")
    report = EvalReport()
    srcc_values = []
    f1_values = []
    for sid in sorted(gt):
        try:
            f1 = f1_salient(pred[sid], gt[sid])
        except RankflowError as e:
            raise e.naming(f"scene {sid!r}") from e
        rho = srcc(pred[sid], gt[sid])
        if rho is None:
            report.skipped += 1
        else:
            srcc_values.append(rho)
        f1_values.append(f1)
        report.scenes.append(SceneEval(sid, rho, f1))
    report.mean_srcc = float(np.mean(srcc_values)) if srcc_values else None
    report.mean_f1 = float(np.mean(f1_values)) if f1_values else None
    return report
