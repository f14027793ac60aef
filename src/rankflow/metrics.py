"""Ranking evaluation: tie-corrected Spearman correlation, salient/non-salient
F1, the per-object binarization threshold for scoring plain saliency maps as
rankers, and dataset-level report assembly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import GrayMap, Ranking, Scene, sqrt_size
from .errors import MissingFixationMap, SceneMismatch, SrccUndefined
from .gtgen import map_region, ranking_from_scores


def midranks(values) -> np.ndarray:
    """Average-rank (fractional) ranks, 1-based, ties share the mean rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def srcc(pred: Ranking, gt: Ranking) -> float:
    """Spearman correlation of the two order vectors with mid-rank ties."""
    if set(pred.labels) != set(gt.labels):
        raise SceneMismatch("pred and gt cover different proposal ids")
    ids = sorted(gt.labels)
    if len(ids) < 2:
        raise SrccUndefined("need at least 2 proposals")
    a = midranks([pred.labels[i] for i in ids])
    b = midranks([gt.labels[i] for i in ids])
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt((da @ da) * (db @ db))
    if denom == 0:
        raise SrccUndefined("constant rank vector")
    return float((da @ db) / denom)


def f1_salient(pred: Ranking, gt: Ranking) -> float:
    """F1 on the binary salient (order > 0) vs non-salient split."""
    if set(pred.labels) != set(gt.labels):
        raise SceneMismatch("pred and gt cover different proposal ids")
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


def map_threshold(scene: Scene, lam: float, gray: GrayMap | None = None) -> float:
    """Per-object average-intensity binarization threshold.

    T = (1 / (n * lam)) * sum_i sum(values in box_i) / sqrt(area_i).
    """
    gmap = gray if gray is not None else scene.fixation_map
    if gmap is None:
        raise MissingFixationMap(scene.scene_id)
    if not 0 < lam <= 1:
        raise ValueError("lambda must lie in (0,1]")
    proposals = scene.real_proposals
    if not proposals:
        raise SceneMismatch(f"{scene.scene_id}: no proposals")
    total = sum(float(map_region(gmap, p.box).sum()) / sqrt_size(p.box) for p in proposals)
    return total / (len(proposals) * lam)


def rank_from_saliency_map(scene: Scene, gmap: GrayMap, lam: float) -> Ranking:
    """Binarize at the per-object threshold, rank by white-pixel counts."""
    if gmap.width != scene.width or gmap.height != scene.height:
        raise SceneMismatch(
            f"{scene.scene_id}: map {gmap.width}x{gmap.height} vs scene {scene.width}x{scene.height}"
        )
    threshold = map_threshold(scene, lam, gray=gmap)
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
        raise SceneMismatch(f"scene id sets differ: {sorted(missing)[:5]}")
    report = EvalReport()
    srcc_values = []
    f1_values = []
    for sid in sorted(gt):
        f1 = f1_salient(pred[sid], gt[sid])
        try:
            rho = srcc(pred[sid], gt[sid])
            srcc_values.append(rho)
        except SrccUndefined:
            rho = None
            report.skipped += 1
        f1_values.append(f1)
        report.scenes.append(SceneEval(sid, rho, f1))
    report.mean_srcc = float(np.mean(srcc_values)) if srcc_values else None
    report.mean_f1 = float(np.mean(f1_values)) if f1_values else None
    return report
