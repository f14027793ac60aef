"""Ground-truth saliency rank-order generation.

Five methods, each a plain name in ``METHODS``: raw fixation-point counting
(``fixpoints``), fixation-map max and mean statistics (``mapmax``,
``mapavg``), binarized-map white-pixel ratios (``binmap``), and the
relationship-aware combined score, fixation share plus a size-dependent
exponential bonus (``rasrgt``).  Also provides the threshold-discrepancy
analysis between adjacent GT thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import Ranking, Scene, check_fields, count_fixations, map_region, sqrt_size
from .errors import RankflowError

METHODS = ("fixpoints", "mapmax", "mapavg", "binmap", "rasrgt")
MAP_METHODS = ("mapmax", "mapavg", "binmap")  # the methods that read the fixation map


@dataclass(frozen=True)
class GtConfig:
    gamma: float = 0.2
    beta: float = 0.5
    method: str = "rasrgt"
    binary_threshold: float = 128.0

    def __post_init__(self):
        reals = (
            ("gamma", lambda x: x > 0, "> 0"),
            ("beta", lambda x: x > 0, "> 0"),
            ("binary_threshold", lambda x: 0 < x < 255, "in (0, 255)"),
        )
        check_fields(self, reals=reals)
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {list(METHODS)}, got {self.method!r}")


def ranking_from_scores(scores: dict[int, float]) -> Ranking:
    """Descending score -> orders 1..k; zero score -> order 0; ties by ascending id."""
    salient = sorted(
        (pid for pid, s in scores.items() if s > 0), key=lambda pid: (-scores[pid], pid)
    )
    labels = {pid: 0 for pid in scores}
    for order, pid in enumerate(salient, start=1):
        labels[pid] = order
    return Ranking(labels)


def _box_score(scene: Scene, box, cfg: GtConfig) -> float:
    """A box's score under any method but rasrgt: fixations per sqrt-size,
    the max or mean of the map under it, or its share of map pixels above
    ``binary_threshold`` times its sqrt-size ratio to the image."""
    if cfg.method == "fixpoints":
        return count_fixations(box, scene.fixations) / sqrt_size(box)
    vals = map_region(scene.fixation_map, box)
    if vals.size == 0:
        return 0.0
    if cfg.method == "mapmax":
        return float(vals.max())
    if cfg.method == "mapavg":
        return float(vals.mean())
    white = int((vals > cfg.binary_threshold).sum())
    return (white / vals.size) * (sqrt_size(box) / math.sqrt(scene.width * scene.height))


def rasrgt_score(n_i: int, total: int, size_ratio: float, cfg: GtConfig) -> float:
    """Combined score of a box holding ``n_i`` of a scene's ``total``
    fixations: fixation share plus gamma * e^(beta * size ratio).

    Zero fixations inside the box means zero score regardless of size.
    """
    if n_i == 0:
        return 0.0
    return n_i / total + cfg.gamma * math.exp(cfg.beta * size_ratio)


def rasrgt_counts(scene: Scene) -> tuple[int, list[tuple[int, int, float]]]:
    """What the combined score reads of a scene, whatever its gamma: the
    fixation total and, per real box, ``(id, fixation count, size ratio)``."""
    image_sqrt = math.sqrt(scene.width * scene.height)
    boxes = [
        (p.id, count_fixations(p.box, scene.fixations), sqrt_size(p.box) / image_sqrt)
        for p in scene.real_proposals
    ]
    return len(scene.fixations), boxes


def _rank_counts(total: int, boxes, cfg: GtConfig) -> Ranking:
    return ranking_from_scores({pid: rasrgt_score(n, total, ratio, cfg) for pid, n, ratio in boxes})


def rasrgt_rank(scene: Scene, cfg: GtConfig | None = None) -> Ranking:
    return _rank_counts(*rasrgt_counts(scene), cfg or GtConfig())


def require_map(scene: Scene) -> np.ndarray:
    """The scene's fixation map; a RankflowError if it has none."""
    if scene.fixation_map is None:
        raise RankflowError("no fixation_map_path, so the scene has no fixation map")
    return scene.fixation_map


def generate_ranking(scene: Scene, cfg: GtConfig) -> Ranking:
    """The scene's ranking under ``cfg.method``; a method that reads the
    fixation map raises a RankflowError on a scene without one."""
    if cfg.method == "rasrgt":
        return rasrgt_rank(scene, cfg)
    if cfg.method in MAP_METHODS:
        require_map(scene)
    return ranking_from_scores({p.id: _box_score(scene, p.box, cfg) for p in scene.real_proposals})


def discrepancy_offsets(counted, cfg_base: GtConfig, thresholds) -> list[tuple[float, int]]:
    """Total rank-order change between each pair of adjacent GT thresholds,
    from each scene's ``rasrgt_counts``: fixation counts do not depend on
    the threshold, so each box is counted once.

    For each consecutive threshold pair (t_prev, t) sums |order_t - order_t_prev|
    over every proposal of every scene.
    """
    thresholds = list(thresholds)
    rank_cache = []
    for t in thresholds:
        cfg = replace(cfg_base, gamma=t)
        rank_cache.append([_rank_counts(total, boxes, cfg) for total, boxes in counted])
    out = []
    for idx in range(1, len(thresholds)):
        total = 0
        for prev, cur in zip(rank_cache[idx - 1], rank_cache[idx]):
            for pid in cur.labels:
                total += abs(cur.labels[pid] - prev.labels[pid])
        out.append((thresholds[idx], total))
    return out
