"""Ground-truth saliency rank-order generation.

Four methods: raw fixation-point counting, fixation-map max/avg statistics,
binarized-map white-pixel ratios, and the relationship-aware combined score
(fixation share plus a size-dependent exponential bonus).  Also provides the
threshold-discrepancy analysis between adjacent GT thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .domain import GrayMap, Ranking, Scene, check_fields, count_fixations, sqrt_size
from .errors import MissingFixationMap


class GtMethod(Enum):
    FIX_POINTS = "fixpoints"
    MAP_MAX = "mapmax"
    MAP_AVG = "mapavg"
    BINARIZED_MAP = "binmap"
    RA_SRGT = "rasrgt"

    @property
    def reads_map(self) -> bool:
        return self in (GtMethod.MAP_MAX, GtMethod.MAP_AVG, GtMethod.BINARIZED_MAP)


@dataclass(frozen=True)
class GtConfig:
    gamma: float = 0.2
    beta: float = 0.5
    method: GtMethod = GtMethod.RA_SRGT
    binary_threshold: float = 128.0

    def __post_init__(self):
        reals = (
            ("gamma", lambda x: x > 0, "> 0"),
            ("beta", lambda x: x > 0, "> 0"),
            ("binary_threshold", lambda x: 0 < x < 255, "in (0, 255)"),
        )
        check_fields(self, reals=reals)
        if not isinstance(self.method, GtMethod):
            names = [m.value for m in GtMethod]
            raise ValueError(f"method must be one of {names}, got {self.method!r}")


def ranking_from_scores(scores: dict[int, float]) -> Ranking:
    """Descending score -> orders 1..k; zero score -> order 0; ties by ascending id."""
    salient = sorted(
        (pid for pid, s in scores.items() if s > 0), key=lambda pid: (-scores[pid], pid)
    )
    labels = {pid: 0 for pid in scores}
    for order, pid in enumerate(salient, start=1):
        labels[pid] = order
    return Ranking(labels)


def rank_fixation_points(scene: Scene) -> Ranking:
    scores = {
        p.id: count_fixations(p.box, scene.fixations) / sqrt_size(p.box)
        for p in scene.real_proposals
    }
    return ranking_from_scores(scores)


def map_region(gmap: GrayMap, box) -> np.ndarray:
    """Map pixels a box covers under the half-open rule (possibly empty)."""
    grid = np.frombuffer(gmap.values, dtype=np.uint8).reshape(gmap.height, gmap.width)
    return grid[math.ceil(box.y1) : math.ceil(box.y2), math.ceil(box.x1) : math.ceil(box.x2)]


def rank_fixation_map(scene: Scene, mode: str = "max") -> Ranking:
    if scene.fixation_map is None:
        raise MissingFixationMap(scene.scene_id)
    if mode not in ("max", "avg"):
        raise ValueError(f"mode must be 'max' or 'avg', got {mode!r}")
    scores = {}
    for p in scene.real_proposals:
        vals = map_region(scene.fixation_map, p.box)
        if vals.size == 0:
            scores[p.id] = 0.0
        elif mode == "max":
            scores[p.id] = float(vals.max())
        else:
            scores[p.id] = float(vals.mean())
    return ranking_from_scores(scores)


def rank_binarized_map(scene: Scene, binary_threshold: float) -> Ranking:
    if scene.fixation_map is None:
        raise MissingFixationMap(scene.scene_id)
    if not 0 < binary_threshold < 255:
        raise ValueError("binary_threshold must lie in (0, 255)")
    image_sqrt = math.sqrt(scene.width * scene.height)
    scores = {}
    for p in scene.real_proposals:
        vals = map_region(scene.fixation_map, p.box)
        white = int((vals > binary_threshold).sum())
        if vals.size == 0 or white == 0:
            scores[p.id] = 0.0
        else:
            scores[p.id] = (white / vals.size) * (sqrt_size(p.box) / image_sqrt)
    return ranking_from_scores(scores)


def _rasrgt_from_count(n_i: int, total: int, size_ratio: float, cfg: GtConfig) -> float:
    """The combined score of a box holding ``n_i`` of a scene's ``total`` fixations."""
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


def rasrgt_score(scene: Scene, proposal, cfg: GtConfig) -> float:
    """Combined score: fixation share plus gamma * e^(beta * size ratio).

    Zero fixations inside the box means zero score regardless of size.
    """
    n_i = count_fixations(proposal.box, scene.fixations)
    size_ratio = sqrt_size(proposal.box) / math.sqrt(scene.width * scene.height)
    return _rasrgt_from_count(n_i, len(scene.fixations), size_ratio, cfg)


def _rank_counts(total: int, boxes, cfg: GtConfig) -> Ranking:
    return ranking_from_scores({pid: _rasrgt_from_count(n, total, ratio, cfg) for pid, n, ratio in boxes})


def rasrgt_rank(scene: Scene, cfg: GtConfig | None = None) -> Ranking:
    return _rank_counts(*rasrgt_counts(scene), cfg or GtConfig())


def generate_ranking(scene: Scene, cfg: GtConfig) -> Ranking:
    """Dispatch on cfg.method."""
    if cfg.method is GtMethod.FIX_POINTS:
        return rank_fixation_points(scene)
    if cfg.method is GtMethod.MAP_MAX:
        return rank_fixation_map(scene, "max")
    if cfg.method is GtMethod.MAP_AVG:
        return rank_fixation_map(scene, "avg")
    if cfg.method is GtMethod.BINARIZED_MAP:
        return rank_binarized_map(scene, cfg.binary_threshold)
    return rasrgt_rank(scene, cfg)


def discrepancy_offsets(scenes, cfg_base: GtConfig, thresholds) -> list[tuple[float, int]]:
    """Total rank-order change between each pair of adjacent GT thresholds.

    For each consecutive threshold pair (t_prev, t) sums |order_t - order_t_prev|
    over every proposal of every scene.
    """
    return offsets_from_counts([rasrgt_counts(s) for s in scenes], cfg_base, thresholds)


def offsets_from_counts(counted, cfg_base: GtConfig, thresholds) -> list[tuple[float, int]]:
    """``discrepancy_offsets`` from each scene's ``rasrgt_counts``: fixation
    counts do not depend on the threshold, so each box is counted once."""
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
