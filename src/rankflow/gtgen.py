"""Ground-truth saliency rank-order generation.

Five methods, each a plain name in ``METHODS``: raw fixation-point counting
(``fixpoints``), fixation-map max and mean statistics (``mapmax``,
``mapavg``), binarized-map white-pixel ratios (``binmap``), and the
relationship-aware combined score, fixation share plus a size-dependent
exponential bonus (``rasrgt``).  Each method gives one score per box, and
``ranking_from_scores`` is the one rule that turns scores into a ranking.
Also provides the threshold-discrepancy analysis between adjacent GT
thresholds, which counts each box's fixations once and re-scores the counts
at every gamma.  ``GtConfig`` is the one checker of gamma and beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .domain import Ranking, Scene, check_fields, count_fixations, map_region, sqrt_size
from .errors import RankflowError

METHODS = ("fixpoints", "mapmax", "mapavg", "binmap", "rasrgt")
MAP_METHODS = ("mapmax", "mapavg", "binmap")  # the methods that read the fixation map
# e^(beta * size ratio) must stay finite: a box lies inside its image, so its
# size ratio is at most 1, and e^700 is below the largest double (about e^709.8).
MAX_BETA = 700


@dataclass(frozen=True)
class GtConfig:
    gamma: float = 0.2
    beta: float = 0.5
    method: str = "rasrgt"
    binary_threshold: float = 128.0

    def __post_init__(self):
        reals = (
            ("gamma", lambda x: x > 0, "> 0"),
            ("beta", lambda x: 0 < x <= MAX_BETA, f"in (0, {MAX_BETA}]"),
            ("binary_threshold", lambda x: 0 < x < 255, "in (0, 255)"),
        )
        check_fields(self, reals=reals)
        # the largest size bonus (size ratio 1) must be finite, or fixated boxes score inf and rank by id
        if not math.isfinite(float(self.gamma) * math.exp(self.beta)):
            raise RankflowError(f"gamma * e^beta must be finite, got gamma {self.gamma!r} and beta {self.beta!r}")
        if self.method not in METHODS:
            raise RankflowError(f"method must be one of {list(METHODS)}, got {self.method!r}")


_DEFAULT_GT = GtConfig()


def ranking_from_scores(scores: dict[int, float]) -> Ranking:
    """Descending score -> orders 1..k; zero score -> order 0; ties by ascending id."""
    salient = sorted(
        (pid for pid, s in scores.items() if s > 0), key=lambda pid: (-scores[pid], pid)
    )
    labels = {pid: 0 for pid in scores}
    for order, pid in enumerate(salient, start=1):
        labels[pid] = order
    return Ranking(labels)


def _map_score(scene: Scene, box, cfg: GtConfig) -> float:
    """A box's score under a map method: the max or mean of the map under
    it, or its share of map pixels above ``binary_threshold`` times its
    sqrt-size ratio to the image."""
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
    fixation total and, per real box, ``(id, fixation count, size ratio)``.
    Every box is counted in one ``count_fixations`` call."""
    image_sqrt = math.sqrt(scene.width * scene.height)
    real = scene.real_proposals
    counts = count_fixations([p.box for p in real], scene.fixations).tolist()
    return len(scene.fixations), [(p.id, n, sqrt_size(p.box) / image_sqrt) for p, n in zip(real, counts)]


def _rank_counts(total: int, boxes, cfg: GtConfig) -> Ranking:
    return ranking_from_scores({pid: rasrgt_score(n, total, ratio, cfg) for pid, n, ratio in boxes})


def rasrgt_rank(scene: Scene, cfg: GtConfig | None = None) -> Ranking:
    return _rank_counts(*rasrgt_counts(scene), cfg or _DEFAULT_GT)


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
    real = scene.real_proposals
    if cfg.method == "fixpoints":
        counts = count_fixations([p.box for p in real], scene.fixations).tolist()
        return ranking_from_scores({p.id: n / sqrt_size(p.box) for p, n in zip(real, counts)})
    require_map(scene)
    return ranking_from_scores({p.id: _map_score(scene, p.box, cfg) for p in real})


def discrepancy_offsets(counted, cfg_base: GtConfig, thresholds) -> list[tuple[float, int]]:
    """Total rank-order change between each pair of adjacent GT thresholds,
    from each scene's ``rasrgt_counts``: fixation counts do not depend on
    the threshold, so each box is counted once.

    For each consecutive threshold pair (t_prev, t) sums |order_t - order_t_prev|
    over every proposal of every scene.
    """
    out, prev = [], None
    for t in thresholds:
        cfg = replace(cfg_base, gamma=t)
        cur = [_rank_counts(total, boxes, cfg).labels for total, boxes in counted]
        if prev is not None:
            out.append((t, sum(abs(now[pid] - was[pid]) for now, was in zip(cur, prev) for pid in now)))
        prev = cur
    return out
