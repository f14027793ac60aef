"""Offline proposal filtering and hand-crafted per-proposal feature extraction.

Filtering removes duplicate and degenerate proposals (greedy confidence-ordered
NMS plus area bounds); ``rankcore.window_batch`` pads scenes up to the window
size.  Features summarize local and enlarged-context fixation/map statistics
plus normalized geometry; they are cached as binary sidecar files.  The 14
columns, in order: the box's fixation share, relative fixation density, map
mean and max; the same share, mean and max over the box enlarged 1.5x about
its center and clipped to the image; sqrt-size ratio; center x, y; x1, y1,
x2, y2, each over the image's width or height.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .domain import BBox, Proposal, Scene, check_fields, count_fixations, iou, map_region, sqrt_size
from .errors import RankflowError
from .ingest import read_bytes, write_atomic

FEATURE_DIM = 14


@dataclass(frozen=True)
class FilterConfig:
    iou_discard: float = 0.7
    max_area_frac: float = 0.6
    min_area_px: float = 20.0

    def __post_init__(self):
        check_fields(self, reals=(
            ("iou_discard", lambda x: 0 < x <= 1, "in (0, 1]"),
            ("max_area_frac", lambda x: x > 0, "> 0"),
            ("min_area_px", lambda x: x > 0, "> 0"),
        ))


_DEFAULT_FILTER = FilterConfig()


def filter_proposals(scene: Scene, cfg: FilterConfig | None = None) -> Scene:
    """NMS + area filtering; survivor order follows the input, and any
    dummies the input lists are kept after the survivors.  A scene that keeps
    every proposal in its order is returned itself; any other gets a new
    ``Scene`` with only its proposals replaced."""
    cfg = cfg or _DEFAULT_FILTER
    real = [p for p in scene.proposals if not p.is_dummy]
    dummies = [p for p in scene.proposals if p.is_dummy]

    by_conf = sorted(real, key=lambda p: (-p.detector_confidence, p.id))
    kept: list[Proposal] = []
    for p in by_conf:
        if all(iou(p.box, q.box) <= cfg.iou_discard for q in kept):
            kept.append(p)
    kept_ids = {p.id for p in kept}

    image_area = scene.width * scene.height
    survivors = [
        p
        for p in real
        if p.id in kept_ids
        and cfg.min_area_px <= p.box.area <= cfg.max_area_frac * image_area
    ]

    out = tuple(survivors + dummies)
    return scene if out == scene.proposals else replace(scene, proposals=out)


def _map_stats(scene: Scene, box: BBox) -> tuple[float, float]:
    """Mean and max of the map under ``box``, over 255; zeros when the
    scene has no map or the box covers no whole pixel."""
    vals = None if scene.fixation_map is None else map_region(scene.fixation_map, box)
    if vals is None or not vals.size:
        return 0.0, 0.0
    return float(vals.mean()) / 255.0, float(vals.max()) / 255.0


def _context_box(b: BBox, w: int, h: int) -> BBox:
    """``b`` enlarged 1.5x about its center and clipped to the ``w`` x ``h`` image."""
    cx, cy = (b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2
    hw, hh = b.width * 1.5 / 2, b.height * 1.5 / 2
    return BBox(max(0.0, cx - hw), max(0.0, cy - hh), min(float(w), cx + hw), min(float(h), cy + hh))


def _check_finite(features: np.ndarray, where: str = "") -> np.ndarray:
    """``features`` if every value is finite, else a RankflowError naming
    the first bad row after ``where``."""
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise RankflowError(f"{where}row {bad[0]}: features must be finite")
    return features


def scene_features(scene: Scene) -> np.ndarray:
    """Feature matrix aligned with scene.proposals (n x 14): the columns the
    module docstring lists for each real proposal, zeros for each dummy.  A
    row that is not finite (a box of subnormal area holding a fixation has
    an infinite density) raises a RankflowError naming the row."""
    w, h = scene.width, scene.height
    total_fix = len(scene.fixations)
    density = total_fix / (w * h)
    out = np.zeros((len(scene.proposals), FEATURE_DIM))
    real = [(row, p.box) for row, p in zip(out, scene.proposals) if not p.is_dummy]
    grown = [_context_box(b, w, h) for _, b in real]
    counts = count_fixations([b for _, b in real] + grown, scene.fixations).tolist()
    shares = [c / total_fix for c in counts] if total_fix else [0.0] * len(counts)
    for (row, b), g, share, g_share in zip(real, grown, shares, shares[len(real) :]):
        # Fixation concentration relative to the scene-wide density, squashed to [0,1).
        rel = (share * total_fix / b.area) / density if density > 0 else 0.0
        row[:] = (share, rel / (1.0 + rel), *_map_stats(scene, b), g_share, *_map_stats(scene, g),
                  sqrt_size(b) / math.sqrt(w * h), (b.x1 + b.x2) / 2 / w, (b.y1 + b.y2) / 2 / h,
                  b.x1 / w, b.y1 / h, b.x2 / w, b.y2 / h)
    return _check_finite(out)


def write_features(features: np.ndarray, path) -> None:
    """Binary sidecar: uint32 proposal count, then little-endian float64 rows.
    A row that is not finite, which ``read_features`` would refuse, raises a
    RankflowError naming ``path`` and the row, and nothing is written."""
    _check_finite(features, f"{path}: ")
    write_atomic(path, struct.pack("<I", features.shape[0]) + features.astype("<f8").tobytes())


def read_features(path) -> np.ndarray:
    data = read_bytes(path)
    if len(data) < 4:
        raise RankflowError(f"{path}: expected a 4-byte header, got {len(data)} bytes")
    (count,) = struct.unpack("<I", data[:4])
    expected = 4 + count * FEATURE_DIM * 8
    if len(data) != expected:
        raise RankflowError(f"{path}: expected {expected} bytes, got {len(data)}")
    feats = np.frombuffer(data[4:expected], dtype="<f8").reshape(count, FEATURE_DIM).copy()
    return _check_finite(feats, f"{path}: ")
