"""Offline proposal filtering and hand-crafted per-proposal feature extraction.

Filtering removes duplicate and degenerate proposals (greedy confidence-ordered
NMS plus area bounds) and pads with dummy proposals up to the minimum window
size.  Features summarize local and enlarged-context fixation/map statistics
plus normalized geometry; they are cached as binary sidecar files.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .domain import BBox, Proposal, Scene, check_fields, count_fixations, iou, map_region, sqrt_size
from .errors import TruncatedData, UnsupportedFormat
from .ingest import read_bytes, write_atomic

FEATURE_DIM = 14


@dataclass(frozen=True)
class FilterConfig:
    iou_discard: float = 0.7
    max_area_frac: float = 0.6
    min_area_px: float = 20.0
    min_count: int = 5

    def __post_init__(self):
        reals = (
            ("iou_discard", lambda x: 0 < x <= 1, "in (0, 1]"),
            ("max_area_frac", lambda x: x > 0, "> 0"),
            ("min_area_px", lambda x: x > 0, "> 0"),
        )
        check_fields(self, (("min_count", 1),), reals)


def filter_proposals(scene: Scene, cfg: FilterConfig | None = None) -> Scene:
    """NMS + area filtering + dummy padding; survivor order follows the input."""
    cfg = cfg or FilterConfig()
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

    out = survivors + dummies
    next_dummy_id = min((p.id for p in scene.proposals), default=0)
    while len(out) < cfg.min_count:
        next_dummy_id -= 1
        out.append(Proposal(id=next_dummy_id, box=None, is_dummy=True))
    return replace(scene, proposals=tuple(out))


def _global_box(scene: Scene, box: BBox) -> BBox:
    """Box enlarged 1.5x about its center, clipped to the image."""
    cx = (box.x1 + box.x2) / 2
    cy = (box.y1 + box.y2) / 2
    hw = box.width * 1.5 / 2
    hh = box.height * 1.5 / 2
    return BBox(
        max(0.0, cx - hw),
        max(0.0, cy - hh),
        min(float(scene.width), cx + hw),
        min(float(scene.height), cy + hh),
    )


def _region_stats(scene: Scene, box: BBox, total_fix: int):
    share = count_fixations(box, scene.fixations) / total_fix if total_fix else 0.0
    if scene.fixation_map is not None:
        vals = map_region(scene.fixation_map, box)
        map_mean = float(vals.mean()) / 255.0 if vals.size else 0.0
        map_max = float(vals.max()) / 255.0 if vals.size else 0.0
    else:
        map_mean = map_max = 0.0
    return share, map_mean, map_max


def extract_features(scene: Scene, proposal: Proposal) -> np.ndarray:
    """14-entry descriptor; all zeros for dummy proposals."""
    if proposal.is_dummy:
        return np.zeros(FEATURE_DIM)
    box = proposal.box
    total_fix = len(scene.fixations)
    image_area = scene.width * scene.height

    fix_share_local, map_mean_local, map_max_local = _region_stats(scene, box, total_fix)
    gbox = _global_box(scene, box)
    fix_share_global, map_mean_global, map_max_global = _region_stats(scene, gbox, total_fix)

    # Fixation concentration relative to the scene-wide density, squashed to [0,1).
    scene_density = total_fix / image_area
    if scene_density > 0:
        rel = (fix_share_local * total_fix / box.area) / scene_density
        fix_density_local = rel / (1.0 + rel)
    else:
        fix_density_local = 0.0

    return np.array(
        [
            fix_share_local,
            fix_density_local,
            map_mean_local,
            map_max_local,
            fix_share_global,
            map_mean_global,
            map_max_global,
            sqrt_size(box) / math.sqrt(image_area),
            (box.x1 + box.x2) / 2 / scene.width,
            (box.y1 + box.y2) / 2 / scene.height,
            box.x1 / scene.width,
            box.y1 / scene.height,
            box.x2 / scene.width,
            box.y2 / scene.height,
        ]
    )


def scene_features(scene: Scene) -> np.ndarray:
    """Feature matrix aligned with scene.proposals (n x 14)."""
    return np.stack([extract_features(scene, p) for p in scene.proposals])


def write_features(features: np.ndarray, path) -> None:
    """Binary sidecar: uint32 proposal count, then little-endian float64 rows."""
    write_atomic(path, struct.pack("<I", features.shape[0]) + features.astype("<f8").tobytes())


def read_features(path) -> np.ndarray:
    data = read_bytes(path)
    if len(data) < 4:
        raise TruncatedData(f"{path}: expected a 4-byte header, got {len(data)} bytes")
    (count,) = struct.unpack("<I", data[:4])
    expected = 4 + count * FEATURE_DIM * 8
    if len(data) != expected:
        kind = TruncatedData if len(data) < expected else UnsupportedFormat
        raise kind(f"{path}: expected {expected} bytes, got {len(data)}")
    feats = np.frombuffer(data[4:expected], dtype="<f8").reshape(count, FEATURE_DIM).copy()
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise UnsupportedFormat(f"{path}: row {bad[0]}: features must be finite")
    return feats
