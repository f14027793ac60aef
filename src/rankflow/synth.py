"""Seeded synthetic scene generator with known latent saliency.

Each scene gets non-overlapping boxes, a subset of salient objects with
well-separated fixation shares, multinomially distributed fixation points and
an optional Gaussian-splatted fixation map.  Latent shares are constructed so
the expected combined GT score (share + size bonus) is ordered the same way as
the shares, which gives every downstream stage an exact oracle.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .domain import BBox, GrayMap, Proposal, Scene, iou, sqrt_size
from .errors import GenerationFailure, IoFailure
from .gtgen import GtConfig, rasrgt_rank, ranking_from_scores
from .ingest import write_atomic, write_pgm, write_ranking, write_scene

_MAX_BOX_ATTEMPTS = 400
_MAX_SCENE_ATTEMPTS = 30
_MIN_SHARE = 0.01


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_scenes: int = 10
    objects_min: int = 5
    objects_max: int = 10
    width: int = 640
    height: int = 480
    fixations_per_scene: int = 200
    salient_fraction: float = 0.7
    noise_fixation_fraction: float = 0.1
    splat_sigma: float = 8.0
    box_frac_min: float = 0.10
    box_frac_max: float = 0.30
    iou_cap: float = 0.3
    min_weight_gap: float = 0.05
    gamma: float = 0.2
    beta: float = 0.5
    render_maps: bool = True

    def __post_init__(self):
        if self.objects_min > self.objects_max or self.objects_min < 1:
            raise ValueError("invalid object count range")
        if not 0 <= self.salient_fraction <= 1 or not 0 <= self.noise_fixation_fraction <= 1:
            raise ValueError("fractions must lie in [0,1]")


def _sample_boxes(cfg: SynthConfig, n: int, rng) -> list[BBox]:
    boxes: list[BBox] = []
    for _ in range(n):
        for _attempt in range(_MAX_BOX_ATTEMPTS):
            bw = rng.uniform(cfg.box_frac_min, cfg.box_frac_max) * cfg.width
            bh = rng.uniform(cfg.box_frac_min, cfg.box_frac_max) * cfg.height
            x1 = rng.uniform(0, cfg.width - bw)
            y1 = rng.uniform(0, cfg.height - bh)
            cand = BBox(x1, y1, x1 + bw, y1 + bh)
            if all(iou(cand, b) <= cfg.iou_cap for b in boxes):
                boxes.append(cand)
                break
        else:
            raise GenerationFailure("could not place a non-overlapping box")
    return boxes


def _salient_shares(cfg: SynthConfig, penalties: np.ndarray, rng) -> np.ndarray:
    """Descending fixation shares summing to 1 whose adjacent gaps exceed both
    the configured minimum and the scene's size-bonus spread, so the expected
    combined score order equals the share order."""
    k = len(penalties)
    if k == 1:
        return np.array([1.0])
    spread = float(penalties.max() - penalties.min())
    gap = max(cfg.min_weight_gap, spread + 0.02)
    # Largest gap representable with k positive shares summing to 1.
    feasible = (1.0 - k * _MIN_SHARE) / (k * (k - 1) / 2)
    gap = min(gap, 0.95 * feasible)
    base = _MIN_SHARE + gap * np.arange(k - 1, -1, -1, dtype=float)
    rest = 1.0 - base.sum()
    extra = np.sort(rng.dirichlet(np.ones(k)))[::-1] * rest
    return base + extra  # still descending with adjacent gaps >= gap


def _place_fixation(rng, box: BBox, forbidden):
    for _attempt in range(_MAX_BOX_ATTEMPTS):
        u = int(rng.integers(math.ceil(box.x1), math.ceil(box.x2)))
        v = int(rng.integers(math.ceil(box.y1), math.ceil(box.y2)))
        if all(not (b.x1 <= u < b.x2 and b.y1 <= v < b.y2) for b in forbidden):
            return u, v
    raise GenerationFailure("could not place a fixation outside other boxes")


def _render_map(cfg: SynthConfig, fixations: np.ndarray) -> bytes:
    # Imported here: map rendering is the only user, and the import costs
    # every other CLI stage a noticeable share of its start-up.
    from scipy.ndimage import gaussian_filter

    grid = np.zeros((cfg.height, cfg.width))
    np.add.at(grid, (fixations[:, 1], fixations[:, 0]), 1.0)
    grid = gaussian_filter(grid, sigma=cfg.splat_sigma)
    peak = grid.max()
    if peak > 0:
        grid = grid / peak * 255.0
    return np.round(grid).astype(np.uint8).tobytes()


def generate_scene(cfg: SynthConfig, scene_index: int):
    """Deterministic (Scene, latent_weights) for one index.

    latent_weights is aligned with the scene's proposals; 0 marks non-salient.
    """
    for attempt in range(_MAX_SCENE_ATTEMPTS):
        rng = np.random.default_rng([cfg.seed, scene_index, attempt])
        try:
            return _generate_once(cfg, scene_index, rng)
        except GenerationFailure:
            continue
    raise GenerationFailure(f"scene {scene_index}: placement kept failing")


def _generate_once(cfg: SynthConfig, scene_index: int, rng):
    n = int(rng.integers(cfg.objects_min, cfg.objects_max + 1))
    boxes = _sample_boxes(cfg, n, rng)
    image_sqrt = math.sqrt(cfg.width * cfg.height)
    k = int(round(cfg.salient_fraction * n))
    salient_idx = sorted(rng.choice(n, size=k, replace=False).tolist()) if k else []

    weights = np.zeros(n)
    if k:
        penalties = np.array(
            [cfg.gamma * math.exp(cfg.beta * sqrt_size(boxes[i]) / image_sqrt) for i in salient_idx]
        )
        shares = _salient_shares(cfg, penalties, rng)
        # Shares go to salient objects in random order; gaps larger than the
        # bonus spread keep the expected score order equal to the share order.
        assign = rng.permutation(k)
        for pos, i in enumerate(salient_idx):
            weights[i] = shares[assign[pos]]

    n_noise = int(round(cfg.noise_fixation_fraction * cfg.fixations_per_scene))
    n_target = cfg.fixations_per_scene - n_noise
    fixations = []
    if k and n_target:
        counts = rng.multinomial(n_target, weights[salient_idx] / weights[salient_idx].sum())
        for i, cnt in zip(salient_idx, counts):
            others = [boxes[j] for j in range(n) if j != i]
            for _ in range(cnt):
                u, v = _place_fixation(rng, boxes[i], others)
                fixations.append((u, v, int(rng.integers(0, 8))))
    for _ in range(n_noise):
        u = int(rng.integers(0, cfg.width))
        v = int(rng.integers(0, cfg.height))
        fixations.append((u, v, int(rng.integers(0, 8))))
    fixations = np.array(fixations, dtype=np.int64).reshape(-1, 3)

    fixation_map = None
    if cfg.render_maps:
        fixation_map = GrayMap(cfg.width, cfg.height, _render_map(cfg, fixations))

    scene = Scene(
        scene_id=f"scene_{scene_index:05d}",
        width=cfg.width,
        height=cfg.height,
        proposals=tuple(
            Proposal(id=i, box=boxes[i], detector_confidence=round(float(rng.uniform(0.5, 1.0)), 6))
            for i in range(n)
        ),
        fixations=fixations,
        fixation_map=fixation_map,
    )
    return scene, weights.tolist()


def latent_ranking(scene: Scene, weights) -> dict[int, int]:
    """Order implied by the latent weights (1 = heaviest, 0 = non-salient)."""
    return ranking_from_scores({p.id: w for p, w in zip(scene.proposals, weights)}).labels


def generate_dataset(cfg: SynthConfig, out_dir) -> dict:
    """Write scenes, maps, GT rankings, latent weights and a manifest."""
    out_dir = Path(out_dir)
    try:
        (out_dir / "scenes").mkdir(parents=True, exist_ok=True)
        if cfg.render_maps:
            (out_dir / "maps").mkdir(exist_ok=True)
    except OSError as e:
        raise IoFailure(str(e)) from e

    gt_cfg = GtConfig(gamma=cfg.gamma, beta=cfg.beta)
    manifest = {"seed": cfg.seed, "config": asdict(cfg), "scenes": []}
    rankings = []
    latent_rows = []
    for idx in range(cfg.n_scenes):
        scene, weights = generate_scene(cfg, idx)
        scene_path = out_dir / "scenes" / f"{scene.scene_id}.json"
        map_rel = None
        if cfg.render_maps:
            map_path = out_dir / "maps" / f"{scene.scene_id}.pgm"
            write_pgm(scene.fixation_map, map_path)
            map_rel = f"../maps/{scene.scene_id}.pgm"
        write_scene(scene, scene_path, fixation_map_path=map_rel)
        rankings.append((scene.scene_id, rasrgt_rank(scene, gt_cfg)))
        for p, w in zip(scene.proposals, weights):
            latent_rows.append((scene.scene_id, p.id, w))
        manifest["scenes"].append(
            {
                "scene_id": scene.scene_id,
                "scene_path": str(scene_path.relative_to(out_dir)),
                "map_path": f"maps/{scene.scene_id}.pgm" if cfg.render_maps else None,
            }
        )

    write_ranking(rankings, out_dir / "gt.csv")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scene_id", "proposal_id", "weight"])
    writer.writerows([sid, pid, repr(w)] for sid, pid, w in sorted(latent_rows))
    write_atomic(out_dir / "latent.csv", buf.getvalue())
    manifest["gt_path"] = "gt.csv"
    manifest["latent_path"] = "latent.csv"
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def read_latent(path) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for scene_id, pid, w in reader:
            out.setdefault(scene_id, {})[int(pid)] = float(w)
    return out
