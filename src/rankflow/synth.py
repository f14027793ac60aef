"""Seeded synthetic scene generator with known latent saliency.

Each scene gets non-overlapping boxes, a subset of salient objects with
well-separated fixation shares, multinomially distributed fixation points and
an optional Gaussian-splatted fixation map.  Latent shares are constructed so
the expected combined GT score (share + size bonus) is ordered the same way as
the shares, which gives every downstream stage an exact oracle.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import BBox, Proposal, Scene, check_fields, iou, sqrt_size
from .errors import GenerationFailure
from .gtgen import GtConfig, rasrgt_rank, ranking_from_scores
from .ingest import publish_dirs, write_atomic, write_csv, write_pgm, write_ranking, write_scene
from .pipeline import parallel_map

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
        integers = (
            ("seed", 0), ("n_scenes", 1), ("objects_min", 1), ("objects_max", self.objects_min),
            ("width", 1), ("height", 1), ("fixations_per_scene", 0),
        )
        reals = (
            ("salient_fraction", lambda x: 0 <= x <= 1, "in [0, 1]"),
            ("noise_fixation_fraction", lambda x: 0 <= x <= 1, "in [0, 1]"),
            ("splat_sigma", lambda x: x > 0, "> 0"),
            ("box_frac_min", lambda x: 0 < x <= 1, "in (0, 1]"),
            ("box_frac_max", lambda x: self.box_frac_min <= x <= 1, "in [box_frac_min, 1]"),
            ("iou_cap", lambda x: 0 <= x <= 1, "in [0, 1]"),
            ("min_weight_gap", lambda x: x >= 0, ">= 0"),
            ("gamma", lambda x: x > 0, "> 0"),
            ("beta", lambda x: x > 0, "> 0"),
        )
        check_fields(self, integers, reals)
        if not isinstance(self.render_maps, bool):
            raise ValueError(f"render_maps must be true or false, got {self.render_maps!r}")


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


def _place_fixations(rng, box: BBox, others, cnt: int) -> np.ndarray:
    """``cnt`` (u, v, observer) rows: each pixel drawn uniformly from the
    whole pixels of ``box`` that no box in ``others`` covers, each observer
    uniformly from 0..7. ``cnt == 0`` gives no rows and draws nothing.

    An integer u lies in [b.x1, b.x2) exactly when it lies in
    [ceil b.x1, ceil b.x2), so one table of the box's free pixels replaces
    the test against every other box.
    """
    if not cnt:
        return np.zeros((0, 3), dtype=np.int64)
    x1, x2, y1, y2 = (math.ceil(c) for c in (box.x1, box.x2, box.y1, box.y2))
    w = x2 - x1
    table = np.ones((y2 - y1, w), dtype=bool)
    for b in others:
        cols = slice(max(math.ceil(b.x1) - x1, 0), max(math.ceil(b.x2) - x1, 0))
        table[max(math.ceil(b.y1) - y1, 0) : max(math.ceil(b.y2) - y1, 0), cols] = False
    free = np.flatnonzero(table)
    if not free.size:
        raise GenerationFailure("a box holds no whole pixel outside the other boxes")
    pick = free[rng.integers(0, free.size, cnt)]
    return np.column_stack([x1 + pick % w, y1 + pick // w, rng.integers(0, 8, cnt)])


# numpy's bundled OpenBLAS runs a matrix product on one thread when m * n * k
# is at most this (other BLAS builds have other rules).
_ONE_THREAD_GEMM = 65536 * 4


def _gaussian_weights(sigma: float) -> np.ndarray:
    """scipy.ndimage's order-0 Gaussian taps: radius int(4 sigma + 0.5), sum 1."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return phi / phi.sum()


def _fold(n: int, r: int) -> np.ndarray:
    """The index that each of positions -r .. n + r - 1 reads under
    scipy.ndimage's ``reflect`` boundary, folding as often as a short axis needs."""
    i = np.arange(-r, n + r) % (2 * n)
    return np.where(i < n, i, 2 * n - 1 - i)


def _blocks(n: int, m: int, r: int) -> tuple[int, int]:
    """Rows per block ``b`` and columns per chunk ``c`` for filtering ``n``
    rows of ``m`` columns with radius ``r``: each product
    ``(b, b + 2r) @ (b + 2r, c)`` stays within ``_ONE_THREAD_GEMM``."""
    m = max(m, 1)
    c = min(m, max(1, _ONE_THREAD_GEMM // (2 * r + 2)))
    c = -(-m // -(-m // c))  # equal chunks
    b = max(1, min(n, math.isqrt(r * r + _ONE_THREAD_GEMM // c) - r))
    return b, c


def _padded(n: int, m: int, r: int) -> np.ndarray:
    """Zeroed buffer for ``n`` rows of ``m`` columns at rows ``r .. r + n - 1``,
    ``r`` pad rows either side, rounded up to whole blocks and chunks."""
    b, c = _blocks(n, m, r)
    return np.zeros((-(-n // b) * b + 2 * r, -(-max(m, 1) // c) * c))


def _correlate_rows(padded: np.ndarray, weights: np.ndarray, n: int, m: int) -> np.ndarray:
    """``weights`` correlated down the rows of a ``_padded`` buffer with the
    ``reflect`` boundary; the result is the ``[:n, :m]`` corner.

    Every block of ``b`` output rows is one small product with the same
    banded ``(b, b + 2r)`` matrix, so memory grows with ``r``, not with ``n``
    squared, and no product is large enough for OpenBLAS to start threads.
    """
    r = len(weights) // 2
    fold = _fold(n, r) + r  # fill the pad rows as the ``reflect`` boundary reads them
    padded[:r] = padded[fold[:r]]
    padded[n + r : n + 2 * r] = padded[fold[n + r :]]
    b, c = _blocks(n, m, r)
    band = np.zeros((b, b + 2 * r))
    band[np.arange(b)[:, None], np.arange(b)[:, None] + np.arange(2 * r + 1)] = weights
    out = np.empty((padded.shape[0] - 2 * r, padded.shape[1]))
    windows = sliding_window_view(padded, (b + 2 * r, c))[::b, ::c]
    np.matmul(band, windows, out=out.reshape(-1, b, out.shape[1] // c, c).transpose(0, 2, 1, 3))
    return out


def _blur(cfg: SynthConfig, fixations: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The fixation counts through ``gaussian_filter``'s two passes; the
    result is transposed, ``(width, height)``.

    Each line is filtered on its own, so the first pass runs only on the
    columns that hold a fixation: the others are zero and stay zero. The
    second pass runs on the transpose, so both correlate down rows.
    """
    h, w = cfg.height, cfg.width
    r = len(weights) // 2
    cols, col_of = np.unique(fixations[:, 0], return_inverse=True)
    # Each buffer is dropped as soon as it is spent, to keep the peak low.
    padded = _padded(h, len(cols), r)
    np.add.at(padded, (fixations[:, 1] + r, col_of), 1.0)
    down = _correlate_rows(padded, weights, h, len(cols))
    del padded
    padded = _padded(w, h, r)  # row r + x holds column x
    padded[cols + r, :h] = down[:h, : len(cols)].T
    del down
    return _correlate_rows(padded, weights, w, h)[:w, :h]


def _render_map(cfg: SynthConfig, fixations: np.ndarray) -> np.ndarray:
    """Counts blurred as by scipy's ``gaussian_filter(counts, splat_sigma)``
    (the taps of ``_gaussian_weights``, one pass per axis, ``reflect``
    boundary), scaled so the peak is 255 and rounded.

    The block products sum in another order than scipy, so a value within a
    few ulps of a rounding tie (``k + 0.5``) may round the other way: a map
    is within one gray level of scipy's, and equal to it elsewhere.
    """
    grid = _blur(cfg, fixations, _gaussian_weights(cfg.splat_sigma))
    peak = grid.max()
    if peak > 0:
        grid /= peak
        grid *= 255.0
    return np.round(grid).astype(np.uint8).T


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
            fixations.append(_place_fixations(rng, boxes[i], others, cnt))
    fixations.append(rng.integers((0, 0, 0), (cfg.width, cfg.height, 8), size=(n_noise, 3)))
    fixations = np.concatenate(fixations)

    scene = Scene(
        scene_id=f"scene_{scene_index:05d}",
        width=cfg.width,
        height=cfg.height,
        proposals=tuple(
            Proposal(id=i, box=boxes[i], detector_confidence=round(float(rng.uniform(0.5, 1.0)), 6))
            for i in range(n)
        ),
        fixations=fixations,
        fixation_map=_render_map(cfg, fixations) if cfg.render_maps else None,
    )
    return scene, weights.tolist()


def latent_ranking(scene: Scene, weights) -> dict[int, int]:
    """Order implied by the latent weights (1 = heaviest, 0 = non-salient)."""
    return ranking_from_scores({p.id: w for p, w in zip(scene.proposals, weights)}).labels


def _write_one(idx: int, cfg: SynthConfig, out_dir: Path):
    """Generate and write one scene (and its map) under ``out_dir``; returns
    its gt.csv, latent.csv and manifest rows."""
    scene, weights = generate_scene(cfg, idx)
    scene_path, map_path = f"scenes/{scene.scene_id}.json", None
    if cfg.render_maps:
        map_path = f"maps/{scene.scene_id}.pgm"
        write_pgm(scene.fixation_map, out_dir / map_path)
    write_scene(scene, out_dir / scene_path, fixation_map_path=f"../{map_path}" if map_path else None)
    ranking = rasrgt_rank(scene, GtConfig(gamma=cfg.gamma, beta=cfg.beta))
    latent = [(scene.scene_id, p.id, repr(w)) for p, w in zip(scene.proposals, weights)]
    entry = {"scene_id": scene.scene_id, "scene_path": scene_path, "map_path": map_path}
    return (scene.scene_id, ranking), latent, entry


def generate_dataset(cfg: SynthConfig, out_dir, jobs: int = 1) -> dict:
    """Write scenes, maps, GT rankings, latent weights and a manifest.

    Scenes are generated and written on ``jobs`` workers into a staging
    directory that ``publish_dirs`` puts in place of ``scenes/`` and
    ``maps/`` (empty without ``render_maps``) only once every scene is done,
    so a failed run leaves ``out_dir`` as it was.  The files that list every
    scene are written here, in scene order, so the output does not depend
    on ``jobs``.
    """
    out_dir = Path(out_dir)
    with publish_dirs(out_dir, "scenes", "maps") as staging:
        rows = parallel_map(partial(_write_one, cfg=cfg, out_dir=staging), range(cfg.n_scenes), jobs)
    write_ranking([ranking for ranking, _, _ in rows], out_dir / "gt.csv")
    latent = sorted(row for _, scene_rows, _ in rows for row in scene_rows)
    write_csv(out_dir / "latent.csv", ["scene_id", "proposal_id", "weight"], latent)
    manifest = {"seed": cfg.seed, "config": asdict(cfg), "scenes": [entry for _, _, entry in rows],
                "gt_path": "gt.csv", "latent_path": "latent.csv"}
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
