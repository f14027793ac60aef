"""Seeded synthetic scene generator with known latent saliency.

Each scene gets non-overlapping boxes, a subset of salient objects with
well-separated fixation shares, multinomially distributed fixation points
(noise fixations are uniform over the image) and an optional
Gaussian-splatted fixation map.  Latent shares are constructed so
the expected combined GT score (share + size bonus) is ordered the same way as
the shares, which gives every downstream stage an exact oracle.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import BBox, Proposal, Scene, check_fields, iou, sqrt_size
from .errors import GenerationFailure, RankflowError
from .gtgen import GtConfig, rasrgt_rank, ranking_from_scores
from .ingest import publish_dirs, write_atomic, write_csv, write_pgm, write_ranking, write_scene
from .pipeline import parallel_map

_MAX_BOX_ATTEMPTS = 400
_MAX_SCENE_ATTEMPTS = 30
_MIN_SHARE = 0.01
# The kernel has about 8 sigma taps, so sigma bounds the filter's cost.  A map
# is flat (every pixel 255) once sigma is 1.3 times the image's longer side
# (measured; one fixation in a corner is the worst case), so this admits every
# sigma that changes a map of up to 760 px a side, the default 640 x 480 too.
_MAX_SPLAT_SIGMA = 1000
# A float64 blur buffer holds side^2 x 8 B, 128 MiB at 4096 px a side; a map's
# two passes peak near 2.1 such buffers (measured), plus 2 x 4000 pad rows of
# side x 8 B (250 MiB) at the sigma bound: about 520 MiB per worker.
_MAX_SIDE = 4096
# Parsing a scene holds about 350 B per fixation (measured): 350 MB at the bound.
_MAX_FIXATIONS = 1_000_000
# A scene that cannot be placed makes 30 attempts of up to 400 draws per box,
# each draw ~7 us and tested against up to n - 1 boxes at ~2 us an IoU
# (measured): 12,000 x (7n + n^2) us, 15 s at 32 objects (54 s at 64).  Seen:
# 64 x 64 images failed after 0.24 s at 64 objects and 4.5 s at 160.
_MAX_OBJECTS = 32


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings; every field is checked on construction, and a bad
    one raises a RankflowError naming it."""

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
            ("seed", 0), ("n_scenes", 1), ("objects_min", 1), ("objects_max", 1, _MAX_OBJECTS),
            ("width", 1, _MAX_SIDE), ("height", 1, _MAX_SIDE), ("fixations_per_scene", 0, _MAX_FIXATIONS),
        )
        reals = (
            ("salient_fraction", lambda x: 0 <= x <= 1, "in [0, 1]"),
            ("noise_fixation_fraction", lambda x: 0 <= x <= 1, "in [0, 1]"),
            ("splat_sigma", lambda x: 0 < x <= _MAX_SPLAT_SIGMA, f"in (0, {_MAX_SPLAT_SIGMA}]"),
            ("box_frac_min", lambda x: 0 < x <= 1, "in (0, 1]"),
            ("box_frac_max", lambda x: 0 < x <= 1, "in (0, 1]"),
            ("iou_cap", lambda x: 0 <= x <= 1, "in [0, 1]"),
            ("min_weight_gap", lambda x: x >= 0, ">= 0"),
        )
        check_fields(self, integers, reals)
        GtConfig(gamma=self.gamma, beta=self.beta)  # the weight draw scores boxes as rasrgt does
        for low, high in (("objects_min", "objects_max"), ("box_frac_min", "box_frac_max")):
            if getattr(self, high) < getattr(self, low):
                raise RankflowError(f"{high} must be >= {low} ({getattr(self, low)!r}), got {getattr(self, high)!r}")
        if not isinstance(self.render_maps, bool):
            raise RankflowError(f"render_maps must be true or false, got {self.render_maps!r}")


def _sample_boxes(cfg: SynthConfig, n: int, rng) -> list[BBox]:
    """``n`` boxes, each drawn until its IoU with every box before it is
    at most ``iou_cap``.  An attempt takes its four doubles from one
    ``rng.random(4)`` call and scales each as ``Generator.uniform`` does,
    ``low + (high - low) * u``: width and height fractions, then x1, y1."""
    lo, hi = cfg.box_frac_min, cfg.box_frac_max
    boxes: list[BBox] = []
    for _ in range(n):
        for _attempt in range(_MAX_BOX_ATTEMPTS):
            fw, fh, fx, fy = rng.random(4).tolist()
            bw = (lo + (hi - lo) * fw) * cfg.width
            bh = (lo + (hi - lo) * fh) * cfg.height
            x1 = (cfg.width - bw) * fx  # low is 0
            y1 = (cfg.height - bh) * fy
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


def _coverage(boxes, height: int, width: int) -> tuple[list[tuple[int, int, int, int]], np.ndarray]:
    """Each box's whole pixels as ``(x1, y1, x2, y2)`` slice bounds (an
    integer u lies in [b.x1, b.x2) exactly when it lies in [ceil b.x1,
    ceil b.x2)), and the ``(height, width)`` int8 table of how many boxes
    cover each pixel (``_MAX_OBJECTS`` fits in int8)."""
    extents = [(math.ceil(b.x1), math.ceil(b.y1), math.ceil(b.x2), math.ceil(b.y2)) for b in boxes]
    cover = np.zeros((height, width), dtype=np.int8)
    for x1, y1, x2, y2 in extents:
        cover[y1:y2, x1:x2] += 1
    return extents, cover


def _place_fixations(rng, cover: np.ndarray, extents, counts) -> np.ndarray:
    """``(sum(counts), 3)`` rows (u, v, observer), box by box: ``counts[i]``
    pixels drawn uniformly from the free pixels of the box of pixel
    ``extents[i]`` (those no other box covers, coverage 1 in the scene's
    ``_coverage`` table) in row-major order, then as many observers drawn
    uniformly from 0..7.  Every draw comes from one ``rng.integers`` call
    with a bound per draw, which takes the same generator words as a pixel
    call and an observer call per box.  A box with count 0 draws nothing;
    a box with a count and no free pixel fails placement before anything
    is drawn, and the scene is drawn again."""
    placed = [(extent, cnt) for extent, cnt in zip(extents, counts) if cnt]
    free = [np.flatnonzero(cover[y1:y2, x1:x2] == 1) for (x1, y1, x2, y2), _ in placed]
    if not all(f.size for f in free):
        raise GenerationFailure("a box holds no whole pixel outside the other boxes")
    # Per box: cnt draws bounded by its free pixels, then cnt bounded by 8.
    draws = rng.integers(0, np.repeat([(f.size, 8) for f in free], [n for _, c in placed for n in (c, c)]))
    out = np.empty((len(draws) // 2, 3), dtype=np.int64)
    at = 0
    for ((x1, y1, x2, _), cnt), f in zip(placed, free):
        rows, drawn = out[at : at + cnt], draws[2 * at : 2 * (at + cnt)]
        np.divmod(f[drawn[:cnt]], x2 - x1, out=(rows[:, 1], rows[:, 0]))
        rows[:, :2] += (x1, y1)
        rows[:, 2] = drawn[cnt:]
        at += cnt
    return out


# numpy's bundled OpenBLAS runs a matrix product on one thread when m * n * k
# is at most this (other BLAS builds have other rules; only OpenBLAS was measured).
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


def _padded_shape(n: int, m: int, r: int) -> tuple[int, int]:
    """Shape of the buffer for filtering ``n`` rows of ``m`` columns with
    radius ``r``: ``r`` pad rows either side, rounded up to whole blocks and chunks."""
    b, c = _blocks(n, m, r)
    return -(-n // b) * b + 2 * r, -(-max(m, 1) // c) * c


@lru_cache(maxsize=1)
def _work_buffers(h: int, w: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat padded-input and product buffers of ``_blur`` on an ``h`` x
    ``w`` image at radius ``r``, each as large as the larger pass needs: the
    first pass at any count of columns up to ``w`` (its size is not monotone
    in that count), or the second.  One pair is held; a new size frees it.

    The buffers are load-bearing.  Measured on 2 vCPUs, with fresh arrays per
    map instead, ``synth --scenes 200 --objects 5:9 --fixations 1000 --jobs 2``
    made 409k minor page faults, not 63k, and its median CPU time over 8
    alternating runs rose from 1.42 to 1.68 s, the maps byte-identical."""
    shapes = [_padded_shape(h, m, r) for m in range(1, w + 1)] + [_padded_shape(w, h, r)]
    return np.empty(max(a * b for a, b in shapes)), np.empty(max((a - 2 * r) * b for a, b in shapes))


def _padded(buf: np.ndarray, n: int, m: int, r: int) -> np.ndarray:
    """Zeroed view of ``buf`` of ``_padded_shape``, for ``n`` rows of ``m``
    columns at rows ``r .. r + n - 1``."""
    rows, cols = _padded_shape(n, m, r)
    padded = buf[: rows * cols].reshape(rows, cols)
    padded.fill(0.0)
    return padded


def _correlate_rows(padded: np.ndarray, weights: np.ndarray, n: int, m: int, buf: np.ndarray) -> np.ndarray:
    """``weights`` correlated down the rows of a ``_padded`` buffer with the
    ``reflect`` boundary, into a view of ``buf``; the result is the ``[:n, :m]``
    corner.  The products write every element of the view, so ``buf`` is not
    zeroed first.

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
    out = buf[: padded[2 * r :].size].reshape(-1, padded.shape[1])
    windows = sliding_window_view(padded, (b + 2 * r, c))[::b, ::c]
    np.matmul(band, windows, out=out.reshape(-1, b, out.shape[1] // c, c).transpose(0, 2, 1, 3))
    return out


def _blur(cfg: SynthConfig, fixations: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The fixation counts through ``gaussian_filter``'s two passes; the
    result is transposed, ``(width, height)``, and is a view of a work buffer
    that the next call overwrites.

    Each line is filtered on its own, so the first pass runs only on the
    columns that hold a fixation: the others are zero and stay zero. The
    second pass runs on the transpose, so both correlate down rows.

    Both passes work in the same two ``_work_buffers``, one for the padded
    input and one for the product, held for the life of the process, so a
    map costs no fresh pages once the first map of its size is done.  They
    are not thread-safe: rankflow renders in one thread per process.  At
    the ``splat_sigma`` bound on a 640 x 480 image the padded buffer is
    about 43 MB (the product 2.5 MB), held as long as the worker lives.
    """
    h, w = cfg.height, cfg.width
    r = len(weights) // 2
    pad_buf, out_buf = _work_buffers(h, w, r)
    cols, col_of = np.unique(fixations[:, 0], return_inverse=True)
    padded = _padded(pad_buf, h, len(cols), r)
    np.add.at(padded, (fixations[:, 1] + r, col_of), 1.0)
    down = _correlate_rows(padded, weights, h, len(cols), out_buf)
    padded = _padded(pad_buf, w, h, r)  # row r + x holds column x
    padded[cols + r, :h] = down[:h, : len(cols)].T
    return _correlate_rows(padded, weights, w, h, out_buf)[:w, :h]


def _render_map(cfg: SynthConfig, fixations: np.ndarray) -> np.ndarray:
    """Counts blurred as by scipy's ``gaussian_filter(counts, splat_sigma)``
    (the taps of ``_gaussian_weights``, one pass per axis, ``reflect``
    boundary), scaled so the peak is 255 and rounded half to even in place
    (``np.rint``, what ``np.round`` does at 0 decimals), in numpy alone.

    The block products sum in another order than scipy, so a value within a
    few ulps of a rounding tie (``k + 0.5``) may round the other way: a map
    is within one gray level of scipy's, and equal to it elsewhere.
    ``tests/test_synth.py`` checks the bound on images from 1x1 to 640x480
    and sigma 0.7 to 20, and pins one such tie.
    """
    grid = _blur(cfg, fixations, _gaussian_weights(cfg.splat_sigma))
    peak = grid.max()
    if peak > 0:
        grid /= peak
        grid *= 255.0
    return np.rint(grid, out=grid).astype(np.uint8).T


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
    raise GenerationFailure(
        f"scene {scene_index}: placement kept failing for {cfg.objects_min}..{cfg.objects_max} objects"
    )


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
        extents, cover = _coverage(boxes, cfg.height, cfg.width)
        fixations.append(_place_fixations(rng, cover, [extents[i] for i in salient_idx], counts))
    fixations.append(rng.integers((0, 0, 0), (cfg.width, cfg.height, 8), size=(n_noise, 3)))
    fixations = np.concatenate(fixations)

    scene = Scene(
        scene_id=f"scene_{scene_index:05d}",
        width=cfg.width,
        height=cfg.height,
        proposals=tuple(
            Proposal(id=i, box=b, detector_confidence=round(c, 6))
            for i, (b, c) in enumerate(zip(boxes, rng.uniform(0.5, 1.0, n).tolist()))
        ),
        fixations=fixations,
        fixation_map=_render_map(cfg, fixations) if cfg.render_maps else None,
    )
    return scene, weights.tolist()


def latent_ranking(scene: Scene, weights) -> dict[int, int]:
    """Order implied by the latent weights (1 = heaviest, 0 = non-salient)."""
    return ranking_from_scores({p.id: w for p, w in zip(scene.proposals, weights)}).labels


def _write_one(idx: int, cfg: SynthConfig, gt: GtConfig, out_dir: Path):
    """Generate and write one scene (and its map) under ``out_dir``; returns
    its gt.csv rows, ranked under ``gt``, and its latent.csv and manifest rows."""
    scene, weights = generate_scene(cfg, idx)
    scene_path, map_path = f"scenes/{scene.scene_id}.json", None
    if cfg.render_maps:
        map_path = f"maps/{scene.scene_id}.pgm"
        write_pgm(scene.fixation_map, out_dir / map_path)
    write_scene(scene, out_dir / scene_path, fixation_map_path=f"../{map_path}" if map_path else None)
    ranking = rasrgt_rank(scene, gt)
    latent = [(scene.scene_id, p.id, repr(w)) for p, w in zip(scene.proposals, weights)]
    entry = {"scene_id": scene.scene_id, "scene_path": scene_path, "map_path": map_path}
    return (scene.scene_id, ranking), latent, entry


def generate_dataset(cfg: SynthConfig, out_dir, jobs: int = 1) -> dict:
    """Write scenes, maps, GT rankings, latent weights and a manifest.

    Each scene is seeded on its own (``generate_scene``), so scenes are
    generated and written on ``jobs`` workers into a staging
    directory that ``publish_dirs`` puts in place of ``scenes/`` and
    ``maps/`` (empty without ``render_maps``) only once every scene is done,
    so a failed run leaves ``out_dir`` as it was.  The files that list every
    scene are written here, in scene order, so the output does not depend
    on ``jobs``.
    """
    out_dir = Path(out_dir)
    with publish_dirs(out_dir, "scenes", "maps") as staging:
        write = partial(_write_one, cfg=cfg, gt=GtConfig(gamma=cfg.gamma, beta=cfg.beta), out_dir=staging)
        rows = parallel_map(write, range(cfg.n_scenes), jobs)
    write_ranking([ranking for ranking, _, _ in rows], out_dir / "gt.csv")
    latent = sorted(row for _, scene_rows, _ in rows for row in scene_rows)
    write_csv(out_dir / "latent.csv", ["scene_id", "proposal_id", "weight"], latent)
    manifest = {"seed": cfg.seed, "config": asdict(cfg), "scenes": [entry for _, _, entry in rows],
                "gt_path": "gt.csv", "latent_path": "latent.csv"}
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
