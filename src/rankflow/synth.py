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
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import BBox, GrayMap, Proposal, Scene, check_fields, iou, sqrt_size
from .errors import GenerationFailure, IoFailure
from .gtgen import GtConfig, rasrgt_rank, ranking_from_scores
from .ingest import read_text, write_atomic, write_pgm, write_ranking, write_scene
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


def _offsets(words: np.ndarray, span) -> np.ndarray:
    """What ``rng.integers(0, span)`` makes of each raw 32-bit word, or -1
    where it rejects the word and takes the next one; ``span`` may be a
    column of spans, one output row each.

    For ``1 < span < 2**32`` numpy uses Lemire's method: it returns
    ``w * span >> 32`` unless the low 32 bits of ``w * span`` are below
    ``(2**32 - span) % span``. So a power-of-two span rejects no word, and a
    span of 1 draws no word at all: its row here is all 0 and not a draw.
    """
    span = np.asarray(span, dtype=np.uint64)
    m = words.astype(np.uint64) * span
    out = (m >> np.uint64(32)).astype(np.int64)
    out[(m & np.uint64(2**32 - 1)) < (2**32 - span) % span] = -1
    return out


def _place_fixations(rng, box: BBox, others, cnt: int) -> list[tuple[int, int, int]]:
    """``cnt`` (u, v, observer) rows inside ``box`` and outside every box in
    ``others``, each point redrawn up to _MAX_BOX_ATTEMPTS times.

    The rows and the generator's final state are those of the scalar loop:
    ``u = rng.integers(x1, x2)``, ``v = rng.integers(y1, y2)`` until the pixel
    is free, then ``observer = rng.integers(0, 8)``. An integer u lies in
    [b.x1, b.x2) exactly when it lies in [ceil b.x1, ceil b.x2), so one table
    of the box's free pixels replaces the test against every other box.

    The loop runs over raw 32-bit words drawn ahead and decoded by
    ``_offsets``: an axis one pixel wide draws no word, and a rejected word
    is skipped. Then the generator is rewound and draws exactly the words the
    loop read, so it ends where the scalar loop leaves it, also on
    GenerationFailure. A box without a whole pixel fails at once, where the
    loop's first draw raised numpy's ValueError.
    """
    if not cnt:
        return []
    x1, x2, y1, y2 = (math.ceil(c) for c in (box.x1, box.x2, box.y1, box.y2))
    w, h = x2 - x1, y2 - y1
    if not w or not h:
        raise GenerationFailure("a box holds no whole pixel")
    table = np.ones((h, w), dtype=np.uint8)
    for b in others:
        cols = slice(max(math.ceil(b.x1) - x1, 0), max(math.ceil(b.x2) - x1, 0))
        table[max(math.ceil(b.y1) - y1, 0) : max(math.ceil(b.y2) - y1, 0), cols] = 0
    free = table.tobytes()
    spans = [[w], [h], [8]]
    state = rng.bit_generator.state
    us, vs, observers = _offsets(rng.integers(0, 2**32, 4 * cnt + 64, dtype=np.uint32), spans).tolist()
    rows, tries, q = [], 0, 0  # q: the words read so far
    while len(rows) < cnt:
        start, du, dv = q, 0, 0
        try:
            if w > 1:
                while us[q] < 0:
                    q += 1
                du, q = us[q], q + 1
            if h > 1:
                while vs[q] < 0:
                    q += 1
                dv, q = vs[q], q + 1
            if free[dv * w + du]:
                rows.append((x1 + du, y1 + dv, observers[q]))
                q, tries = q + 1, 0
                continue
        except IndexError:  # the words ran out: draw as many again and redo the attempt
            more = _offsets(rng.integers(0, 2**32, len(us), dtype=np.uint32), spans).tolist()
            us, vs, observers = (d + extra for d, extra in zip((us, vs, observers), more))
            q = start
            continue
        tries += 1
        if tries == _MAX_BOX_ATTEMPTS:
            break
    rng.bit_generator.state = state
    rng.integers(0, 2**32, q, dtype=np.uint32)
    if len(rows) < cnt:
        raise GenerationFailure("could not place a fixation outside other boxes")
    return rows


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


def _reflect(padded: np.ndarray, n: int, r: int) -> None:
    """Fill the ``r`` pad rows either side of the ``n`` rows at
    ``padded[r : n + r]`` as scipy.ndimage's ``reflect`` boundary reads them."""
    fold = _fold(n, r) + r
    padded[:r] = padded[fold[:r]]
    padded[n + r : n + 2 * r] = padded[fold[n + r :]]


def _correlate_rows(padded: np.ndarray, weights: np.ndarray, n: int, m: int) -> np.ndarray:
    """``weights`` correlated down the rows of a ``_padded`` buffer with the
    ``reflect`` boundary; the result is the ``[:n, :m]`` corner.

    Every block of ``b`` output rows is one small product with the same
    banded ``(b, b + 2r)`` matrix, so memory grows with ``r``, not with ``n``
    squared, and no product is large enough for OpenBLAS to start threads.
    """
    r = len(weights) // 2
    _reflect(padded, n, r)
    b, c = _blocks(n, m, r)
    band = np.zeros((b, b + 2 * r))
    band[np.arange(b)[:, None], np.arange(b)[:, None] + np.arange(2 * r + 1)] = weights
    out = np.empty((padded.shape[0] - 2 * r, padded.shape[1]))
    windows = sliding_window_view(padded, (b + 2 * r, c))[::b, ::c]
    np.matmul(band, windows, out=out.reshape(-1, b, out.shape[1] // c, c).transpose(0, 2, 1, 3))
    return out


def _correlate_scipy(padded: np.ndarray, weights: np.ndarray, n: int, m: int) -> np.ndarray:
    """``_correlate_rows`` summed as scipy's ``correlate1d`` sums a symmetric
    kernel: the centre tap, then each pair of taps from the outside in, as
    ``acc += (left + right) * weight``. The same operations in the same order
    give scipy's bits; numpy only runs each across all the lines at once."""
    r = len(weights) // 2
    _reflect(padded, n, r)
    out = padded[r : n + r, :m] * weights[r]
    for j in range(r, 0, -1):
        out += (padded[r - j : n + r - j, :m] + padded[r + j : n + r + j, :m]) * weights[r + j]
    return out


def _blur(cfg: SynthConfig, fixations: np.ndarray, weights: np.ndarray, correlate) -> np.ndarray:
    """The fixation counts through ``gaussian_filter``'s two passes, each done
    by ``correlate``; the result is transposed, ``(width, height)``.

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
    down = correlate(padded, weights, h, len(cols))
    del padded
    padded = _padded(w, h, r)  # row r + x holds column x
    padded[cols + r, :h] = down[:h, : len(cols)].T
    del down
    return correlate(padded, weights, w, h)[:w, :h]


def _render_map(cfg: SynthConfig, fixations: np.ndarray) -> bytes:
    """Counts blurred as by scipy's ``gaussian_filter(counts, splat_sigma)``,
    scaled to 0..255, byte for byte.

    That filter is one 1-D pass per axis with the taps of
    ``_gaussian_weights`` and the ``reflect`` boundary. ``_correlate_rows``
    takes those sums in another order than scipy. Every term is
    non-negative, so each of its two passes is within a relative
    ``2 (2r + 2) 2**-53`` of the exact blur, and its scaled values, peak
    included, are within an eighth of ``tie`` of scipy's. Only a value that
    close to a rounding tie (``k + 0.5``) can round differently; if any is,
    the map is blurred again by ``_correlate_scipy``, in scipy's own order.
    That pass alone would cost a 640x480 map about what scipy's does, near
    three times the block products, so it runs only then.
    """
    weights = _gaussian_weights(cfg.splat_sigma)
    tie = 255.0 * (len(weights) // 2 + 1) * 2.0**-46
    for correlate in (_correlate_rows, _correlate_scipy):
        grid = _blur(cfg, fixations, weights, correlate)
        peak = grid.max()
        if peak > 0:
            grid /= peak
            grid *= 255.0
        out = np.round(grid)
        grid -= out
        if np.abs(grid, out=grid).max() <= 0.5 - tie:
            break
    return out.astype(np.uint8).T.tobytes()


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
            fixations += _place_fixations(rng, boxes[i], others, cnt)
    # Same stream as n_noise rounds of scalar u, v and observer draws.
    noise = rng.integers((0, 0, 0), (cfg.width, cfg.height, 8), size=(n_noise, 3))
    fixations = np.concatenate([np.array(fixations, dtype=np.int64).reshape(-1, 3), noise])

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


def _write_one(idx: int, cfg: SynthConfig, out_dir: Path):
    """Generate and write one scene (and its map); returns its gt.csv,
    latent.csv and manifest rows."""
    scene, weights = generate_scene(cfg, idx)
    scene_path = out_dir / "scenes" / f"{scene.scene_id}.json"
    map_rel = None
    if cfg.render_maps:
        write_pgm(scene.fixation_map, out_dir / "maps" / f"{scene.scene_id}.pgm")
        map_rel = f"../maps/{scene.scene_id}.pgm"
    write_scene(scene, scene_path, fixation_map_path=map_rel)
    ranking = rasrgt_rank(scene, GtConfig(gamma=cfg.gamma, beta=cfg.beta))
    latent = [(scene.scene_id, p.id, w) for p, w in zip(scene.proposals, weights)]
    entry = {
        "scene_id": scene.scene_id,
        "scene_path": str(scene_path.relative_to(out_dir)),
        "map_path": f"maps/{scene.scene_id}.pgm" if cfg.render_maps else None,
    }
    return (scene.scene_id, ranking), latent, entry


def generate_dataset(cfg: SynthConfig, out_dir, jobs: int = 1) -> dict:
    """Write scenes, maps, GT rankings, latent weights and a manifest.

    Scenes are generated and written on ``jobs`` workers; the files that list
    every scene are written here, in scene order, so the output does not
    depend on ``jobs``.
    """
    out_dir = Path(out_dir)
    try:
        (out_dir / "scenes").mkdir(parents=True, exist_ok=True)
        if cfg.render_maps:
            (out_dir / "maps").mkdir(exist_ok=True)
    except OSError as e:
        raise IoFailure(str(e)) from e

    rows = parallel_map(partial(_write_one, cfg=cfg, out_dir=out_dir), range(cfg.n_scenes), jobs)
    rankings = [ranking for ranking, _, _ in rows]
    latent_rows = [row for _, latent, _ in rows for row in latent]
    manifest = {"seed": cfg.seed, "config": asdict(cfg), "scenes": [entry for _, _, entry in rows]}

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
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    next(reader)
    for scene_id, pid, w in reader:
        out.setdefault(scene_id, {})[int(pid)] = float(w)
    return out
