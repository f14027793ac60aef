"""The scene runner, its process pool, the per-scene workers of the CLI
stages and training-set assembly.

``map_scenes`` runs one per-scene function over a dataset directory: it
parses each scene file, returns ``(scene_id, result)`` rows and puts the
file's path in front of any data error.  Scene work is independent, so it
runs on a process pool, ``parallel_map``, whose workers take the scenes in
contiguous chunks; rows keep file order, so output never depends on the job
count.  The workers are module-level functions so that they pickle; the CLI
handlers bind their settings with ``functools.partial``.
"""
from __future__ import annotations

from functools import partial
from pathlib import Path

from .domain import Ranking, Scene
from .errors import RankflowError
from .gtgen import require_map
from .ingest import list_scene_files, parse_pgm, parse_scene, write_scene
from .metrics import rank_from_saliency_map
from .preprocess import FilterConfig, filter_proposals, read_features, scene_features, write_features
from .rankcore import DEFAULT_WINDOW, rank_scene, window_batch
from .scorer import make_scorer, window_gt_labels


def parallel_map(fn, items, jobs: int = 1):
    """``[fn(x) for x in items]`` on ``jobs`` worker processes.  Workers take
    contiguous chunks, about eight per worker, so a task costs one message
    per chunk rather than per item; rows keep input order, and the first
    failing item in input order raises."""
    items = list(items)
    jobs = min(jobs, len(items))  # never more workers than items
    if jobs <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays for its import

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=-(-len(items) // (8 * jobs))))


def _run_scene(path, fn, load_map: bool):
    """``(scene_id, fn(scene))`` for one scene file; a RankflowError from
    ``fn`` is raised again with the file's path in front."""
    scene = parse_scene(path, load_map)
    try:
        return scene.scene_id, fn(scene)
    except RankflowError as e:
        raise e.naming(path) from e


def map_scenes(fn, in_dir, jobs: int = 1, load_map: bool = False) -> list:
    """``(scene_id, fn(scene))`` for every scene file of ``in_dir``, in file
    order, on ``jobs`` workers; ``load_map`` reads each scene's PGM map too.
    A scene_id found in two files raises a RankflowError naming both, so
    no stage merges two scenes into one."""
    paths = list_scene_files(in_dir)
    rows = parallel_map(partial(_run_scene, fn=fn, load_map=load_map), paths, jobs)
    first = {}
    for path, (scene_id, _) in zip(paths, rows):
        other = first.setdefault(scene_id, path)
        if other != path:
            raise RankflowError(f"scene_id: {scene_id!r} is in both {other} and {path}")
    return rows


def preprocess_one(scene: Scene, staging: Path, cfg: FilterConfig) -> None:
    filtered = filter_proposals(scene, cfg)
    write_scene(filtered, staging / "scenes" / f"{filtered.scene_id}.json")
    write_features(scene_features(filtered), staging / "features" / f"{filtered.scene_id}.feat")


def _with_features(scene: Scene, feat_dir: Path, fn):
    return fn(scene, read_features(feat_dir / f"{scene.scene_id}.feat"))


def load_preprocessed(pre_dir, fn, jobs: int = 1) -> list:
    """``map_scenes`` rows of ``fn(scene, features)`` for every scene of a
    preprocessed dataset directory."""
    feat_dir = Path(pre_dir) / "features"
    if not feat_dir.is_dir():
        raise RankflowError(f"{feat_dir}: no such directory (run the preprocess stage first)")
    return map_scenes(partial(_with_features, feat_dir=feat_dir, fn=fn), pre_dir, jobs)


def _scene_samples(scene: Scene, features, gt: dict[str, Ranking], window_size: int) -> list:
    if scene.scene_id not in gt:
        return []
    _, ids, dummy, inputs = window_batch(scene, features, window_size)
    ranking = gt[scene.scene_id]
    # A dummy is labelled 0 whatever its id: a padded id may be one that
    # preprocess dropped and the GT still ranks.
    return [
        (x, window_gt_labels(ranking, [None if d else i for i, d in zip(row, mask)]), mask)
        for x, row, mask in zip(inputs, ids.tolist(), dummy.tolist())
    ]


def build_training_set(pre_dir, gt: dict[str, Ranking], window_size: int = DEFAULT_WINDOW):
    """One training sample per circular window of every preprocessed scene."""
    rows = load_preprocessed(pre_dir, partial(_scene_samples, gt=gt, window_size=window_size))
    return [sample for _, samples in rows for sample in samples]


def rank_one(scene: Scene, features, model, window_size: int) -> Ranking:
    return rank_scene(scene, features, make_scorer(model), window_size)


def map_rank_one(scene: Scene, maps_dir: Path | None, lam: float) -> Ranking:
    if maps_dir is None:
        return rank_from_saliency_map(scene, require_map(scene), lam)
    map_path = maps_dir / f"{scene.scene_id}.pgm"
    gmap = parse_pgm(map_path)
    try:
        return rank_from_saliency_map(scene, gmap, lam)
    except RankflowError as e:
        raise e.naming(map_path) from e
