"""Dataset-level stages shared by the CLI: preprocessing, GT generation,
training-set assembly, ranking and map-based ranking.

Every stage runs one per-scene function through one runner, ``map_scenes``,
which parses each scene file, returns ``(scene_id, result)`` rows and puts
the file's path in front of any data error.  Scene work is independent, so
it runs on a process pool, ``parallel_map``, whose workers take the scenes
in contiguous chunks; rows keep file order, so output never depends on the
job count.  Every output is written by ``ingest``; ``preprocess_dataset``
publishes its ``scenes/`` and ``features/`` whole.
"""
from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import __version__
from .domain import Ranking, Scene
from .errors import (
    InvariantViolation,
    MissingFile,
    RankflowError,
    SceneMismatch,
    UnsupportedFormat,
)
from .gtgen import MAP_METHODS, GtConfig, discrepancy_offsets, generate_ranking, rasrgt_counts, require_map
from .ingest import (
    list_scene_files,
    parse_pgm,
    parse_ranking,
    parse_scene,
    publish_dirs,
    write_atomic,
    write_csv,
    write_ranking,
    write_scene,
)
from .metrics import evaluate_rankings, rank_from_saliency_map
from .preprocess import FEATURE_DIM, FilterConfig, filter_proposals, read_features, scene_features, write_features
from .rankcore import DEFAULT_WINDOW, MAX_WINDOW, check_window_size, rank_scene, window_batch
from .scorer import load_model, make_scorer, window_gt_labels


def parallel_map(fn, items, jobs: int = 1):
    """``[fn(x) for x in items]`` on ``jobs`` worker processes.  Workers take
    contiguous chunks, about eight per worker, so a task costs one message
    per chunk rather than per item; rows keep input order, and the first
    failing item in input order raises."""
    items = list(items)
    jobs = min(jobs, len(items))  # never more workers than items
    if jobs <= 1:
        return [fn(x) for x in items]
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
    A scene_id found in two files raises InvariantViolation naming both, so
    no stage merges two scenes into one."""
    paths = list_scene_files(in_dir)
    rows = parallel_map(partial(_run_scene, fn=fn, load_map=load_map), paths, jobs)
    first = {}
    for path, (scene_id, _) in zip(paths, rows):
        other = first.setdefault(scene_id, path)
        if other != path:
            raise InvariantViolation("scene_id", f"{scene_id!r} is in both {other} and {path}")
    return rows


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def write_provenance(target, config: dict, seed=None) -> None:
    """Sidecar provenance record for an output file or directory."""
    target = Path(target)
    record = {
        "tool": "rankflow",
        "version": __version__,
        "config_hash": config_hash(config),
        "seed": seed,
    }
    path = target / "provenance.json" if target.is_dir() else Path(str(target) + ".provenance.json")
    write_atomic(path, json.dumps(record, sort_keys=True) + "\n")


def _preprocess_one(scene: Scene, staging: Path, cfg: FilterConfig) -> None:
    filtered = filter_proposals(scene, cfg)
    write_scene(filtered, staging / "scenes" / f"{filtered.scene_id}.json")
    write_features(scene_features(filtered), staging / "features" / f"{filtered.scene_id}.feat")


def preprocess_dataset(in_dir, out_dir, cfg: FilterConfig | None = None, jobs: int = 1) -> list[str]:
    """Filter every scene and write it to ``scenes/``, its features to
    ``features/``.  Workers write into a staging directory that
    ``publish_dirs`` puts in place of both only once every scene is done, so
    a failed run leaves ``out_dir`` as it was.  An ``out_dir`` that would
    replace ``in_dir`` is refused before anything is written."""
    out = Path(out_dir).resolve()
    if Path(in_dir).resolve() in (out, out / "scenes", out / "features"):
        raise RankflowError(f"cannot preprocess {in_dir} into {out_dir}: the output would replace the input")
    with publish_dirs(out_dir, "scenes", "features") as staging:
        worker = partial(_preprocess_one, staging=staging, cfg=cfg)
        return [scene_id for scene_id, _ in map_scenes(worker, in_dir, jobs, load_map=True)]


def gt_generate(in_dir, cfg: GtConfig, out_file, jobs: int = 1) -> None:
    rows = map_scenes(partial(generate_ranking, cfg=cfg), in_dir, jobs, load_map=cfg.method in MAP_METHODS)
    write_ranking(rows, out_file)


def gt_discrepancy(in_dir, cfg: GtConfig, thresholds, out_file, jobs: int = 1) -> None:
    """Workers parse the scenes and count their boxes, so only the counts
    reach this process."""
    counts = [c for _, c in map_scenes(rasrgt_counts, in_dir, jobs)]
    rows = discrepancy_offsets(counts, cfg, thresholds)
    write_csv(out_file, ["threshold", "t_offset"], [(f"{t:g}", offset) for t, offset in rows])


def _with_features(scene: Scene, feat_dir: Path, fn):
    return fn(scene, read_features(feat_dir / f"{scene.scene_id}.feat"))


def load_preprocessed(pre_dir, fn, jobs: int = 1) -> list:
    """``map_scenes`` rows of ``fn(scene, features)`` for every scene of a
    preprocessed dataset directory."""
    feat_dir = Path(pre_dir) / "features"
    if not feat_dir.is_dir():
        raise MissingFile(f"{feat_dir}: no such directory (run the preprocess stage first)")
    return map_scenes(partial(_with_features, feat_dir=feat_dir, fn=fn), pre_dir, jobs)


def _scene_samples(scene: Scene, features, gt: dict[str, Ranking], window_size: int) -> list:
    if scene.scene_id not in gt:
        return []
    _, ids, dummy, inputs = window_batch(scene, features, window_size)
    ranking = gt[scene.scene_id]
    return [
        (x, window_gt_labels(ranking, row), mask)
        for x, row, mask in zip(inputs, ids.tolist(), dummy.tolist())
    ]


def build_training_set(pre_dir, gt: dict[str, Ranking], window_size: int = DEFAULT_WINDOW):
    """One training sample per circular window of every preprocessed scene.
    The window size is checked first, so an error about it names no scene."""
    check_window_size(window_size)
    rows = load_preprocessed(pre_dir, partial(_scene_samples, gt=gt, window_size=window_size))
    return [sample for _, samples in rows for sample in samples]


def _rank_one(scene: Scene, features, model, window_size: int) -> Ranking:
    return rank_scene(scene, features, make_scorer(model), window_size)


def rank_dataset(pre_dir, model_path, out_file, jobs: int = 1) -> int:
    """Rank every preprocessed scene; returns the window size, which the
    model fixes: one class per within-window rank plus non-salient.

    Workers read their own scene and features, so only paths and the model
    are sent to them.
    """
    model = load_model(model_path)
    d_in, _, c = model.dims
    n_in = FEATURE_DIM + 4  # window_inputs adds 4 window-context columns
    if d_in != n_in or not 2 <= c <= MAX_WINDOW + 1:
        need = f"a model of {n_in} inputs and 2..{MAX_WINDOW + 1} classes"
        raise UnsupportedFormat(f"{model_path}: {need} is needed, got dims {model.dims}")
    window_size = c - 1
    ranker = partial(_rank_one, model=model, window_size=window_size)
    write_ranking(load_preprocessed(pre_dir, ranker, jobs), out_file)
    return window_size


def _map_rank_one(scene: Scene, maps_dir: Path | None, lam: float) -> Ranking:
    if maps_dir is None:
        return rank_from_saliency_map(scene, require_map(scene), lam)
    map_path = maps_dir / f"{scene.scene_id}.pgm"
    try:
        return rank_from_saliency_map(scene, parse_pgm(map_path), lam)
    except SceneMismatch as e:
        raise e.naming(map_path) from e


def map_rank_dataset(in_dir, maps_dir, lam, out_file, jobs: int = 1) -> None:
    maps_dir = Path(maps_dir) if maps_dir else None
    rows = map_scenes(partial(_map_rank_one, maps_dir=maps_dir, lam=lam), in_dir, jobs, load_map=maps_dir is None)
    write_ranking(rows, out_file)


def evaluate_files(pred_file, gt_file, out_file=None) -> dict:
    pred, gt = parse_ranking(pred_file), parse_ranking(gt_file)
    try:
        report = evaluate_rankings(pred, gt)
    except SceneMismatch as e:
        raise e.naming(f"{pred_file} and {gt_file}") from e
    doc = report.to_dict()
    if out_file is not None:
        write_atomic(out_file, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc
