"""Dataset-level stages shared by the CLI: preprocessing, GT generation,
training-set assembly, ranking and map-based ranking.

Scene work is independent, so stages parallelize with a process pool; results
are merged in scene order so output never depends on the job count.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import __version__
from .domain import Ranking, Scene
from .errors import (
    InvariantViolation,
    IoFailure,
    MissingFile,
    MissingFixationMap,
    SceneMismatch,
    UnsupportedFormat,
)
from .gtgen import GtConfig, discrepancy_offsets, generate_ranking, rasrgt_counts
from .ingest import (
    list_scene_files,
    parse_pgm,
    parse_ranking,
    parse_scene,
    write_atomic,
    write_ranking,
    write_scene,
)
from .metrics import evaluate_rankings, rank_from_saliency_map
from .preprocess import FEATURE_DIM, FilterConfig, filter_proposals, read_features, scene_features, write_features
from .rankcore import DEFAULT_WINDOW, MAX_WINDOW, rank_scene, window_batch
from .scorer import load_model, make_scorer, window_gt_labels


def parallel_map(fn, items, jobs: int = 1):
    items = list(items)
    jobs = min(jobs, len(items))  # never more workers than items
    if jobs <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def map_scenes(fn, in_dir, jobs: int = 1) -> list:
    """``fn`` on every scene file of ``in_dir`` on ``jobs`` workers, in file
    order. Each call returns a tuple whose first item is the file's scene_id;
    a scene_id found in two files raises InvariantViolation naming both, so
    no stage merges two scenes into one."""
    paths = list_scene_files(in_dir)
    rows = parallel_map(fn, paths, jobs)
    first = {}
    for path, row in zip(paths, rows):
        other = first.setdefault(row[0], path)
        if other != path:
            raise InvariantViolation("scene_id", f"{row[0]!r} is in both {other} and {path}")
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


def _preprocess_one(scene_path, staging: Path, cfg: FilterConfig) -> tuple[str]:
    scene = parse_scene(scene_path)
    filtered = filter_proposals(scene, cfg)
    write_scene(filtered, staging / f"{filtered.scene_id}.json")
    write_features(scene_features(filtered), staging / f"{filtered.scene_id}.feat")
    return (filtered.scene_id,)


def preprocess_dataset(in_dir, out_dir, cfg: FilterConfig | None = None, jobs: int = 1) -> list[str]:
    """Filter every scene and write it to ``scenes/``, its features to
    ``features/``. Workers write into one staging directory under
    ``out_dir``, whose files move into place only once every scene is done;
    it is removed in any case, so a failed run adds no scene or feature file."""
    cfg = cfg or FilterConfig()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=out_dir))
    except OSError as e:
        raise IoFailure(f"cannot create {out_dir}: {e.strerror or e}") from e
    try:
        worker = partial(_preprocess_one, staging=staging, cfg=cfg)
        ids = [scene_id for (scene_id,) in map_scenes(worker, in_dir, jobs)]
        try:
            for sub, suffix in (("scenes", ".json"), ("features", ".feat")):
                (out_dir / sub).mkdir(exist_ok=True)
                for scene_id in ids:
                    os.replace(staging / f"{scene_id}{suffix}", out_dir / sub / f"{scene_id}{suffix}")
        except OSError as e:
            raise IoFailure(f"cannot move the preprocessed files into {out_dir}: {e.strerror or e}") from e
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return ids


def _parse_scene(scene_path, load_map: bool) -> Scene:
    """``parse_scene``; with ``load_map``, a scene without a map raises
    MissingFixationMap naming its file."""
    scene = parse_scene(scene_path, load_map=load_map)
    if load_map and scene.fixation_map is None:
        raise MissingFixationMap(f"{scene_path}: no fixation_map_path, so the scene has no fixation map")
    return scene


def _gt_one(scene_path, cfg: GtConfig):
    scene = _parse_scene(scene_path, cfg.method.reads_map)
    return scene.scene_id, generate_ranking(scene, cfg)


def gt_generate(in_dir, cfg: GtConfig, out_file, jobs: int = 1) -> None:
    worker = partial(_gt_one, cfg=cfg)
    write_ranking(map_scenes(worker, in_dir, jobs), out_file)


def _count_one(scene_path):
    scene = parse_scene(scene_path, load_map=False)
    return scene.scene_id, rasrgt_counts(scene)


def gt_discrepancy(in_dir, cfg: GtConfig, thresholds, out_file, jobs: int = 1) -> None:
    """Workers parse the scenes and count their boxes, so only the counts
    reach this process."""
    counts = [c for _, c in map_scenes(_count_one, in_dir, jobs)]
    rows = discrepancy_offsets(counts, cfg, thresholds)
    write_atomic(out_file, "threshold,t_offset\n" + "".join(f"{t:g},{offset}\n" for t, offset in rows))


def _feature_dir(pre_dir) -> Path:
    feat_dir = Path(pre_dir) / "features"
    if not feat_dir.is_dir():
        raise MissingFile(f"{feat_dir} (run the preprocess stage first)")
    return feat_dir


def _load_one(scene_path, feat_dir: Path):
    scene = parse_scene(scene_path)
    return scene.scene_id, scene, read_features(feat_dir / f"{scene.scene_id}.feat")


def load_preprocessed(pre_dir) -> list[tuple[Scene, "object"]]:
    """(Scene, feature matrix) pairs from a preprocessed dataset directory."""
    feat_dir = _feature_dir(pre_dir)
    rows = map_scenes(partial(_load_one, feat_dir=feat_dir), pre_dir)
    return [(scene, features) for _, scene, features in rows]


def build_training_set(pre_dir, gt: dict[str, Ranking], window_size: int = DEFAULT_WINDOW):
    """One training sample per circular window of every preprocessed scene."""
    samples = []
    for scene, features in load_preprocessed(pre_dir):
        if scene.scene_id not in gt:
            continue
        _, ids, dummy, inputs = window_batch(scene, features, window_size)
        ranking = gt[scene.scene_id]
        samples += [
            (x, window_gt_labels(ranking, row), mask)
            for x, row, mask in zip(inputs, ids.tolist(), dummy.tolist())
        ]
    return samples


def _rank_one(scene_path, feat_dir: Path, model, window_size):
    scene_id, scene, features = _load_one(scene_path, feat_dir)
    return scene_id, rank_scene(scene, features, make_scorer(model), window_size)


def rank_dataset(pre_dir, model_path, out_file, jobs: int = 1) -> int:
    """Rank every preprocessed scene; returns the window size, which the
    model fixes: one class per within-window rank plus non-salient.

    Workers read their own scene and features, so only paths and the model
    are sent to them.
    """
    feat_dir = _feature_dir(pre_dir)
    model = load_model(model_path)
    d_in, _, c = model.dims
    n_in = FEATURE_DIM + 4  # window_inputs adds 4 window-context columns
    if d_in != n_in or not 2 <= c <= MAX_WINDOW + 1:
        need = f"a model of {n_in} inputs and 2..{MAX_WINDOW + 1} classes"
        raise UnsupportedFormat(f"{model_path}: {need} is needed, got dims {model.dims}")
    window_size = c - 1
    worker = partial(_rank_one, feat_dir=feat_dir, model=model, window_size=window_size)
    write_ranking(map_scenes(worker, pre_dir, jobs), out_file)
    return window_size


def _map_rank_one(scene_path, maps_dir: Path, lam: float):
    scene = _parse_scene(scene_path, maps_dir is None)
    if maps_dir is None:
        return scene.scene_id, rank_from_saliency_map(scene, scene.fixation_map, lam)
    map_path = maps_dir / f"{scene.scene_id}.pgm"
    try:
        return scene.scene_id, rank_from_saliency_map(scene, parse_pgm(map_path), lam)
    except SceneMismatch as e:
        raise SceneMismatch(f"{map_path}: {e}") from e


def map_rank_dataset(in_dir, maps_dir, lam, out_file, jobs: int = 1) -> None:
    worker = partial(_map_rank_one, maps_dir=Path(maps_dir) if maps_dir else None, lam=lam)
    write_ranking(map_scenes(worker, in_dir, jobs), out_file)


def evaluate_files(pred_file, gt_file, out_file=None) -> dict:
    report = evaluate_rankings(parse_ranking(pred_file), parse_ranking(gt_file))
    doc = report.to_dict()
    if out_file is not None:
        write_atomic(out_file, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc
