"""Dataset-level stages shared by the CLI: preprocessing, GT generation,
training-set assembly, ranking and map-based ranking.

Scene work is independent, so stages parallelize with a process pool; results
are merged in scene order so output never depends on the job count.
"""
from __future__ import annotations

import json
import hashlib
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import __version__
from .domain import Ranking, Scene
from .errors import IoFailure, MissingFile
from .gtgen import GtConfig, discrepancy_offsets, generate_ranking
from .ingest import (
    list_scene_files,
    parse_pgm,
    parse_scene,
    write_atomic,
    write_ranking,
    write_scene,
)
from .metrics import evaluate_rankings, rank_from_saliency_map
from .preprocess import FilterConfig, filter_proposals, read_features, scene_features, write_features
from .rankcore import DEFAULT_WINDOW, rank_scene, window_batch
from .scorer import load_model, make_scorer, window_gt_labels


def parallel_map(fn, items, jobs: int = 1):
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


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


def _preprocess_one(scene_path, out_dir: Path, cfg: FilterConfig) -> str:
    scene = parse_scene(scene_path)
    filtered = filter_proposals(scene, cfg)
    write_scene(filtered, out_dir / "scenes" / f"{filtered.scene_id}.json")
    write_features(scene_features(filtered), out_dir / "features" / f"{filtered.scene_id}.feat")
    return filtered.scene_id


def preprocess_dataset(in_dir, out_dir, cfg: FilterConfig | None = None, jobs: int = 1) -> list[str]:
    cfg = cfg or FilterConfig()
    out_dir = Path(out_dir)
    try:
        (out_dir / "scenes").mkdir(parents=True, exist_ok=True)
        (out_dir / "features").mkdir(exist_ok=True)
    except OSError as e:
        raise IoFailure(f"cannot create {out_dir}: {e.strerror or e}") from e
    worker = partial(_preprocess_one, out_dir=out_dir, cfg=cfg)
    return parallel_map(worker, list_scene_files(in_dir), jobs)


def _gt_one(scene_path, cfg: GtConfig):
    scene = parse_scene(scene_path, load_map=cfg.method.reads_map)
    return scene.scene_id, generate_ranking(scene, cfg)


def gt_generate(in_dir, cfg: GtConfig, out_file, jobs: int = 1) -> None:
    worker = partial(_gt_one, cfg=cfg)
    rankings = parallel_map(worker, list_scene_files(in_dir), jobs)
    write_ranking(rankings, out_file)


def gt_discrepancy(in_dir, cfg: GtConfig, thresholds, out_file) -> None:
    scenes = [parse_scene(p, load_map=False) for p in list_scene_files(in_dir)]
    rows = discrepancy_offsets(scenes, cfg, thresholds)
    write_atomic(out_file, "threshold,t_offset\n" + "".join(f"{t:g},{offset}\n" for t, offset in rows))


def load_preprocessed(pre_dir) -> list[tuple[Scene, "object"]]:
    """(Scene, feature matrix) pairs from a preprocessed dataset directory."""
    pre_dir = Path(pre_dir)
    feat_dir = pre_dir / "features"
    if not feat_dir.is_dir():
        raise MissingFile(f"{feat_dir} (run the preprocess stage first)")
    out = []
    for scene_path in list_scene_files(pre_dir):
        scene = parse_scene(scene_path)
        out.append((scene, read_features(feat_dir / f"{scene.scene_id}.feat")))
    return out


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


def _rank_one(item, model, window_size):
    scene, features = item
    return scene.scene_id, rank_scene(scene, features, make_scorer(model), window_size)


def rank_dataset(pre_dir, model_path, out_file, jobs: int = 1) -> int:
    """Rank every preprocessed scene; returns the window size, which the
    model fixes: one class per within-window rank plus non-salient."""
    items = load_preprocessed(pre_dir)
    model = load_model(model_path)
    window_size = model.dims[2] - 1
    worker = partial(_rank_one, model=model, window_size=window_size)
    write_ranking(parallel_map(worker, items, jobs), out_file)
    return window_size


def _map_rank_one(scene_path, maps_dir: Path, lam: float):
    scene = parse_scene(scene_path, load_map=maps_dir is None)
    gmap = scene.fixation_map
    if maps_dir is not None:
        gmap = parse_pgm(maps_dir / f"{scene.scene_id}.pgm")
    return scene.scene_id, rank_from_saliency_map(scene, gmap, lam)


def map_rank_dataset(in_dir, maps_dir, lam, out_file, jobs: int = 1) -> None:
    worker = partial(_map_rank_one, maps_dir=Path(maps_dir) if maps_dir else None, lam=lam)
    rankings = parallel_map(worker, list_scene_files(in_dir), jobs)
    write_ranking(rankings, out_file)


def evaluate_files(pred_file, gt_file, out_file=None) -> dict:
    from .ingest import parse_ranking

    report = evaluate_rankings(parse_ranking(pred_file), parse_ranking(gt_file))
    doc = report.to_dict()
    if out_file is not None:
        write_atomic(out_file, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc
