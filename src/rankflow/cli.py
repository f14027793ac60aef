"""Single ``rankflow`` executable exposing the whole flow as subcommands.

Data goes to files, logs go to stderr.  Exit codes: 0 success, 1 usage error,
2 data error.  A JSON run config can seed any option; explicit flags win.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .errors import MalformedJson, RankflowError
from .gtgen import GtConfig, GtMethod
from .ingest import read_text
from .pipeline import (
    evaluate_files,
    gt_discrepancy,
    gt_generate,
    map_rank_dataset,
    preprocess_dataset,
    rank_dataset,
    write_provenance,
)
from .preprocess import FilterConfig
from .rankcore import DEFAULT_WINDOW
from .scorer import TrainConfig, save_model, train
from .synth import SynthConfig, generate_dataset

_CONFIG_SECTIONS = {"synth", "filter", "gt", "train"}
_CONFIG_SCALARS = {"window_size", "lam", "jobs"}
_MAX_GAMMAS = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_run_config(path) -> dict:
    try:
        doc = json.loads(read_text(path))
    except OSError as e:
        raise RankflowError(str(e)) from e
    except json.JSONDecodeError as e:
        raise MalformedJson(f"{path}: line {e.lineno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise RankflowError(f"{path}: a run config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _CONFIG_SECTIONS - _CONFIG_SCALARS
    if unknown:
        raise RankflowError(f"unknown config keys: {sorted(unknown)}")
    for key in ("jobs", "window_size"):
        if key in doc and (type(doc[key]) is not int or doc[key] < 1):
            raise RankflowError(f"{path}: {key} must be an integer >= 1, got {doc[key]!r}")
    if "lam" in doc:
        _check_lambda(doc["lam"], f"{path}: lam")
    for section, cls in (
        ("synth", SynthConfig),
        ("filter", FilterConfig),
        ("gt", GtConfig),
        ("train", TrainConfig),
    ):
        fields = doc.get(section, {})
        if not isinstance(fields, dict):
            raise RankflowError(f"{path}: config section {section!r} must be a JSON object")
        extra = set(fields) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise RankflowError(f"unknown keys in config section {section!r}: {sorted(extra)}")
    return doc


def _check_lambda(lam, name: str) -> None:
    if type(lam) not in (int, float) or not 0 < lam <= 1:
        raise RankflowError(f"{name} must be a number in (0, 1], got {lam!r}")


def _build_cfg(cls, section: dict, overrides: dict):
    merged = dict(section)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**merged)
    except (TypeError, ValueError) as e:
        raise RankflowError(str(e)) from e


def _add_common(sub):
    sub.add_argument("--config", help="JSON run config; flags override its values")
    sub.add_argument(
        "--jobs", type=int, default=None, help="parallel workers (default: env RANKFLOW_JOBS, else every usable CPU)"
    )


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _common(args):
    """The run config and the worker count: ``--jobs``, else the config's
    ``jobs``, else ``RANKFLOW_JOBS``, else every usable CPU."""
    run_cfg = load_run_config(args.config) if args.config else {}
    jobs = args.jobs if args.jobs is not None else run_cfg.get("jobs")
    name = "--jobs"
    if jobs is None and "RANKFLOW_JOBS" in os.environ:
        env, name = os.environ["RANKFLOW_JOBS"], "RANKFLOW_JOBS"
        try:
            jobs = int(env)
        except ValueError as e:
            raise RankflowError(f"RANKFLOW_JOBS must be an integer, got {env!r}") from e
    if jobs is None:
        jobs = _usable_cpus()
    if jobs < 1:
        raise RankflowError(f"{name} must be an integer >= 1, got {jobs}")
    return run_cfg, jobs


def build_parser() -> _Parser:
    parser = _Parser(prog="rankflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    _add_common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scenes", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--objects", default=None, help="min:max objects per scene")
    p.add_argument("--fixations", type=int, default=None)
    p.add_argument("--no-maps", action="store_true", help="skip fixation map rendering")

    p = sub.add_parser("preprocess", help="filter proposals and cache features")
    _add_common(p)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iou", type=float, default=None)
    p.add_argument("--max-area", type=float, default=None)
    p.add_argument("--min-area", type=float, default=None)
    p.add_argument("--min-count", type=int, default=None)

    p = sub.add_parser("gt-gen", help="generate GT rank orders from fixation data")
    _add_common(p)
    p.add_argument("--method", choices=[m.value for m in GtMethod], default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--binary-threshold", type=float, default=None)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gt-discrepancy", help="rank-change totals between adjacent GT thresholds")
    _add_common(p)
    p.add_argument("--gammas", default="0.1:1.0:0.1", help="start:stop:step grid")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the window scorer")
    _add_common(p)
    p.add_argument("--in", dest="in_dir", required=True, help="preprocessed dataset dir")
    p.add_argument("--gt", required=True, help="GT ranking CSV")
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--window", type=int, default=None)

    p = sub.add_parser("rank", help="rank scenes with a trained scorer")
    _add_common(p)
    p.add_argument("--in", dest="in_dir", required=True, help="preprocessed dataset dir")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("map-rank", help="rank scenes from plain saliency maps")
    _add_common(p)
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--maps", default=None, help="directory of <scene_id>.pgm maps")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compare predicted and GT rankings")
    _add_common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_synth(args, run_cfg, jobs):
    overrides = {
        "seed": args.seed,
        "n_scenes": args.scenes,
        "fixations_per_scene": args.fixations,
    }
    if args.objects:
        try:
            lo, hi = (int(x) for x in args.objects.split(":"))
        except ValueError as e:
            raise RankflowError(f"--objects expects min:max integers, got {args.objects!r}") from e
        overrides["objects_min"] = lo
        overrides["objects_max"] = hi
    if args.no_maps:
        overrides["render_maps"] = False
    cfg = _build_cfg(SynthConfig, run_cfg.get("synth", {}), overrides)
    generate_dataset(cfg, args.out, jobs)
    write_provenance(args.out, dataclasses.asdict(cfg), seed=cfg.seed)
    print(f"wrote {cfg.n_scenes} scenes to {args.out}", file=sys.stderr)


def _cmd_preprocess(args, run_cfg, jobs):
    cfg = _build_cfg(
        FilterConfig,
        run_cfg.get("filter", {}),
        {
            "iou_discard": args.iou,
            "max_area_frac": args.max_area,
            "min_area_px": args.min_area,
            "min_count": args.min_count,
        },
    )
    ids = preprocess_dataset(args.in_dir, args.out, cfg, jobs)
    write_provenance(args.out, dataclasses.asdict(cfg))
    print(f"preprocessed {len(ids)} scenes into {args.out}", file=sys.stderr)


def _gt_cfg(args, run_cfg):
    overrides = {"gamma": args.gamma, "beta": getattr(args, "beta", None)}
    if getattr(args, "method", None):
        overrides["method"] = GtMethod(args.method)
    if getattr(args, "binary_threshold", None) is not None:
        overrides["binary_threshold"] = args.binary_threshold
    section = dict(run_cfg.get("gt", {}))
    if isinstance(section.get("method"), str):
        # An unknown name stays a string, which GtConfig rejects by field name.
        section["method"] = {m.value: m for m in GtMethod}.get(section["method"], section["method"])
    return _build_cfg(GtConfig, section, overrides)


def _cmd_gt_gen(args, run_cfg, jobs):
    cfg = _gt_cfg(args, run_cfg)
    gt_generate(args.in_dir, cfg, args.out, jobs)
    # raw_penalty: a removed option, recorded as off so the config hash still
    # matches records written while it existed.
    config = {**dataclasses.asdict(cfg), "method": cfg.method.value, "raw_penalty": False}
    write_provenance(args.out, config)
    print(f"wrote GT rankings to {args.out}", file=sys.stderr)


def gamma_grid(spec: str) -> list[float]:
    """Thresholds start, start + step, ... up to stop from a ``start:stop:step`` spec.

    The spec is checked before the grid is built, so a bad step never loops.
    """
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as e:
        raise RankflowError(f"bad --gammas grid {spec!r}") from e
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise RankflowError(f"--gammas values must be finite, got {spec!r}")
    if not (0 < start <= stop and step > 0):
        raise RankflowError(f"--gammas needs 0 < start <= stop and step > 0, got {spec!r}")
    thresholds = []
    t = start
    while t <= stop + 1e-9:
        if len(thresholds) == _MAX_GAMMAS:
            raise RankflowError(f"--gammas {spec!r} gives more than {_MAX_GAMMAS} thresholds")
        thresholds.append(round(t, 10))
        t += step
    return thresholds


def _cmd_gt_discrepancy(args, run_cfg, jobs):
    args.gamma = None
    cfg = _gt_cfg(args, run_cfg)
    thresholds = gamma_grid(args.gammas)
    gt_discrepancy(args.in_dir, cfg, thresholds, args.out, jobs)
    write_provenance(args.out, {"gammas": thresholds, "beta": cfg.beta})
    print(f"wrote discrepancy offsets to {args.out}", file=sys.stderr)


def _cmd_train(args, run_cfg, jobs):
    from .ingest import parse_ranking
    from .pipeline import build_training_set

    cfg = _build_cfg(
        TrainConfig,
        run_cfg.get("train", {}),
        {"epochs": args.epochs, "seed": args.seed, "alpha": args.alpha, "lr": args.lr},
    )
    window = args.window if args.window is not None else run_cfg.get("window_size", DEFAULT_WINDOW)
    dataset = build_training_set(args.in_dir, parse_ranking(args.gt), window)
    result = train(dataset, cfg)
    save_model(result.model, args.out)
    write_provenance(args.out, dataclasses.asdict(cfg), seed=cfg.seed)
    losses = ", ".join(f"{x:.4f}" for x in result.epoch_losses[-3:])
    print(f"trained on {len(dataset)} windows; last losses: {losses}", file=sys.stderr)


def _cmd_rank(args, run_cfg, jobs):
    window = rank_dataset(args.in_dir, args.model, args.out, jobs)
    write_provenance(args.out, {"model": Path(args.model).name, "window_size": window})
    print(f"wrote rankings to {args.out}", file=sys.stderr)


def _cmd_map_rank(args, run_cfg, jobs):
    if args.lam is not None:
        _check_lambda(args.lam, "--lambda")
    lam = args.lam if args.lam is not None else run_cfg.get("lam", 0.5)
    map_rank_dataset(args.in_dir, args.maps, lam, args.out, jobs)
    write_provenance(args.out, {"lambda": lam})
    print(f"wrote map-based rankings to {args.out}", file=sys.stderr)


def _cmd_eval(args, run_cfg, jobs):
    doc = evaluate_files(args.pred, args.gt, args.out)
    write_provenance(args.out, {"pred": Path(args.pred).name, "gt": Path(args.gt).name})
    print(
        f"mean SRCC {doc['mean_srcc']}, mean F1 {doc['mean_f1']}, skipped {doc['skipped']}",
        file=sys.stderr,
    )


_COMMANDS = {
    "synth": _cmd_synth,
    "preprocess": _cmd_preprocess,
    "gt-gen": _cmd_gt_gen,
    "gt-discrepancy": _cmd_gt_discrepancy,
    "train": _cmd_train,
    "rank": _cmd_rank,
    "map-rank": _cmd_map_rank,
    "eval": _cmd_eval,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        run_cfg, jobs = _common(args)
        _COMMANDS[args.command](args, run_cfg, jobs)
    except RankflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
