"""Single ``rankflow`` executable exposing the whole flow as subcommands.

Data goes to files, logs go to stderr.  Exit codes: 0 success, 1 usage error,
2 data error.  A JSON run config can seed any option; explicit flags win.

Each ``_cmd_*`` handler runs one stage and returns its provenance config, seed
and log line; only once it succeeds does ``dispatch`` record that provenance
beside ``--out`` and print the line.

Start-up pays only for what a stage runs: at module level this file imports
the standard library and ``errors`` alone, each handler imports the stage
modules it calls, and a config section's class is imported only when a stage
or a ``--config`` file reads that section.  So ``--help`` and a usage error
load no numpy, and only a pooled run loads the process pool.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import re
import sys
from functools import partial
from pathlib import Path

from .errors import RankflowError

# config section -> (module, class) of the settings it holds
_SECTIONS = {
    "synth": ("synth", "SynthConfig"),
    "filter": ("preprocess", "FilterConfig"),
    "gt": ("gtgen", "GtConfig"),
    "train": ("scorer", "TrainConfig"),
}
_CONFIG_SCALARS = {"window_size", "lam", "jobs"}
_MAX_GAMMAS = 1000
_MAX_JOBS = 256  # each job is one worker process


def _section_class(section: str):
    """The config class of a run-config ``section``, imported on first use."""
    module, name = _SECTIONS[section]
    return getattr(importlib.import_module(f".{module}", __package__), name)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def load_run_config(path) -> dict:
    from .domain import check_integer, check_real
    from .ingest import read_json
    from .metrics import LAMBDA_RANGE
    from .rankcore import MAX_WINDOW

    doc = read_json(path)
    if not isinstance(doc, dict):
        raise RankflowError(f"{path}: a run config must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _SECTIONS.keys() - _CONFIG_SCALARS
    if unknown:
        raise RankflowError(f"unknown config keys: {sorted(unknown)}")
    if "jobs" in doc:
        check_integer(doc["jobs"], f"{path}: jobs", 1, _MAX_JOBS)
    if "window_size" in doc:
        check_integer(doc["window_size"], f"{path}: window_size", 1, MAX_WINDOW)
    if "lam" in doc:
        check_real(doc["lam"], f"{path}: lam", *LAMBDA_RANGE)
    for section in (s for s in _SECTIONS if s in doc):
        fields = doc[section]
        if not isinstance(fields, dict):
            raise RankflowError(f"{path}: config section {section!r} must be a JSON object")
        extra = set(fields) - {f.name for f in dataclasses.fields(_section_class(section))}
        if extra:
            raise RankflowError(f"unknown keys in config section {section!r}: {sorted(extra)}")
    return doc


def _section_cfg(args, run_cfg: dict, section: str, **extra):
    """The config object of a run-config ``section``: its values, overridden by
    every flag whose dest is a field of the section's class, then by ``extra``,
    the fields that ``--objects`` sets.  A rejected field's message is led by
    the source that gave it or a field its rule depends on, ``--objects
    <spec>`` or ``<config>: <section>``; a flag's field is named alone, as the
    flag's dest.  Every config check names its field first and the fields its
    rule depends on before ``, got``."""
    cls = _section_class(section)
    names = {f.name for f in dataclasses.fields(cls)}
    flags = {k: v for k, v in vars(args).items() if k in names and v is not None}
    given = run_cfg.get(section, {})
    try:
        return cls(**{**given, **flags, **extra})
    except RankflowError as e:
        named = names.intersection(re.findall(r"\w+", str(e).partition(", got")[0]))
        if named & extra.keys():
            raise e.naming(f"--objects {args.objects}") from e
        if any(field in given and field not in flags for field in named):
            raise e.naming(f"{args.config}: {section}") from e
        raise


def _add_command(sub, name: str, run, help: str, out_help: str | None = None):
    """A subcommand's parser with the options every subcommand takes, bound
    to its handler ``run(args, run_cfg, jobs) -> (config, seed, log line)``."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
    p.add_argument("--config", help="JSON run config; flags override its values")
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers for synth, preprocess, gt-gen, gt-discrepancy, rank and map-rank; "
        "train and eval run in one process (default: env RANKFLOW_JOBS, else every usable CPU)",
    )
    p.add_argument("--out", required=True, help=out_help)
    return p


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _common(args):
    """The run config and the worker count: ``--jobs``, else the config's
    ``jobs``, else ``RANKFLOW_JOBS``, else every usable CPU up to ``_MAX_JOBS``."""
    from .domain import check_integer

    run_cfg = load_run_config(args.config) if args.config else {}
    if args.jobs is not None:
        return run_cfg, check_integer(args.jobs, "--jobs", 1, _MAX_JOBS)
    if "jobs" in run_cfg:  # checked by load_run_config
        return run_cfg, run_cfg["jobs"]
    env = os.environ.get("RANKFLOW_JOBS")
    if env is None:
        return run_cfg, min(_usable_cpus(), _MAX_JOBS)
    try:
        return run_cfg, check_integer(int(env), "RANKFLOW_JOBS", 1, _MAX_JOBS)
    except ValueError as e:
        raise RankflowError(f"RANKFLOW_JOBS must be an integer, got {env!r}") from e


def build_parser() -> _Parser:
    parser = _Parser(prog="rankflow", description="Rank object saliency from fixation data, one subcommand per stage.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "synth", _cmd_synth, "generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scenes", dest="n_scenes", type=int, default=None)
    p.add_argument("--objects", default=None, help="min:max objects per scene")
    p.add_argument("--fixations", dest="fixations_per_scene", type=int, default=None)
    p.add_argument(
        "--no-maps", dest="render_maps", action="store_false", default=None, help="skip fixation map rendering"
    )

    p = _add_command(sub, "preprocess", _cmd_preprocess, "filter proposals and cache features")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--iou", dest="iou_discard", type=float, default=None)
    p.add_argument("--max-area", dest="max_area_frac", type=float, default=None)
    p.add_argument("--min-area", dest="min_area_px", type=float, default=None)

    p = _add_command(sub, "gt-gen", _cmd_gt_gen, "generate GT rank orders from fixation data")
    p.add_argument("--method", default=None, help="GT method; an unknown name is rejected with the list")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--binary-threshold", type=float, default=None)
    p.add_argument("--in", dest="in_dir", required=True)

    p = _add_command(sub, "gt-discrepancy", _cmd_gt_discrepancy, "rank-change totals between adjacent GT thresholds")
    p.add_argument("--gammas", default="0.1:1.0:0.1", help="start:stop:step grid")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--in", dest="in_dir", required=True)

    p = _add_command(sub, "train", _cmd_train, "train the window scorer", "model file")
    p.add_argument("--in", dest="in_dir", required=True, help="preprocessed dataset dir")
    p.add_argument("--gt", required=True, help="GT ranking CSV")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--window", type=int, default=None)

    p = _add_command(sub, "rank", _cmd_rank, "rank scenes with a trained scorer")
    p.add_argument("--in", dest="in_dir", required=True, help="preprocessed dataset dir")
    p.add_argument("--model", required=True)

    p = _add_command(sub, "map-rank", _cmd_map_rank, "rank scenes from plain saliency maps")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--maps", default=None, help="directory of <scene_id>.pgm maps")
    p.add_argument("--lambda", dest="lam", type=float, default=None)

    p = _add_command(sub, "eval", _cmd_eval, "compare predicted and GT rankings")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    return parser


def _cmd_synth(args, run_cfg, jobs):
    from .synth import generate_dataset

    objects = {}
    if args.objects:
        try:
            lo, hi = (int(x) for x in args.objects.split(":"))
        except ValueError as e:
            raise RankflowError(f"--objects expects min:max integers, got {args.objects!r}") from e
        objects = {"objects_min": lo, "objects_max": hi}
    cfg = _section_cfg(args, run_cfg, "synth", **objects)
    generate_dataset(cfg, args.out, jobs)
    return dataclasses.asdict(cfg), cfg.seed, f"wrote {cfg.n_scenes} scenes to {args.out}"


def _cmd_preprocess(args, run_cfg, jobs):
    """Filter every scene into ``scenes/`` and its features into ``features/``
    of a staging directory that ``publish_dirs`` puts in place of both only
    once every scene is done, so a failed run leaves ``--out`` as it was.  An
    ``--out`` that would replace ``--in`` is refused before anything is written."""
    from .ingest import publish_dirs
    from .pipeline import map_scenes, preprocess_one

    cfg = _section_cfg(args, run_cfg, "filter")
    out = Path(args.out).resolve()
    if Path(args.in_dir).resolve() in (out, out / "scenes", out / "features"):
        raise RankflowError(f"cannot preprocess {args.in_dir} into {args.out}: the output would replace the input")
    with publish_dirs(args.out, "scenes", "features") as staging:
        worker = partial(preprocess_one, staging=staging, cfg=cfg)
        rows = map_scenes(worker, args.in_dir, jobs, load_map=True)
    return dataclasses.asdict(cfg), None, f"preprocessed {len(rows)} scenes into {args.out}"


def _cmd_gt_gen(args, run_cfg, jobs):
    from .gtgen import MAP_METHODS, generate_ranking
    from .ingest import write_ranking
    from .pipeline import map_scenes

    cfg = _section_cfg(args, run_cfg, "gt")
    worker = partial(generate_ranking, cfg=cfg)
    write_ranking(map_scenes(worker, args.in_dir, jobs, load_map=cfg.method in MAP_METHODS), args.out)
    # raw_penalty: a removed option, recorded as off so the config hash still
    # matches records written while it existed.
    return {**dataclasses.asdict(cfg), "raw_penalty": False}, None, f"wrote GT rankings to {args.out}"


def gamma_grid(spec: str) -> list[float]:
    """Thresholds ``start + i * step`` up to stop (within 1e-9), rounded to 10
    decimals and none repeated, from a ``start:stop:step`` spec.

    Their count is worked out before any is built, so a bad step never loops.
    """
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as e:
        raise RankflowError(f"bad --gammas grid {spec!r}") from e
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise RankflowError(f"--gammas values must be finite, got {spec!r}")
    if not (0 < start <= stop and step > 0):
        raise RankflowError(f"--gammas needs 0 < start <= stop and step > 0, got {spec!r}")
    steps = (stop + 1e-9 - start) / step
    if not steps < _MAX_GAMMAS:  # inf too, when the division overflows
        raise RankflowError(f"--gammas {spec!r} gives more than {_MAX_GAMMAS} thresholds")
    thresholds = [round(start + i * step, 10) for i in range(int(steps) + 1)]
    if len(set(thresholds)) < len(thresholds):
        raise RankflowError(f"--gammas {spec!r} repeats a threshold once rounded to 10 decimals")
    return thresholds


def _cmd_gt_discrepancy(args, run_cfg, jobs):
    """Workers parse the scenes and count their boxes, so only the counts
    reach this process."""
    from .gtgen import discrepancy_offsets, rasrgt_counts
    from .ingest import write_csv
    from .pipeline import map_scenes

    cfg = _section_cfg(args, run_cfg, "gt")
    thresholds = gamma_grid(args.gammas)
    try:
        dataclasses.replace(cfg, gamma=thresholds[-1])  # the largest threshold gives the largest bonus
    except RankflowError as e:
        raise e.naming(f"--gammas {args.gammas}") from e
    counts = [c for _, c in map_scenes(rasrgt_counts, args.in_dir, jobs)]
    rows = discrepancy_offsets(counts, cfg, thresholds)
    write_csv(args.out, ["threshold", "t_offset"], [(f"{t:g}", offset) for t, offset in rows])
    return {"gammas": thresholds, "beta": cfg.beta}, None, f"wrote discrepancy offsets to {args.out}"


def _cmd_train(args, run_cfg, jobs):
    from .domain import check_integer
    from .ingest import parse_ranking
    from .pipeline import build_training_set
    from .rankcore import DEFAULT_WINDOW, MAX_WINDOW
    from .scorer import save_model, train

    cfg = _section_cfg(args, run_cfg, "train")
    if args.window is not None:  # a config's window_size is checked by load_run_config
        check_integer(args.window, "--window", 1, MAX_WINDOW)
    window = args.window if args.window is not None else run_cfg.get("window_size", DEFAULT_WINDOW)
    dataset = build_training_set(args.in_dir, parse_ranking(args.gt), window)
    result = train(dataset, cfg)
    save_model(result.model, args.out)
    losses = ", ".join(f"{x:.4f}" for x in result.epoch_losses[-3:])
    return dataclasses.asdict(cfg), cfg.seed, f"trained on {len(dataset)} windows; last losses: {losses}"


def _cmd_rank(args, run_cfg, jobs):
    """Rank every preprocessed scene.  The model fixes the window size: one
    class per within-window rank plus non-salient.  Workers read their own
    scene and features, so only paths and the model are sent to them."""
    from .ingest import write_ranking
    from .pipeline import load_preprocessed, rank_one
    from .preprocess import FEATURE_DIM
    from .rankcore import MAX_WINDOW
    from .scorer import load_model

    model = load_model(args.model)
    d_in, _, c = model.dims
    n_in = FEATURE_DIM + 4  # window_inputs adds 4 window-context columns
    if d_in != n_in or not 2 <= c <= MAX_WINDOW + 1:
        need = f"a model of {n_in} inputs and 2..{MAX_WINDOW + 1} classes"
        raise RankflowError(f"{args.model}: {need} is needed, got dims {model.dims}")
    ranker = partial(rank_one, model=model, window_size=c - 1)
    write_ranking(load_preprocessed(args.in_dir, ranker, jobs), args.out)
    return {"model": Path(args.model).name, "window_size": c - 1}, None, f"wrote rankings to {args.out}"


def _cmd_map_rank(args, run_cfg, jobs):
    from .domain import check_real
    from .ingest import write_ranking
    from .metrics import LAMBDA_RANGE
    from .pipeline import map_rank_one, map_scenes

    if args.lam is not None:
        check_real(args.lam, "--lambda", *LAMBDA_RANGE)
    lam = args.lam if args.lam is not None else run_cfg.get("lam", 0.5)
    maps_dir = Path(args.maps) if args.maps else None
    worker = partial(map_rank_one, maps_dir=maps_dir, lam=lam)
    write_ranking(map_scenes(worker, args.in_dir, jobs, load_map=maps_dir is None), args.out)
    return {"lambda": lam}, None, f"wrote map-based rankings to {args.out}"


def _cmd_eval(args, run_cfg, jobs):
    from .ingest import parse_ranking, write_atomic
    from .metrics import evaluate_rankings

    pred, gt = parse_ranking(args.pred), parse_ranking(args.gt)
    try:
        report = evaluate_rankings(pred, gt)
    except RankflowError as e:
        raise e.naming(f"{args.pred} and {args.gt}") from e
    doc = report.to_dict()
    write_atomic(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    config = {"pred": Path(args.pred).name, "gt": Path(args.gt).name}
    return config, None, f"mean SRCC {doc['mean_srcc']}, mean F1 {doc['mean_f1']}, skipped {doc['skipped']}"


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    from .ingest import write_provenance

    try:
        run_cfg, jobs = _common(args)
        config, seed, line = args.run(args, run_cfg, jobs)
        write_provenance(args.out, config, seed=seed)
        print(line, file=sys.stderr)
    except RankflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
