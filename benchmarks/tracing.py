"""In-memory span tracer for the benchmark's traced runs.

Timers live here, not in ``src/``: ``Tracer.patched()`` replaces each public
function listed in ``TARGETS`` with a timing wrapper in every ``rankflow``
module that holds the name, so a call made through
``from .domain import count_fixations`` is timed as well, and puts the
originals back on exit.  Spans are kept as (name, start, end, parent) tuples
and turned into the per-layer metrics by ``summarise``.  A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped in a traced run.
TARGETS = [
    ("pipeline", "parallel_map"),
    ("pipeline", "load_preprocessed"),
    ("pipeline", "build_training_set"),
    ("synth", "generate_scene"),
    ("ingest", "parse_scene"),
    ("ingest", "parse_pgm"),
    ("ingest", "write_scene"),
    ("ingest", "write_pgm"),
    ("ingest", "write_ranking"),
    ("ingest", "parse_ranking"),
    ("preprocess", "filter_proposals"),
    ("preprocess", "scene_features"),
    ("preprocess", "write_features"),
    ("preprocess", "read_features"),
    ("domain", "count_fixations"),
    ("gtgen", "generate_ranking"),
    ("gtgen", "rasrgt_rank"),
    ("gtgen", "discrepancy_offsets"),
    ("gtgen", "map_region"),
    ("rankcore", "rank_scene"),
    ("rankcore", "window_inputs"),
    ("rankcore", "exclusive_classify"),
    ("rankcore", "hungarian"),
    ("rankcore", "aggregate_votes"),
    ("scorer", "train"),
    ("scorer", "loss_and_grad"),
    ("scorer", "mlp_forward"),
    ("scorer", "load_model"),
    ("metrics", "evaluate_rankings"),
    ("metrics", "srcc"),
    ("metrics", "rank_from_saliency_map"),
]

CLI_STAGES = ["synth", "preprocess", "gt-gen", "gt-discrepancy", "train", "rank", "map-rank", "eval"]

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "cli.startup_s": "s",
    **{f"cli.{stage}_s": "s" for stage in CLI_STAGES},
    "pipeline.parallel_map_s": "s",
    "pipeline.load_preprocessed_s": "s",
    "pipeline.build_training_set_s": "s",
    "synth.generate_scene_s": "s",
    "synth.generate_scene_calls": "count",
    "synth.fixations": "count",
    "ingest.parse_scene_s": "s",
    "ingest.parse_scene_calls": "count",
    "ingest.parse_pgm_s": "s",
    "ingest.parse_pgm_calls": "count",
    "ingest.write_scene_s": "s",
    "ingest.write_pgm_s": "s",
    "ingest.ranking_io_s": "s",
    "ingest.bytes_read": "bytes",
    "preprocess.filter_proposals_s": "s",
    "preprocess.proposals_in": "count",
    "preprocess.proposals_kept": "count",
    "preprocess.dummies_padded": "count",
    "preprocess.scene_features_s": "s",
    "preprocess.feature_io_s": "s",
    "domain.count_fixations_s": "s",
    "domain.count_fixations_calls": "count",
    "domain.fixations_scanned": "count",
    "gtgen.generate_ranking_s": "s",
    "gtgen.rasrgt_rank_s": "s",
    "gtgen.rasrgt_rank_calls": "count",
    "gtgen.discrepancy_offsets_s": "s",
    "gtgen.map_region_calls": "count",
    "rankcore.rank_scene_s": "s",
    "rankcore.rank_scene_ms.p50": "ms",
    "rankcore.rank_scene_ms.p99": "ms",
    "rankcore.windows": "count",
    "rankcore.scorer_calls": "count",
    "rankcore.window_inputs_s": "s",
    "rankcore.exclusive_classify_s": "s",
    "rankcore.hungarian_s": "s",
    "rankcore.hungarian_us.p50": "us",
    "rankcore.aggregate_votes_s": "s",
    "scorer.train_s": "s",
    "scorer.sgd_steps": "count",
    "scorer.step_us": "us",
    "scorer.loss_and_grad_s": "s",
    "scorer.mlp_forward_s": "s",
    "scorer.mlp_forward_calls": "count",
    "scorer.load_model_s": "s",
    "scorer.load_model_calls": "count",
    "metrics.evaluate_rankings_s": "s",
    "metrics.srcc_calls": "count",
    "metrics.rank_from_saliency_map_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Metrics summed over self times: metric -> span names.
_SELF_TIME = {
    "ingest.ranking_io_s": ("ingest.write_ranking", "ingest.parse_ranking"),
    "preprocess.feature_io_s": ("preprocess.write_features", "preprocess.read_features"),
}
_CALLS = {
    "rankcore.windows": "rankcore.exclusive_classify",
    "scorer.sgd_steps": "scorer.loss_and_grad",
    "metrics.srcc_calls": "metrics.srcc",
}
# Percentile metrics: metric -> (span name, percentile, unit scale from seconds).
_PERCENTILES = {
    "rankcore.rank_scene_ms.p50": ("rankcore.rank_scene", 50, 1e3),
    "rankcore.rank_scene_ms.p99": ("rankcore.rank_scene", 99, 1e3),
    "rankcore.hungarian_us.p50": ("rankcore.hungarian", 50, 1e6),
}


def _real_count(scene) -> int:
    return sum(1 for p in scene.proposals if not p.is_dummy)


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _count_hooks():
    """span name -> fn(tracer, args, kwargs, result) adding to counters."""

    def fixations(t, a, k, r):
        t.counts["synth.fixations"] += len(r[0].fixations)

    def bytes_read(t, a, k, r):
        t.counts["ingest.bytes_read"] += _file_size(a[0] if a else k["path"])

    def filtered(t, a, k, r):
        scene = a[0] if a else k["scene"]
        t.counts["preprocess.proposals_in"] += _real_count(scene)
        t.counts["preprocess.proposals_kept"] += _real_count(r)
        pad = (len(r.proposals) - _real_count(r)) - (len(scene.proposals) - _real_count(scene))
        t.counts["preprocess.dummies_padded"] += pad

    def scanned(t, a, k, r):
        t.counts["domain.fixations_scanned"] += len(a[1] if len(a) > 1 else k["pts"])

    return {
        "synth.generate_scene": fixations,
        "ingest.parse_scene": bytes_read,
        "ingest.parse_pgm": bytes_read,
        "ingest.parse_ranking": bytes_read,
        "preprocess.filter_proposals": filtered,
        "domain.count_fixations": scanned,
    }


class Tracer:
    """Spans of one single-threaded run, nested through a stack, plus counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._hooks = _count_hooks()

    def _open(self, name) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name):
        idx, parent = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, parent, start)

    def wrap(self, name, fn):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if name == "rankcore.rank_scene":
                args, kwargs = self._count_scorer(args, kwargs)
            idx, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, parent, start)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return timed

    def _count_scorer(self, args, kwargs):
        """rank_scene's scorer argument, wrapped to count calls."""
        scorer = args[2] if len(args) > 2 else kwargs["scorer"]

        def counted(*a, **k):
            self.counts["rankcore.scorer_calls"] += 1
            return scorer(*a, **k)

        if len(args) > 2:
            return (*args[:2], counted, *args[3:]), kwargs
        return args, {**kwargs, "scorer": counted}

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in every loaded rankflow module; restore on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rankflow" or n.startswith("rankflow.")]
        undo = []
        for mod_name, fn_name in TARGETS:
            orig = getattr(sys.modules[f"rankflow.{mod_name}"], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    undo.append((mod, fn_name, orig))
        try:
            yield self
        finally:
            for mod, fn_name, orig in reversed(undo):
                setattr(mod, fn_name, orig)

    def mark(self) -> tuple[int, dict]:
        """Position to summarise from: spans and counters recorded after it."""
        return len(self.spans), dict(self.counts)

    def write(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def summarise(tracer: Tracer, mark: tuple[int, dict]) -> tuple[dict, dict]:
    """Additive per-layer metrics and per-span durations since ``mark``.

    Returns (metrics, durations) where durations maps a span name to the list
    of its total durations, for the percentile metrics.
    """
    first, counts_before = mark
    spans = tracer.spans[first:]
    child = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= first:
            child[parent] += end - start
    self_time = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    durations = defaultdict(list)
    for i, (name, start, end, parent) in enumerate(spans, start=first):
        self_time[name] += (end - start) - child[i]
        total[name] += end - start
        calls[name] += 1
        durations[name].append(end - start)

    out = {}
    for metric, unit in LAYER_UNITS.items():
        if metric in tracer.counts:
            out[metric] = tracer.counts[metric] - counts_before.get(metric, 0)
        elif metric in _SELF_TIME:
            out[metric] = sum(self_time[n] for n in _SELF_TIME[metric])
        elif metric in _CALLS:
            out[metric] = calls[_CALLS[metric]]
        elif metric.endswith("_calls"):
            out[metric] = calls[metric[: -len("_calls")]]
        elif unit == "s":
            out[metric] = self_time[metric[: -len("_s")]]
    steps = calls["scorer.loss_and_grad"]
    out["scorer.step_us"] = total["scorer.train"] / steps * 1e6 if steps else 0.0
    out["trace.spans"] = len(spans)
    for metric in LAYER_UNITS:
        out.setdefault(metric, 0.0)
    return out, durations


def percentiles(durations: dict) -> dict:
    out = {}
    for metric, (name, q, scale) in _PERCENTILES.items():
        vals = durations.get(name, [])
        out[metric] = float(np.percentile(vals, q)) * scale if vals else 0.0
    return out
