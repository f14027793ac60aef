"""The benchmark's workloads: seeded set-up, the timed part, and output checks.

Each workload offers
  setup(seed, work)      inputs made from the seed (timed as setup_s)
  measure(state)         one untraced round with wall, CPU and peak-RSS figures
  run(state, span)       the same round's work in this process (traced runs)
  check(state, output)   (problems, checks.Quality) for a round's output
Rounds on one state are deterministic, so later rounds must reproduce the
first round's output exactly.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rankflow import cli, gtgen, metrics, preprocess, rankcore, scorer, synth
from rankflow.domain import Ranking
from rankflow.errors import RankflowError

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WINDOW = checks.WINDOW
MIB = 1024 * 1024
# `python -m rankflow.cli` does nothing (no __main__ guard), so stages call main() directly.
CLI_MAIN = "from rankflow.cli import main; main()"
STARTUP_PROBE = "import time; t = time.perf_counter(); import rankflow.cli; print(time.perf_counter() - t)"


def child_env() -> dict:
    """This process's environment (BLAS/OpenMP threads pinned by run.py), rankflow from src/.

    Children may write bytecode whatever the caller's setting, so stages start
    as an installed CLI does: from the cache the warm-up import wrote.
    """
    drop = ("RANKFLOW_JOBS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


@dataclass
class Measured:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    attempted: int
    failed: int
    output: object
    stages: dict = field(default_factory=dict)  # stage -> wall_s, cpu_s, peak_rss_mib


class PeakRss:
    """Highest resident set of this process, sampled every 20 ms while open."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()

    @staticmethod
    def _rss() -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    def _sample(self):
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, self._rss())

    def __enter__(self):
        self.peak = self._rss()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self._rss())


def measure_in_process(workload, state) -> Measured:
    gc.collect()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with PeakRss() as rss:
        output, attempted, failed = workload.run(state)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    return Measured(wall, cpu, rss.peak / MIB, attempted, failed, output)


class Launcher:
    """Client of launcher.py: runs commands from a small process (see there why)."""

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("launcher.py"))],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def run(self, argv, stderr_path) -> dict:
        self._proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self._proc.wait()}")
        return json.loads(line)

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


def _no_span(name):
    return contextlib.nullcontext()


# --- cli-flow -------------------------------------------------------------------


@dataclass
class FlowOutput:
    """A flow's output directory and the digest of every file in it."""

    directory: Path = field(compare=False)
    digests: dict


def _digests(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "stderr.log"
    }


class CliFlow:
    """synth -> preprocess -> gt-gen -> gt-discrepancy -> train -> rank -> map-rank -> eval,
    each subcommand in its own process, on a 640x480 dataset with rendered maps."""

    name = "cli-flow"
    scenes = 200
    staged = True  # rounds are CLI stages in their own processes
    stages = tracing.CLI_STAGES

    def setup(self, seed, work: Path) -> dict:
        """A warm-up import of the CLI in a fresh interpreter (compiles and caches bytecode)."""
        probe = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], env=child_env(), capture_output=True, text=True, check=True
        )
        return {"seed": seed, "work": work, "startup_s": float(probe.stdout.split()[-1])}

    def argvs(self, seed, d: Path, n_jobs: int) -> list[list[str]]:
        raw, pre = str(d / "raw"), str(d / "pre")
        gt, model, pred = str(d / "gt.csv"), str(d / "model.bin"), str(d / "pred.csv")
        j = ["--jobs", str(n_jobs)]
        return [
            ["synth", "--seed", str(seed), "--scenes", str(self.scenes), "--objects", "5:9",
             "--fixations", "1000", "--out", raw],
            ["preprocess", "--in", raw, "--out", pre, *j],
            ["gt-gen", "--method", "rasrgt", "--in", raw, "--out", gt, *j],
            ["gt-discrepancy", "--in", raw, "--out", str(d / "disc.csv")],
            ["train", "--in", pre, "--gt", gt, "--out", model, "--seed", str(seed)],
            ["rank", "--in", pre, "--model", model, "--out", pred, *j],
            ["map-rank", "--in", raw, "--out", str(d / "map.csv"), *j],
            ["eval", "--pred", pred, "--gt", gt, "--out", str(d / "report.json")],
        ]

    @staticmethod
    def _fresh(d: Path) -> Path:
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def measure(self, state) -> Measured:
        d = self._fresh(state["work"] / "flow")
        stages, failed = {}, 0
        with Launcher() as launch:
            t0 = time.perf_counter()
            for argv in self.argvs(state["seed"], d, jobs()):
                reply = launch.run([sys.executable, "-c", CLI_MAIN, *argv], d / "stderr.log")
                stages[argv[0]] = {
                    "wall_s": reply["wall_s"],
                    "cpu_s": reply["cpu_s"],
                    "peak_rss_mib": reply["maxrss_kib"] / 1024,
                }
                failed += reply["returncode"] != 0
            wall = time.perf_counter() - t0
        output = FlowOutput(d, _digests(d))
        cpu = sum(s["cpu_s"] for s in stages.values())
        peak = max(s["peak_rss_mib"] for s in stages.values())
        return Measured(wall, cpu, peak, len(self.stages), failed, output, stages)

    def run(self, state, span=_no_span):
        """The same flow through ``rankflow.cli.dispatch`` in this process, one job."""
        d = self._fresh(state["work"] / "flow-in-process")
        failed = 0
        for argv in self.argvs(state["seed"], d, 1):
            with span(f"stage.{argv[0]}"):
                failed += cli.dispatch(argv) != 0
        return FlowOutput(d, _digests(d)), len(self.stages), failed

    def check(self, state, output: FlowOutput):
        return checks.check_cli_flow(output.directory)


# --- in-process workloads ------------------------------------------------------


def _rank_all(items, make_scorer):
    """Rank every (scene, features, gt) item; scene_id -> labels, plus failures."""
    preds, failed = {}, 0
    for scene, feats, gt in items:
        try:
            preds[scene.scene_id] = rankcore.rank_scene(scene, feats, make_scorer(gt), WINDOW).labels
        except RankflowError:
            failed += 1
    return preds, failed


def _ranking_checks(items, preds, where) -> list[str]:
    """Valid rankings, and rankflow's SRCC equal to scipy's on every scene."""
    problems = []
    for scene, _, _ in items:
        real = [p.id for p in scene.proposals if not p.is_dummy]
        problems += checks.ranking_problems(preds.get(scene.scene_id, {}), real, f"{where}: {scene.scene_id}")
    if problems:
        return problems
    gts = {scene.scene_id: gt for scene, _, gt in items}
    report = metrics.evaluate_rankings({sid: Ranking(preds[sid]) for sid in gts}, gts)
    for entry in report.scenes:
        rho = checks.scipy_srcc(preds[entry.scene_id], gts[entry.scene_id].labels)
        if (rho is None) != (entry.srcc is None) or (rho is not None and abs(rho - entry.srcc) > checks.EVAL_TOL):
            problems.append(f"{where}: {entry.scene_id} rankflow SRCC {entry.srcc} != scipy {rho}")
    return problems


class _InProcess:
    staged = False

    def measure(self, state) -> Measured:
        return measure_in_process(self, state)


class TrainHeldout(_InProcess):
    """Scorer training on 500 scenes' windows, then ranking 300 held-out scenes."""

    name = "train-heldout"
    n_train = 500
    n_heldout = 300
    scenes = n_train + n_heldout
    epochs = 30

    def setup(self, seed, work: Path) -> dict:
        cfg = synth.SynthConfig(
            seed=seed, objects_min=5, objects_max=9, width=320, height=240,
            fixations_per_scene=300, render_maps=False,
        )
        items = []
        for idx in range(self.scenes):
            scene, _ = synth.generate_scene(cfg, idx)
            scene = preprocess.filter_proposals(scene)
            items.append((scene, preprocess.scene_features(scene), gtgen.rasrgt_rank(scene)))
        return {"seed": seed, "train": items[: self.n_train], "heldout": items[self.n_train:]}

    def run(self, state, span=_no_span):
        samples = []
        for scene, feats, gt in state["train"]:
            for window in rankcore.acb_sequences(len(scene.proposals), WINDOW):
                ids = tuple(scene.proposals[i].id for i in window.member_ids)
                samples.append(
                    (
                        rankcore.window_inputs(feats, window.member_ids),
                        scorer.window_gt_labels(gt, ids),
                        [scene.proposals[i].is_dummy for i in window.member_ids],
                    )
                )
        result = scorer.train(samples, scorer.TrainConfig(epochs=self.epochs, seed=state["seed"]))
        trained = scorer.make_scorer(result.model)
        preds, failed = _rank_all(state["heldout"], lambda gt: trained)
        return (result.epoch_losses, preds), self.n_heldout, failed

    def check(self, state, output):
        losses, preds = output
        items = state["heldout"]
        problems = _ranking_checks(items, preds, self.name)
        if problems:
            return problems, None
        gts = {scene.scene_id: gt.labels for scene, _, gt in items}
        q = checks.quality(preds, gts)
        # Shuffled-order baseline, as in acceptance criterion 7.
        rng = np.random.default_rng(state["seed"])
        baseline = []
        for labels in gts.values():
            ids = sorted(labels)
            orders = [labels[i] for i in ids]
            rng.shuffle(orders)
            rho = checks.scipy_srcc(dict(zip(ids, orders)), labels)
            if rho is not None:
                baseline.append(rho)
        if q.srcc_mean < 0.8:
            problems.append(f"{self.name}: held-out mean SRCC {q.srcc_mean:.4f} < 0.8")
        if q.srcc_mean <= np.mean(baseline):
            problems.append(f"{self.name}: SRCC {q.srcc_mean:.4f} not above shuffled {np.mean(baseline):.4f}")
        if not losses[-1] < losses[0]:
            problems.append(f"{self.name}: last epoch loss {losses[-1]} not below first {losses[0]}")
        return problems, q


class OracleRank(_InProcess):
    """rank_scene with the GT-backed oracle scorer, 40 scenes for each of n = 5..20."""

    name = "oracle-rank"
    sizes = range(5, 21)
    per_size = 40
    scenes = len(sizes) * per_size

    def setup(self, seed, work: Path) -> dict:
        items = []
        for n in self.sizes:
            cfg = synth.SynthConfig(
                seed=seed, objects_min=n, objects_max=n, width=320, height=240,
                fixations_per_scene=200, render_maps=False,
            )
            for j in range(self.per_size):
                scene, _ = synth.generate_scene(cfg, n * 1000 + j)
                items.append((scene, np.zeros((n, preprocess.FEATURE_DIM)), gtgen.rasrgt_rank(scene)))
        return {"seed": seed, "scenes": items}

    def run(self, state, span=_no_span):
        preds, failed = _rank_all(state["scenes"], scorer.oracle_scorer)
        return preds, self.scenes, failed

    def check(self, state, preds):
        items = state["scenes"]
        problems = _ranking_checks(items, preds, self.name)
        if problems:
            return problems, None
        gts = {scene.scene_id: gt.labels for scene, _, gt in items}
        for scene, _, _ in items:
            sid = scene.scene_id
            # Every pair shares a window when n <= 2W-1, so the oracle is recovered exactly.
            if len(scene.proposals) <= 2 * WINDOW - 1 and preds[sid] != gts[sid]:
                problems.append(f"{self.name}: {sid} (n={len(scene.proposals)}) not recovered exactly")
            if checks.set_f1(preds[sid], gts[sid]) != 1.0:
                problems.append(f"{self.name}: {sid} F1 {checks.set_f1(preds[sid], gts[sid])} != 1")
        return problems, checks.quality(preds, gts)


WORKLOADS = {w.name: w for w in (CliFlow(), TrainHeldout(), OracleRank())}
