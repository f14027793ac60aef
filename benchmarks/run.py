"""rankflow benchmark: one command runs a workload, checks its outputs and
prints its metrics.

    python3 benchmarks/run.py --workload cli-flow --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Every run also
writes ``.benchrun/results/BENCH_<workload>_seed<seed>_<mode>.json`` (plus the
span table for traced runs) with the machine and version details next to the
numbers.  See benchmarks/README.md.
"""
from __future__ import annotations

import os

# BLAS/OpenMP pools are pinned to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".benchrun"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "scenes_per_s": "scenes/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "srcc_mean": "1",
    "f1_mean": "1",
    "exact_rankings": "scenes",
}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


class Verifier:
    """Checks the first output of a run in full and later ones for equality with it."""

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.first = None
        self.quality = None
        self.problems: list[str] = []

    def __call__(self, output, label: str) -> None:
        if self.first is None:
            self.first = output
            problems, self.quality = self.workload.check(self.state, output)
            self.problems += problems
        elif output != self.first:
            self.problems.append(f"{label}: output differs from the first round's")


def run_untraced(wl, seed, seconds, work) -> tuple[dict, int, int, list, dict]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        setup_times.append(time.perf_counter() - t0)
    verify = Verifier(wl, state)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        m = wl.measure(state)
        rounds.append(m)
        verify(m.output, f"round {len(rounds)}")
    wall = statistics.median(m.wall_s for m in rounds)
    q = verify.quality
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "scenes_per_s": wl.scenes / wall,
        "cpu_s": statistics.median(m.cpu_s for m in rounds),
        "peak_rss_mib": max(m.peak_rss_mib for m in rounds),
        "srcc_mean": q.srcc_mean if q else 0.0,
        "f1_mean": q.f1_mean if q else 0.0,
        "exact_rankings": q.exact_rankings if q else 0,
    }
    detail = {
        "setup_s": setup_times,
        "rounds": [
            {"wall_s": m.wall_s, "cpu_s": m.cpu_s, "peak_rss_mib": m.peak_rss_mib, "stages_s": m.stages}
            for m in rounds
        ],
    }
    attempted = sum(m.attempted for m in rounds)
    failed = sum(m.failed for m in rounds)
    return metrics, attempted, failed, verify.problems, detail


def run_traced(wl, seed, seconds, work, spans_file) -> tuple[dict, int, int, list, dict]:
    tracer = tracing.Tracer()
    t_run = time.perf_counter()
    t0 = time.perf_counter()
    state = wl.setup(seed, work)
    plain_setup = time.perf_counter() - t0
    setup_layers = dict.fromkeys(tracing.LAYER_UNITS, 0.0)
    durations: dict[str, list] = {}
    traced_setup = plain_setup
    if not wl.staged:  # a staged workload's set-up is a subprocess import, nothing to trace
        state = None
        gc.collect()
        mark = tracer.mark()
        with tracer.patched(), tracer.span("setup"):
            t0 = time.perf_counter()
            state = wl.setup(seed, work)
            traced_setup = time.perf_counter() - t0
        setup_layers, durations = tracing.summarise(tracer, mark)

    verify = Verifier(wl, state)
    attempted = failed = 0
    plain, traced, round_layers, stages = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if wl.staged:
            # Per-stage times come from the untraced subprocess flow.
            m = wl.measure(state)
            verify(m.output, "subprocess flow")
            stages.append(m.stages)
            attempted, failed = attempted + m.attempted, failed + m.failed
        gc.collect()
        t0 = time.perf_counter()
        output, a, f = wl.run(state)
        plain.append(time.perf_counter() - t0)
        verify(output, "untraced in-process round")
        attempted, failed = attempted + a, failed + f
        gc.collect()
        mark = tracer.mark()
        with tracer.patched(), tracer.span("round"):
            t0 = time.perf_counter()
            output, a, f = wl.run(state, tracer.span)
            traced.append(time.perf_counter() - t0)
        verify(output, "traced round")
        attempted, failed = attempted + a, failed + f
        layers, durs = tracing.summarise(tracer, mark)
        round_layers.append(layers)
        for name, vals in durs.items():
            durations.setdefault(name, []).extend(vals)

    metrics = {
        k: setup_layers[k] + statistics.median(r[k] for r in round_layers) for k in tracing.LAYER_UNITS
    }
    metrics.update(tracing.percentiles(durations))
    if wl.staged:
        metrics["cli.startup_s"] = state["startup_s"]
        for stage in wl.stages:
            metrics[f"cli.{stage}_s"] = statistics.median(s[stage]["wall_s"] for s in stages)
    metrics["trace.overhead_s"] = (traced_setup - plain_setup) + statistics.median(traced) - statistics.median(plain)
    tracer.write(spans_file, t_run)
    detail = {
        "untraced_setup_s": plain_setup,
        "traced_setup_s": traced_setup,
        "untraced_rounds_s": plain,
        "traced_rounds_s": traced,
        "stages_s": stages,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, attempted, failed, verify.problems, detail


def run_workload(wl, seed, seconds, trace) -> dict:
    name = wl.name
    mode = "trace" if trace else "e2e"
    label = f"{name}_seed{seed}_{mode}"
    work = OUT / "work" / f"{label}-{os.getpid()}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, attempted, failed, problems, detail = run_traced(
                wl, seed, seconds, work, results / f"BENCH_{label}.spans.csv"
            )
            units = tracing.LAYER_UNITS
        else:
            metrics, attempted, failed, problems, detail = run_untraced(wl, seed, seconds, work)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        **result,
        "problems": problems,
        "detail": detail,
    }
    (results / f"BENCH_{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for k, m in result["metrics"].items():
        print(f"{name:14s} {k:34s} {m['value']:>16.6f} {m['unit']}")
    print(f"{name:14s} attempted {attempted} failed {failed} correct {result['correct']}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="cli-flow, train-heldout, oracle-rank or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rankflow" / "__init__.py").is_file():
        print(f"error: no rankflow sources under {ROOT / 'src'}; run from a rankflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    print("environment " + json.dumps(environment(), sort_keys=True))
    results = {n: run_workload(workloads.WORKLOADS[n], args.seed, args.seconds, args.trace) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
