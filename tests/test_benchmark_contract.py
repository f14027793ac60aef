"""The names the benchmark harness reaches into ``rankflow`` for, and its
in-process workloads run once.

``benchmarks/`` is run against each commit as it stands, so a function it
traces or calls that is renamed or deleted in ``src/`` breaks its runs with
an ``AttributeError``, and one whose signature or results change breaks its
checks; these tests catch both here.
"""
import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _resolves(module: str, name: str) -> bool:
    return hasattr(importlib.import_module(f"rankflow.{module}"), name)


def _code_trees(tree: ast.AST):
    """``tree``, and every string constant in it that is Python code itself,
    such as the one-liners the harness runs with ``python -c``."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def _workload_names() -> set[tuple[str, str]]:
    """Every (module, name) of ``rankflow`` that ``benchmarks/workloads.py``
    imports or reads as an attribute of a module it imported."""
    names, aliases = set(), {}
    trees = list(_code_trees(ast.parse((BENCHMARKS / "workloads.py").read_text())))
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "rankflow":
                aliases.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rankflow."):
                names.update((node.module.split(".", 1)[1], a.name) for a in node.names)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add((aliases[node.value.id], node.attr))
    return names


def test_traced_functions_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    targets = importlib.import_module("tracing").TARGETS
    assert ("synth", "generate_scene") in targets
    assert [t for t in targets if not _resolves(*t)] == []


def test_workload_names_exist():
    names = _workload_names()
    for expected in (
        ("synth", "generate_scene"),
        ("rankcore", "acb_sequences"),
        ("scorer", "window_gt_labels"),
        ("scorer", "oracle_scorer"),
        ("cli", "main"),
        ("domain", "Ranking"),
    ):
        assert expected in names
    assert sorted(n for n in names if not _resolves(*n)) == []


@pytest.mark.parametrize("name", ["train-heldout", "oracle-rank"])
def test_in_process_workload_runs_clean(monkeypatch, tmp_path, name):
    """One round at seed 1 as the harness runs it: setup, run, then check."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    state = workload.setup(1, tmp_path)
    output, _, failed = workload.run(state)
    problems, _ = workload.check(state, output)
    assert (problems, failed) == ([], 0)


def test_cli_flow_outputs_pass_the_benchmark_checks(monkeypatch, tmp_path):
    """The 12-scene flow of ``benchmarks/selftest.py``: every CLI stage in
    this process, and the benchmark's own checks on what they wrote, which
    read the scene, PGM and ``.feat`` files directly."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    flow = importlib.import_module("workloads").CliFlow()
    flow.scenes = 12
    output, _, failed = flow.run({"seed": 11, "work": tmp_path})
    problems, _ = importlib.import_module("checks").check_cli_flow(output.directory)
    assert (problems, failed) == ([], 0)


# Per-layer metrics that read 0 in a traced in-process round for reasons of
# the harness, not of rankflow: synth makes its scenes and maps in forked
# workers, whose spans never reach the tracer; scorer.train steps through
# batch_grads, not the loss_and_grad that the tracer counts; the 12-scene
# flow's scenes all keep at least five proposals, so none is padded; and the
# cli.* stage times, the percentiles and the trace overhead are filled in
# from untraced runs, not by summarise.
KNOWN_ZERO = {
    "synth.generate_scene_s",
    "synth.generate_scene_calls",
    "synth.fixations",
    "ingest.write_pgm_s",
    "scorer.sgd_steps",
    "scorer.loss_and_grad_s",
    "scorer.step_us",
    "preprocess.dummies_padded",
    "rankcore.rank_scene_ms.p50",
    "rankcore.rank_scene_ms.p99",
    "rankcore.hungarian_us.p50",
    "trace.overhead_s",
}


def test_traced_cli_flow_reaches_every_layer(monkeypatch, tmp_path):
    """A traced 12-scene flow in this process: every per-layer metric the
    tracer can see moves, so a traced function that the flow stops calling
    by its traced name shows here as a metric that reads 0."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    flow = importlib.import_module("workloads").CliFlow()
    flow.scenes = 12
    tracer = tracing.Tracer()
    mark = tracer.mark()
    with tracer.patched():
        _, _, failed = flow.run({"seed": 11, "work": tmp_path}, tracer.span)
    metrics, _ = tracing.summarise(tracer, mark)
    expected = [m for m in tracing.LAYER_UNITS if not m.startswith("cli.") and m not in KNOWN_ZERO]
    assert "preprocess.scene_features_s" in expected and "gtgen.discrepancy_offsets_s" in expected
    assert ([m for m in expected if metrics[m] == 0], failed) == ([], 0)
