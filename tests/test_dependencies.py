"""rankflow needs numpy and nothing else at run time: every module of
``src/rankflow`` imports only the standard library, numpy and its own
modules (relative imports), and the CLI loads only what a stage runs.  Only
``ingest`` touches the file system, and only ``cli.dispatch`` records
provenance and prints a stage's log line.  And rankflow holds no dead public
name, and parses as the oldest Python that pyproject.toml admits."""
import ast
import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import rankflow


def _absolute_imports():
    """(file name, top-level module) of every absolute import in rankflow."""
    for path in sorted(Path(rankflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module.split(".")[0]


def test_source_parses_at_the_python_floor():
    """No module uses syntax newer than ``requires-python``'s floor (3.10
    today), which a test run on a newer interpreter would not notice."""
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    assert floor is not None, "pyproject.toml states no requires-python floor"
    paths = sorted(Path(rankflow.__file__).parent.glob("*.py"))
    assert "rankcore.py" in [path.name for path in paths]
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=tuple(map(int, floor.groups())))


def test_runtime_imports_are_stdlib_or_numpy():
    imports = list(_absolute_imports())
    assert ("pipeline.py", "concurrent") in imports and ("metrics.py", "numpy") in imports
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert [(name, module) for name, module in imports if module not in allowed] == []


# Loads rankflow.cli, then runs --help, a usage error and an eval; after each
# it prints the numpy, process-pool and rankflow modules then loaded.
_START_UP_PROBE = """
import json, sys
from rankflow import cli

def loaded():
    return sorted(m for m in sys.modules if m in ("numpy", "concurrent.futures") or m.startswith("rankflow."))

seen = {"import": loaded()}
assert cli.dispatch(["--help"]) == 0
seen["help"] = loaded()
assert cli.dispatch(["eval", "--pred", sys.argv[1], "--gt", sys.argv[1]]) == 1  # no --out
seen["usage"] = loaded()
assert cli.dispatch(["eval", "--pred", sys.argv[1], "--gt", sys.argv[1], "--out", sys.argv[2]]) == 0
seen["eval"] = loaded()
print(json.dumps(seen))
"""


def test_cli_start_up_loads_only_what_it_runs(tmp_path):
    """``import rankflow.cli``, ``--help`` and a usage error load no numpy,
    no process pool and no stage module; an eval loads no pool and no synth."""
    ranking = tmp_path / "r.csv"
    ranking.write_text("scene_id,proposal_id,order\ns,0,1\ns,1,2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(rankflow.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_PROBE, str(ranking), str(tmp_path / "e.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "help", "usage"):
        assert seen[step] == ["rankflow.cli", "rankflow.errors"], step
    assert "numpy" in seen["eval"] and "rankflow.metrics" in seen["eval"]
    assert not {"concurrent.futures", "rankflow.pipeline", "rankflow.synth"} & set(seen["eval"])


# Standard-library modules, methods and os functions that open, write, move
# or delete files.
FILE_MODULES = {"csv", "io", "shutil", "tempfile"}
FILE_METHODS = {"open", "write_bytes", "write_text", "mkdir", "unlink", "rename"}
OS_FILE_CALLS = {"os.replace", "os.rename", "os.remove", "os.unlink", "os.mkdir", "os.makedirs", "os.rmdir"}


def _file_system_uses(path):
    """Each import of a module of FILE_MODULES and each file call in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name in FILE_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in FILE_MODULES:
            yield node.module
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            if name in OS_FILE_CALLS or name.rpartition(".")[2] in FILE_METHODS:
                yield name


def test_only_ingest_touches_files():
    """How a file or a dataset directory is written, moved or removed, and
    how CSV is formatted, is decided in ``ingest`` alone."""
    uses = {path.name: set(_file_system_uses(path)) for path in sorted(Path(rankflow.__file__).parent.glob("*.py"))}
    assert {"csv", "shutil", "tempfile", "os.replace", "tmp.write_bytes"} <= uses.pop("ingest.py")
    assert {name: found for name, found in uses.items() if found} == {}


# Public names that only tests use, each with the reason it stays.
TEST_ONLY_NAMES = {
    ("synth", "latent_ranking"): "the reference order acceptance criterion 8 checks recovery against",
}


def _names_in(node):
    """Every name ``node`` mentions: identifiers, attributes, imported names,
    and the dotted parts of string constants (benchmark trace targets)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.split(".")[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from sub.value.split(".")


def test_every_public_name_has_a_caller():
    """Each public top-level function or class of rankflow is named in
    ``src/`` outside its own definition, or in ``benchmarks/``."""
    src = Path(rankflow.__file__).parent
    benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
    defined, named_in = [], defaultdict(set)  # name -> (module, top-level name) of each statement naming it
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined.append((path.stem, own))
            for name in _names_in(stmt):
                named_in[name].add((path.stem, own))
    for path in sorted(benchmarks.glob("*.py")):
        for name in _names_in(ast.parse(path.read_text(encoding="utf-8"))):
            named_in[name].add(("benchmarks", path.stem))
    uncalled = [(module, name) for module, name in defined if not named_in[name] - {(module, name)}]
    assert ("cli", "main") in defined and ("scorer", "loss_and_grad") not in uncalled
    assert uncalled == sorted(TEST_ONLY_NAMES)


def test_every_error_kind_is_caught():
    """A subclass of RankflowError earns its place only where an ``except``
    in rankflow catches it by kind; any other data error is a plain
    RankflowError whose message names the file and the field."""
    src = Path(rankflow.__file__).parent
    kinds = [stmt.name for stmt in ast.parse((src / "errors.py").read_text(encoding="utf-8")).body
             if isinstance(stmt, ast.ClassDef)]
    caught = {
        name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        for name in _names_in(node.type)
    }
    assert "RankflowError" in kinds
    assert [kind for kind in kinds if kind not in caught] == []


def test_dispatch_alone_records_and_logs():
    """Provenance is written in one place, ``cli.dispatch``, and no ``_cmd_*``
    handler prints: each returns its config, seed and log line instead."""
    users = defaultdict(set)  # name -> (module, top-level name) of each statement using it
    for path in sorted(Path(rankflow.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    users[name].add((path.stem, getattr(stmt, "name", None)))
    assert users["write_provenance"] == {("cli", "dispatch")}
    assert ("cli", "dispatch") in users["print"]
    assert [(module, name) for module, name in users["print"] if str(name).startswith("_cmd_")] == []
