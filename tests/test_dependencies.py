"""rankflow needs numpy and nothing else at run time: every module of
``src/rankflow`` imports only the standard library, numpy and its own
modules (relative imports).  Only ``ingest`` touches the file system.  And
rankflow holds no dead public name."""
import ast
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


def test_runtime_imports_are_stdlib_or_numpy():
    imports = list(_absolute_imports())
    assert ("pipeline.py", "concurrent") in imports and ("metrics.py", "numpy") in imports
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert [(name, module) for name, module in imports if module not in allowed] == []


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
