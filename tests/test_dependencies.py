"""rankflow needs numpy and nothing else at run time: every module of
``src/rankflow`` imports only the standard library, numpy and its own
modules (relative imports)."""
import ast
import sys
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
