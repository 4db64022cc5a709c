"""The package declares no runtime dependency, so it may import none:
every absolute import under ``src/repro`` names the standard library or
``repro`` itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_import_is_stdlib_or_repro():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    foreign = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _absolute_imports(path)
        if name.split(".")[0] not in allowed
    ]
    assert foreign == []
