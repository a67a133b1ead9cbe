"""Every name a module of the package imports is read in that module.

An import that only exists to be rebound from outside carries `noqa: F401`
on its first line; every other unused import is left over from a removal.
"""
import ast

import pytest

from conftest import ROOT

MODULES = sorted(p for p in (ROOT / "src" / "lipcert").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "from dataclasses import dataclass\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["dataclass (line 1)"]
    assert unused_imports("import json  # noqa: F401\n") == []
