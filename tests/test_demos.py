"""The demos import only names the package has.

Each script under ``demos/`` is parsed, not run: running them takes
minutes. A name a demo imports from ``regimix`` that the package no longer
has fails here instead of at the demo's first run.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "regimix":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
                imported += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "regimix":
                    importlib.import_module(alias.name)
                    imported += 1
    assert imported, f"{path.name} imports nothing from regimix"
