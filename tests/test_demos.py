"""The demo scripts use only names and keyword arguments that the package
defines; read with ``ast``, nothing in a demo is run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 8


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_and_keywords_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "liqdrop":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    assert imported, "a demo imports from liqdrop"
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        obj = imported.get(node.func.id)
        if obj is None or not callable(obj):
            continue
        params = inspect.signature(obj).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                assert kw.arg in params, f"{node.func.id}({kw.arg}=...)"
