"""Every memo cache in pconvex can be emptied from its module.

The benchmark empties, before each round, every module attribute of pconvex
that has a `cache_clear`, so that each round repeats the same work.  A cache
on a method, a nested function or an inline `lru_cache(...)(f)` would escape
that and let later rounds skip work; this scan finds each use of
functools.lru_cache / functools.cache and checks that it decorates a
module-level function whose module attribute has `cache_clear`.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pconvex

_CACHES = {"cache", "lru_cache"}


def _cache_references(tree: ast.Module) -> list[ast.expr]:
    """Every functools.cache / functools.lru_cache reference outside imports."""
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = {alias.asname or alias.name for node in imports
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in _CACHES}
    modules = {alias.asname or alias.name for node in imports if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr in _CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules)]


def _memoized() -> tuple[list[str], list[str]]:
    """'module.name' of each cached module-level function, and the lines of
    any reference that is not such a decorator."""
    found, stray = [], []
    for path in sorted(Path(pconvex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        decorating = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    decorating[id(dec.func if isinstance(dec, ast.Call) else dec)] = node.name
        for ref in _cache_references(tree):
            if id(ref) in decorating:
                found.append(f"{path.stem}.{decorating[id(ref)]}")
            else:
                stray.append(f"{path.name}:{ref.lineno}")
    return found, stray


def test_every_memo_cache_is_a_module_attribute_with_cache_clear():
    found, stray = _memoized()
    assert not stray, f"caches the per-round clearing cannot reach: {stray}"
    assert {"cli._build_parser", "numerics._leggauss", "numerics._shared_rule",
            "numerics._skeleton", "risk._unit_members"} <= set(found)
    for qualified in found:
        module, name = qualified.split(".")
        cached = vars(importlib.import_module(f"pconvex.{module}"))[name]
        cached.cache_clear()
        assert cached.cache_info().currsize == 0, qualified
