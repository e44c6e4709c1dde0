"""The likelihood tables are reduced along contiguous component rows.

numpy reduces a short trailing axis one datum at a time, so a reduction
along axis=1 of an n x K table (K = 2 in the EM demo) costs several times
as much as the same reduction of a contiguous K x n copy along axis 0,
copy included, which is what mgf._by_row does.  This scan fails on any
reduction in mgf.py whose axis is not the literal 0, given by keyword or
by position, so the layout cannot quietly regress.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import pconvex.mgf

# numpy reductions and the ufunc method, which take the axis after the
# array when called as np.<name>(a, axis) or <ufunc>.reduce(a, axis), and
# first when called as a method of the array, a.<name>(axis)
_REDUCTIONS = {"all", "amax", "amin", "any", "argmax", "argmin", "max", "mean",
               "min", "prod", "reduce", "sum"}


def _off_axis_reductions(source: str, name: str) -> list[str]:
    """'name:line: axis' of every call that names an axis other than 0."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not isinstance(node, ast.Call):
            continue
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _REDUCTIONS:
            on_array = not (func.attr == "reduce" or (
                isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")))
            position = 0 if on_array else 1
            if len(node.args) > position:
                axes.append(node.args[position])
        found += [f"{name}:{node.lineno}: axis={ast.unparse(axis)}" for axis in axes
                  if not (isinstance(axis, ast.Constant) and axis.value == 0)]
    return found


def test_mgf_reduces_only_along_axis_0():
    path = Path(pconvex.mgf.__file__)
    assert _off_axis_reductions(path.read_text(), path.name) == []


@pytest.mark.parametrize("line, axis", [
    ("r.max(axis=1)", "1"), ("np.sum(q * r, axis=-1)", "-1"),
    ("np.all(ok, axis=(0, 1))", "(0, 1)"), ("like.sum(1)", "1"),
    ("np.prod(table, 1)", "1"), ("np.add.reduce(table, k)", "k"),
    ("np.add.reduce(table, axis=0)", None), ("r.max(0)", None),
    ("np.argmax(bad)", None), ("resp.sum(axis=0)", None),
])
def test_the_scan_finds_other_axes(line, axis):
    want = [] if axis is None else [f"case.py:1: axis={axis}"]
    assert _off_axis_reductions(line, "case.py") == want
