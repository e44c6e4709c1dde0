"""Shared fixtures: the certified catalog and seeded random case generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from pconvex.distributions import discrete, from_sample, uniform
from pconvex.functions import (
    antiderivative_from,
    exp_taylor_remainder,
    exponential,
    nonneg_weighted_sum,
    shifted_power,
    taylor_remainder,
)


def certified_members(p: int):
    """Catalog members expected to certify at order p, with their window.

    All members vanish at the left endpoint so they are also eligible for
    the ratio-monotonicity check.
    """
    members = [
        (shifted_power(p + 1.0, domain=(0.0, 1.0)), 0.0, 1.0),
        (shifted_power(p + 2.0, domain=(0.0, 1.0)), 0.0, 1.0),
        (shifted_power(p + 1.0, shift=0.5, domain=(0.5, 2.0)), 0.5, 2.0),
        (shifted_power(p + 3.0, domain=(0.0, 2.0)), 0.0, 2.0),
        (exp_taylor_remainder(p, domain=(0.0, 3.0)), 0.0, 3.0),
        (taylor_remainder(exponential(1.0, domain=(0.0, 3.0)), p), 0.0, 3.0),
        (nonneg_weighted_sum([(0.5, shifted_power(p + 1.0, domain=(0.0, 1.0))),
                              (2.0, shifted_power(p + 2.0, domain=(0.0, 1.0)))]),
         0.0, 1.0),
    ]
    if p >= 1:
        # antiderivative of a certified order-(p-1) member, offset removed
        g = shifted_power(max(p, 1.0), domain=(0.0, 1.5))
        members.append((antiderivative_from(g), 0.0, 1.5))
    return members


def numeric_fields(node, key=None) -> list:
    """(container, slot, key naming it) for every number in a JSON
    descriptor; a list entry is named by the key of its list."""
    slots = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    out = []
    for slot, value in slots:
        name = slot if isinstance(node, dict) else key
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append((node, slot, name))
        else:
            out += numeric_fields(value, name)
    return out


def random_bounded_rv(rng: np.random.Generator, a: float, b: float):
    """A random distribution supported in [a, b] (discrete, sample or density)."""
    choice = rng.integers(0, 3)
    if choice == 0:
        k = int(rng.integers(2, 6))
        atoms = np.sort(rng.uniform(a, b, size=k))
        probs = rng.dirichlet(np.ones(k))
        return discrete(atoms, probs, (a, b))
    if choice == 1:
        vals = rng.uniform(a, b, size=int(rng.integers(5, 40)))
        return from_sample(vals, (a, b))
    lo = rng.uniform(a, a + 0.25 * (b - a))
    hi = rng.uniform(lo + 0.25 * (b - a), b)
    return uniform(lo, hi)


# Entries a finite variable must refuse: non-finite or non-numeric.
_BAD_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, "x", None, [1.0], {"a": 1.0}])


@st.composite
def bad_points(draw):
    """A list of points that no discrete or sample variable may accept: empty,
    2-D, or valid floats with one bad entry inserted."""
    good = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=5))
    how = draw(st.sampled_from(["entry", "empty", "2-D"]))
    if how == "empty":
        return []
    if how == "2-D":
        return [good, good]
    i = draw(st.integers(min_value=0, max_value=len(good)))
    return good[:i] + [draw(_BAD_ENTRIES)] + good[i:]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
