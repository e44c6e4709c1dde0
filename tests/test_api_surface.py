"""The options of the public API, pinned.

Every parameter with a default is a setting a caller may change, and each
one is a path the tests must cover.  This table lists, for every callable
named in a pconvex module's `__all__`, the parameters that have defaults
(dataclass fields included).  A new option, or one that goes, changes the
table, so the change shows in review.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pconvex

_DEFAULTED = {
    "cli.main": ("argv",),
    "cli.run_problem": ("out",),
    "convexity.certify_loss_class": ("grid_size", "slack"),
    "convexity.certify_p_concave": ("grid_size", "slack"),
    "convexity.certify_p_convex": ("grid_size", "slack"),
    "distributions.MomentReport": ("error_estimate",),
    "distributions.RandomVariable": ("atoms", "probs", "values", "pdf", "density_family",
                                     "density_params"),
    "distributions.discrete": ("support",),
    "distributions.from_sample": ("support",),
    "functions.FunctionSpec": ("eval_fn", "derivatives", "descriptor", "leading", "jet"),
    "functions.affine_precompose": ("domain",),
    "functions.compose_inverse": ("horizon",),
    "functions.derivative_function": ("k",),
    "functions.exp_taylor_remainder": ("domain",),
    "functions.exponential": ("s", "domain"),
    "functions.log_affine": ("domain",),
    "functions.nonneg_weighted_sum": ("domain",),
    "functions.polynomial": ("domain",),
    "functions.shifted_power": ("shift", "domain"),
    "hermite.HHReport": ("mid_error",),
    "hermite.rl_integral": ("interval",),
    "jensen.BoundReport": ("value_error",),
    "numerics.QuadratureResult": ("refinements",),
    "numerics.integrate": ("left", "right"),
    "numerics.pnorm_shifted": ("scale",),
    "risk.certify_p_more_risk_averse": ("grid_size", "slack"),
    "risk.falsify_p_more_risk_averse": ("horizon", "directed_from"),
    "svgplot.render_lines": ("title",),
}


def _defaulted() -> dict[str, tuple[str, ...]]:
    """'module.name' -> its defaulted parameters, for each callable in the
    __all__ of every pconvex module that has at least one."""
    found = {}
    for info in pkgutil.iter_modules(pconvex.__path__):
        module = importlib.import_module(f"pconvex.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            params = inspect.signature(obj).parameters.values()
            defaulted = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
            if defaulted:
                found[f"{info.name}.{name}"] = defaulted
    return found


def test_defaulted_parameters_of_the_public_api():
    assert _defaulted() == _DEFAULTED

