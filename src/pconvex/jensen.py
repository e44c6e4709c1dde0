"""Tightened Jensen-type bounds driven by convexity certificates.

The lower bound replaces E X with the shifted norm a + ||X - a||_{p+1},
which dominates the mean, so for certified increasing members the result
always sits between the classical Jensen bound f(E X) and the true E f(X).
The upper bound interpolates the endpoints with the normalized (p+1)-th
moment in place of the first, tightening the classical secant.

Every bound *requires* a passing certificate; invoking one with a failing
or mismatched certificate raises CertificateError rather than silently
producing a number without its hypothesis.

Direction note: for the right-anchored concave class the analogous
evaluation f(b - ||b - X||_{p+1}) dominates E f(X) (it tightens the
classical concave-side bound f(E X) from below E X), so that report is
marked direction="upper" even though its historical kind string says
"lower".  The report invariants are stated against `direction`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .convexity import ConvexityCertificate, _require_certificate
from .distributions import RandomVariable, expect, reflected, shifted_moment
from .errors import CertificateError, UnboundedSupportError
from .functions import FunctionSpec
from .numerics import EQ_ABS, EQ_REL

__all__ = [
    "BoundReport",
    "jensen_lower",
    "jensen_lower_decreasing",
    "jensen_upper",
]

@dataclass(frozen=True)
class BoundReport:
    """A computed bound, its classical comparator, and the oracle.

    gap_to_oracle is oriented so that a valid bound makes it nonnegative:
    oracle - value for direction="lower", value - oracle for "upper".
    gap_to_classical is oriented the same way (how much the bound improves
    on its classical comparator).

    inputs_digest hashes the function label, X's digest, p and kind on
    first read, since a sample's digest hashes all its values and most
    reports are never serialized.
    """

    kind: str
    direction: str
    p: int
    interval: tuple[float, float]
    value: float
    oracle: float
    oracle_error: float
    classical: float
    gap_to_oracle: float
    gap_to_classical: float
    # moment quadrature/truncation error propagated through f to the value
    value_error: float = 0.0
    # the function label and variable that inputs_digest names; reports
    # compare by them and hash without them (a sample is not hashable)
    inputs: tuple[str, RandomVariable] = field(kw_only=True, repr=False, hash=False)

    @cached_property
    def inputs_digest(self) -> str:
        label, X = self.inputs
        payload = json.dumps({"f": label, "X": X.digest(), "p": self.p, "kind": self.kind},
                             sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _value_error(f: FunctionSpec, point: float, moment_error: float) -> float:
    """First-order propagation of the moment error through f at the
    evaluation point (zero for exact discrete moments)."""
    if moment_error == 0.0:
        return 0.0
    return abs(float(f.eval_on(point, 1))) * moment_error


def _report(where: str, kind: str, direction: str, klass: str,
            estimate: Callable[..., tuple[float, float, float]],
            f: FunctionSpec, cert: ConvexityCertificate, X: RandomVariable) -> BoundReport:
    """The skeleton shared by every Jensen bound: certificate requirement,
    support check, mean, estimate, oracle and gaps oriented by direction.
    The estimate maps (f, X, a, b, p, mean) to the bound's value, its
    classical comparator and the moment error propagated to the value.

    Only the lower bound extends to [a, inf); the others evaluate at the
    right endpoint and need bounded support.
    """
    _require_certificate(cert, klass, where)
    if cert.p < 1:
        raise CertificateError(f"{where} needs certification order p >= 1")
    a, b = cert.interval
    bounded = direction == "upper"
    if bounded and not (math.isfinite(b) and X.bounded):
        raise UnboundedSupportError(f"{where} needs a bounded interval and support")
    eps = EQ_ABS + EQ_REL * max(1.0, abs(a), abs(b))
    if X.inf < a - eps:
        raise UnboundedSupportError(
            f"{where}: mass below the certified interval ({X.inf} < {a})")
    # on [a, inf) (the lower bound only) just the moment needs to exist
    if (bounded or not math.isinf(f.domain[1])) and X.sup > b + eps:
        raise UnboundedSupportError(
            f"{where}: mass above the certified interval ({X.sup} > {b})")
    p = cert.p
    mean = X.mean()
    value, classical, value_error = estimate(f, X, a, b, p, mean)
    oracle, oracle_err = expect(X, f)
    return BoundReport(
        kind=kind, direction=direction, p=p, interval=(a, b),
        value=value, oracle=oracle, oracle_error=oracle_err,
        classical=classical,
        gap_to_oracle=oracle - value if direction == "lower" else value - oracle,
        gap_to_classical=value - classical if direction == "lower" else classical - value,
        value_error=value_error, inputs=(f.label, X))


def _shifted_norm(f, X, a, b, p, mean):
    moment = shifted_moment(X, a, p + 1)
    point = a + moment.norm
    return (float(f(point)), float(f(mean)),
            _value_error(f, point, moment.error_estimate))


def _moment_secant(f, X, a, b, p, mean):
    moment = shifted_moment(X, a, p + 1)
    m = (moment.norm / (b - a)) ** (p + 1)
    fa, fb = float(f(a)), float(f(b))
    m1 = min(max((mean - a) / (b - a), 0.0), 1.0)
    return ((1.0 - m) * fa + m * fb, (1.0 - m1) * fa + m1 * fb,
            abs(fb - fa) * moment.error_estimate / max((b - a) ** (p + 1), 1e-300))


def _reflected_norm(f, X, a, b, p, mean):
    moment = shifted_moment(reflected(X, b), 0.0, p + 1)
    point = b - moment.norm
    return (float(f(point)), float(f(mean)),
            _value_error(f, point, moment.error_estimate))


def jensen_lower(f: FunctionSpec, cert: ConvexityCertificate, X: RandomVariable) -> BoundReport:
    """Lower bound E f(X) >= f(a + ||X - a||_{p+1}) for certified members.

    Works for X on the certified [a, b], or on [a, inf) when f's domain is
    unbounded and the order-(p+1) moment exists; any moment quadrature or
    truncation error is propagated into the report's value_error.
    """
    return _report("jensen_lower", "jensen-lower-I", "lower", "I", _shifted_norm,
                   f, cert, X)


def jensen_upper(f: FunctionSpec, cert: ConvexityCertificate, X: RandomVariable) -> BoundReport:
    """Upper bound E f(X) <= (1 - m) f(a) + m f(b) with the moment weight
    m = E (X-a)^{p+1} / (b-a)^{p+1}; tightens the classical secant, whose
    weight is the normalized first moment.
    """
    return _report("jensen_upper", "jensen-upper-I", "upper", "I", _moment_secant,
                   f, cert, X)


def jensen_lower_decreasing(f: FunctionSpec, cert: ConvexityCertificate,
                            X: RandomVariable) -> BoundReport:
    """Evaluate f(b - ||b - X||_{p+1}) for the right-anchored concave class.

    Under the implemented (concave increasing) sign convention this value
    dominates E f(X): b - ||b - X||_{p+1} <= E X and f increases, so
    oracle <= value <= f(E X).  It is the concave-direction analogue of the
    tightened bound and the engine behind the likelihood minorant; the
    report carries direction="upper" accordingly.
    """
    return _report("jensen_lower_decreasing", "jensen-lower-D", "upper", "D",
                   _reflected_norm, f, cert, X)
