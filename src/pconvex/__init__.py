"""pconvex: numerical certification of higher-order convexity classes and
the tightened Jensen-type, risk-measure, MGF, log-likelihood and
integral-average bounds they induce, each validated against brute-force
expectation oracles.
"""

from .convexity import (
    ConvexityCertificate,
    Witness,
    certify_loss_class,
    certify_p_concave,
    certify_p_convex,
    check_power_transform_convex,
    check_ratio_monotone,
)
from .distributions import (
    MomentReport,
    RandomVariable,
    beta_like,
    discrete,
    distribution_from_descriptor,
    distribution_to_descriptor,
    expect,
    fractional_hh_density,
    from_sample,
    point_mass,
    reflected,
    sample_mc,
    shifted_moment,
    two_point,
    uniform,
)
from .errors import (
    BracketError,
    CertificateError,
    ConstructionError,
    ContradictionError,
    ConvergenceError,
    DerivativeOrderError,
    DomainError,
    DomainMismatchError,
    InputFormatError,
    MomentDivergenceError,
    MonotonicityError,
    PconvexError,
    RangeOverflowError,
    SupportViolationError,
    UnboundedSupportError,
)
from .functions import (
    FunctionSpec,
    Jet,
    affine_precompose,
    antiderivative_from,
    compose_inverse,
    derivative_function,
    exp_taylor_remainder,
    exponential,
    function_from_descriptor,
    function_to_descriptor,
    log_affine,
    nonneg_weighted_sum,
    polynomial,
    shifted_power,
    taylor_remainder,
)
from .hermite import (
    HHReport,
    abs_derivative,
    derivative_hh_bound,
    fractional_hh_bounds,
    fractional_mid_via_density,
    gamma_coefficient,
    hh_bounds,
    rl_integral,
    taylor_hh,
)
from .jensen import BoundReport, jensen_lower, jensen_lower_decreasing, jensen_upper
from .mgf import (
    EMTrace,
    LikelihoodInstance,
    MgfBoundReport,
    am_gm_lower,
    elbo_classical,
    elbo_tight,
    em_demo,
    generate_mixture_data,
    likelihood_instance,
    loglik_exact,
    mgf_lower,
    mgf_upper,
)
from .numerics import (
    QuadratureResult,
    fd_derivative,
    gamma,
    integrate,
    integrate_jacobi,
    invert_monotone,
    log_gamma,
    pnorm_shifted,
)
from .risk import (
    Falsifier,
    RiskComparison,
    RiskMeasureReport,
    certainty_equivalent,
    certify_p_more_risk_averse,
    falsify_p_more_risk_averse,
    risk_measure,
)

__version__ = "0.1.0"
