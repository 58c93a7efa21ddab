"""fracsum: exponential-sum compression of the fractional-integral kernel.

The power-law kernel of the fractional integral, shifted away from its
singularity by an offset delta, is approximated on [delta, T] by a sum of
P = (K+1)*J decaying exponentials built from a composite Gauss-Jacobi rule.
Two closed-form estimators certify the relative error, and an implicit
trapezoidal stepper uses the compressed kernel to solve Caputo initial value
problems with O(P) memory instead of storing the whole history.
"""

from .kernel import (
    ErrorEstimate,
    ExponentialSum,
    InfeasibleToleranceError,
    compress,
    dump_terms,
    estimate_error,
    eval_sum,
    load_terms,
    quadrature_term,
    relative_error_scan,
    select_parameters,
    truncation_term,
)
from .oracle import (
    TailQuery,
    conv_const_exact,
    kernel_direct,
    mlf_exact_solution,
    tail_W2,
    truncated_integral_W1,
)
from .problems import mittag_leffler_problem, van_der_pol_problem
from .quadrature import (
    QuadratureRule,
    contour_bound,
    gauss_jacobi_rule,
    optimal_ell,
)
from .solver import (
    FDEProblem,
    SolverConfig,
    StepFailureError,
    Trajectory,
    solve,
)
from .specialfn import (
    log_gamma,
    mittag_leffler,
    regularized_upper_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "ErrorEstimate",
    "ExponentialSum",
    "FDEProblem",
    "InfeasibleToleranceError",
    "QuadratureRule",
    "SolverConfig",
    "StepFailureError",
    "TailQuery",
    "Trajectory",
    "compress",
    "conv_const_exact",
    "contour_bound",
    "dump_terms",
    "estimate_error",
    "eval_sum",
    "gauss_jacobi_rule",
    "kernel_direct",
    "load_terms",
    "log_gamma",
    "mittag_leffler",
    "mittag_leffler_problem",
    "mlf_exact_solution",
    "optimal_ell",
    "quadrature_term",
    "regularized_upper_gamma",
    "relative_error_scan",
    "select_parameters",
    "solve",
    "tail_W2",
    "truncated_integral_W1",
    "truncation_term",
    "van_der_pol_problem",
]
