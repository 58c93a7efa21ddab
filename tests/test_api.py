import fracsum

PUBLIC_NAMES = [
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
    "contour_bound",
    "conv_const_exact",
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


def test_public_api_is_pinned():
    # a new public name is a deliberate change to this list
    assert sorted(fracsum.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(fracsum, name) is not None
