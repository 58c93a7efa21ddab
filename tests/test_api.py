import os
import subprocess
import sys
from pathlib import Path

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
    # a new public name is a deliberate change to this list; the package
    # republishes each module's own object under it
    assert sorted(fracsum.__all__) == PUBLIC_NAMES
    modules = [fracsum.kernel, fracsum.oracle, fracsum.problems,
               fracsum.quadrature, fracsum.solver, fracsum.specialfn]
    for name in PUBLIC_NAMES:
        (owner,) = [m for m in modules if name in m.__all__]
        assert getattr(fracsum, name) is getattr(owner, name)


def test_version_is_declared_once():
    # pyproject.toml reads the version from the package instead of repeating it
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "fracsum.__version__"}' in text
    assert fracsum.__version__ not in text


# Only the oracle quadratures need scipy.integrate, which pulls in
# scipy.optimize and scipy.sparse, about 20 MB of resident memory.  The
# library's linear algebra is numpy's, so scipy.linalg stays out until the
# quadratures run.  The library never needs mpmath: with it blocked, a lazy import anywhere in a
# cold compression, a scan, a rule or a solve raises ImportError.
_FOOTPRINT_SCRIPT = """
import sys
import fracsum, fracsum.cli
heavy = {".".join(m.split(".")[:2]) for m in sys.modules}
heavy &= {"scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "mpmath"}
assert not heavy, heavy
sys.modules["mpmath"] = None
S = fracsum.compress(0.4172635091, 1e-3, 10.0, 18, 5)
assert 0.0 < fracsum.relative_error_scan(S)[0] < 1e-3
assert fracsum.gauss_jacobi_rule(5, -0.3).n == 5
traj = fracsum.solve(fracsum.mittag_leffler_problem(0.5, -1.0, 0.1), fracsum.SolverConfig(h=0.01))
assert len(traj.times) == 11
value = fracsum.truncated_integral_W1(0.5, 10.0, 3, 2.0)
assert "scipy.integrate" in sys.modules and 0.0 < value < fracsum.kernel_direct(0.5, 2.0)
"""


def test_import_loads_no_quadrature_package():
    src = str(Path(fracsum.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT], check=True,
                   env=dict(os.environ, PYTHONPATH=path), timeout=60)
