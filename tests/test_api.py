import dataclasses
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fracsum

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_NAMES = [
    "ErrorEstimate",
    "ExponentialSum",
    "FDEProblem",
    "InfeasibleToleranceError",
    "SolverConfig",
    "StepFailureError",
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


def test_records_hold_each_input_once():
    # the dimension is the length of u0, and delta/T is the caller's own
    init = [f.name for f in dataclasses.fields(fracsum.FDEProblem) if f.init]
    assert init == ["alpha", "u0", "rhs", "T", "jacobian"]
    fields = [f.name for f in dataclasses.fields(fracsum.ErrorEstimate)]
    assert fields == ["a_j", "b_k", "total"]


# Every public callable whose first argument is an order, called with a valid
# remainder.  The Mittag-Leffler function and the exact solution built on it
# take alpha = 1 too, where E_1 is exp.
ORDER_CALLS = {
    "FDEProblem": lambda a: fracsum.FDEProblem(alpha=a, u0=[1.0], T=1.0,
                                               rhs=lambda t, u: u),
    "compress": lambda a: fracsum.compress(a, 1e-3, 1.0, 4, 3),
    "estimate_error": lambda a: fracsum.estimate_error(a, 1e-3, 1.0, 4, 3),
    "kernel_direct": lambda a: fracsum.kernel_direct(a, 2.0),
    "mittag_leffler": lambda a: fracsum.mittag_leffler(a, -1.0),
    "mittag_leffler_problem": lambda a: fracsum.mittag_leffler_problem(a, -1.0, 1.0),
    "mlf_exact_solution": lambda a: fracsum.mlf_exact_solution(a, -1.0, 1.0),
    "select_parameters": lambda a: fracsum.select_parameters(a, 1e-3, 1.0, 1e-6),
    "tail_W2": lambda a: fracsum.tail_W2(a, 1.0, 2.0),
    "truncated_integral_W1": lambda a: fracsum.truncated_integral_W1(a, 10.0, 3, 2.0),
    "truncation_term": lambda a: fracsum.truncation_term(a, 1e-3, 4),
    "van_der_pol_problem": lambda a: fracsum.van_der_pol_problem(a, 1.0, 2.0, 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(ORDER_CALLS))
def test_order_outside_its_domain_raises(name):
    call = ORDER_CALLS[name]
    call(0.5)
    bad = [math.nan, 0.0, 1.0, -0.5, math.inf]
    if name in ("mittag_leffler", "mlf_exact_solution"):
        bad.remove(1.0)
        call(1.0)
    for alpha in bad:
        with pytest.raises(ValueError):
            call(alpha)


def test_order_table_lists_every_function_taking_an_order():
    takes_order = {name for name in fracsum.__all__
                   if inspect.isfunction(getattr(fracsum, name))
                   and next(iter(inspect.signature(getattr(fracsum, name)).parameters)) == "alpha"}
    assert takes_order | {"FDEProblem"} == set(ORDER_CALLS)


def test_readme_code_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_version_is_declared_once():
    # pyproject.toml reads the version from the package instead of repeating it
    text = (ROOT / "pyproject.toml").read_text()
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
assert len(fracsum.gauss_jacobi_rule(5, -0.3)[0]) == 5
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
