"""Independent reference computations for tests and acceptance runs.

Everything here deliberately avoids the Gauss-Jacobi machinery under test:
integrals go through adaptive Gauss-Kronrod quadrature (with endpoint
singularities removed by a power substitution), and exact solutions come from
the contour evaluator of the Mittag-Leffler function.  The truncated integral
truncated_integral_W1(alpha, T_scaled, K, t) and the tail tail_W2(alpha, a, t)
share that one substituted quadrature, so a tail whose lower limit sits just
above 0 meets no near-singular integrand, and both raise OracleQuadratureError
when it misses its tolerance.  These paths favor correctness over speed.
The quadrature imports scipy.integrate when it first runs, so importing this
module does not load it.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import ExponentialSum
from .quadrature import _is_count
from .specialfn import log_gamma, mittag_leffler

__all__ = [
    "kernel_direct",
    "truncated_integral_W1",
    "tail_W2",
    "conv_const_exact",
    "mlf_exact_solution",
]

# Beyond this many decades below the integrand's value at the lower limit, the
# exponential tail cannot move a double-precision result.
_TAIL_DECADES = 18.0


class OracleQuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet the requested tolerance."""


def kernel_direct(alpha: float, t):
    """Exact kernel t^(alpha-1)/Gamma(alpha) for t > 0 (scalar or array)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    ts = np.asarray(t, dtype=float)
    if not np.all(ts > 0.0):
        raise ValueError("kernel argument must be positive")
    vals = np.exp((alpha - 1.0) * np.log(ts) - log_gamma(alpha))
    return float(vals) if np.isscalar(t) or ts.ndim == 0 else vals


def _kernel_piece(alpha: float, t: float, lower: float, upper: float, rtol: float) -> float:
    """sin(pi alpha)/pi times the integral of s^(-alpha) e^(-ts) over [lower, upper].

    Substituting s = sigma^(1/(1-alpha)) flattens the endpoint singularity
    at 0, leaving a constant times exp(-t sigma^m).  Raises
    OracleQuadratureError unless the error estimate is within rtol relative.
    """
    from scipy import integrate
    m = 1.0 / (1.0 - alpha)
    val, err = integrate.quad(lambda sig: m * math.exp(-t * sig ** m),
                              lower ** (1.0 - alpha), upper ** (1.0 - alpha),
                              epsabs=0.0, epsrel=1e-12, limit=500)
    sine = math.sin(math.pi * alpha) / math.pi
    val *= sine
    if not math.isfinite(val) or err * sine > rtol * abs(val):
        raise OracleQuadratureError(f"kernel quadrature over [{lower}, {upper}] missed "
                                    f"tolerance {rtol} (alpha={alpha}, t={t})")
    return val


def truncated_integral_W1(alpha: float, T_scaled: float, K: int, t: float) -> float:
    """Kernel integral truncated at 2^K / T_scaled, by adaptive quadrature.

    Works in the rescaled setting (offset 1), so t >= 1.  Relative accuracy
    1e-11; approaches the exact kernel as K grows and never exceeds it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    if not T_scaled > 1.0:
        raise ValueError(f"rescaled horizon must exceed 1, got {T_scaled}")
    if not _is_count(K, 0):
        raise ValueError(f"interval index must be a nonnegative integer, got {K!r}")
    if not t >= 1.0:
        raise ValueError(f"evaluation time must be >= 1, got {t}")
    return _kernel_piece(alpha, t, 0.0, 2.0 ** K / T_scaled, 1e-11)


def tail_W2(alpha: float, a: float, t: float) -> float:
    """Neglected-tail integral: sine-factor times s^(-alpha) e^(-ts) over [a, inf).

    Works in the rescaled setting (offset 1), so t >= 1; the lower limit a is
    nonnegative.  The infinite tail is cut where the integrand has dropped 18
    decades below its value at the lower limit.  Relative accuracy 1e-10.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    if not a >= 0.0:
        raise ValueError(f"lower limit must be nonnegative, got {a}")
    if not t >= 1.0:
        raise ValueError(f"evaluation time must be >= 1, got {t}")
    s_max = a + (_TAIL_DECADES * math.log(10.0) + 10.0) / t
    return _kernel_piece(alpha, t, a, s_max, 1e-10)


def conv_const_exact(S: ExponentialSum, t: float) -> float:
    """Closed-form convolution of the exponential sum with the constant 1."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return math.fsum(S.b * (-np.expm1(-S.a * t)) / S.a)


def mlf_exact_solution(alpha: float, lam: complex, t):
    """Exact solution of the linear Caputo problem: E_alpha(lam t^alpha).

    Accepts alpha in (0, 1] and scalar or array times (t >= 0); returns complex.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"order must be in (0, 1], got {alpha}")
    ts = np.asarray(t, dtype=float)
    if not np.all(ts >= 0.0):
        raise ValueError("times t must be nonnegative")
    return mittag_leffler(alpha, complex(lam) * ts.astype(complex) ** alpha)
