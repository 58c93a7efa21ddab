"""Independent reference computations for tests and acceptance runs.

Everything here deliberately avoids the Gauss-Jacobi machinery under test:
integrals go through adaptive Gauss-Kronrod quadrature (with endpoint
singularities removed by a power substitution), and exact solutions come from
the contour evaluator of the Mittag-Leffler function.  These paths favor
correctness over speed.  The quadratures import scipy.integrate when they first
run, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import ExponentialSum
from .quadrature import _is_count
from .specialfn import log_gamma, mittag_leffler

__all__ = [
    "TailQuery",
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


@dataclass(frozen=True)
class TailQuery:
    """Lower limit and evaluation time for the neglected-tail integral, in the
    offset-rescaled setting where times satisfy t >= 1."""

    alpha: float
    a: float
    t: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"order must be in (0, 1), got {self.alpha}")
        if not self.a >= 0.0:
            raise ValueError(f"lower limit must be nonnegative, got {self.a}")
        if not self.t >= 1.0:
            raise ValueError(f"evaluation time must be >= 1, got {self.t}")


def _sine_factor(alpha: float) -> float:
    return math.sin(math.pi * alpha) / math.pi


def kernel_direct(alpha: float, t):
    """Exact kernel t^(alpha-1)/Gamma(alpha) for t > 0 (scalar or array)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    ts = np.asarray(t, dtype=float)
    if not np.all(ts > 0.0):
        raise ValueError("kernel argument must be positive")
    vals = np.exp((alpha - 1.0) * np.log(ts) - log_gamma(alpha))
    return float(vals) if np.isscalar(t) or ts.ndim == 0 else vals


def _singular_piece(exponent: float, t: float, upper: float,
                    epsrel: float) -> tuple[float, float]:
    """Integral of s^exponent e^(-ts) over [0, upper] for exponent in (-1, 0).

    Substituting s = sigma^(1/(1+exponent)) flattens the endpoint singularity,
    leaving a constant times exp(-t sigma^m).
    """
    from scipy import integrate
    m = 1.0 / (1.0 + exponent)
    upper_sigma = upper ** (1.0 + exponent)
    return integrate.quad(lambda sig: m * math.exp(-t * sig ** m),
                          0.0, upper_sigma,
                          epsabs=0.0, epsrel=epsrel, limit=500)


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
    upper = 2.0 ** K / T_scaled
    val, err = _singular_piece(-alpha, t, upper, 1e-12)
    val *= _sine_factor(alpha)
    err *= _sine_factor(alpha)
    if not math.isfinite(val) or err > 1e-11 * abs(val):
        raise OracleQuadratureError(
            f"truncated-kernel quadrature missed tolerance (alpha={alpha}, K={K}, t={t})"
        )
    return val


def tail_W2(query: TailQuery) -> float:
    """Neglected-tail integral: sine-factor times s^(-alpha) e^(-ts) over [a, inf).

    The infinite tail is cut where the integrand has dropped 18 decades below
    its value at the lower limit.  Relative accuracy 1e-10.
    """
    alpha, a, t = query.alpha, query.a, query.t
    s_max = a + (_TAIL_DECADES * math.log(10.0) + 10.0) / t
    if a == 0.0:
        val, err = _singular_piece(-alpha, t, s_max, 1e-12)
    else:
        from scipy import integrate
        val, err = integrate.quad(lambda s: s ** -alpha * math.exp(-t * s),
                                  a, s_max,
                                  epsabs=0.0, epsrel=1e-12, limit=500)
    val *= _sine_factor(alpha)
    err *= _sine_factor(alpha)
    if not math.isfinite(val) or err > 1e-10 * abs(val):
        raise OracleQuadratureError(
            f"tail quadrature missed tolerance (alpha={alpha}, a={a}, t={t})"
        )
    return val


def conv_const_exact(S: ExponentialSum, t: float) -> float:
    """Closed-form convolution of the exponential sum with the constant 1."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return math.fsum(S.b * (-np.expm1(-S.a * t)) / S.a)


def mlf_exact_solution(alpha: float, lam: complex, t):
    """Exact solution of the linear Caputo problem: E_alpha(lam t^alpha).

    Accepts scalar or array times (t >= 0); returns complex.
    """
    ts = np.asarray(t, dtype=float)
    if not np.all(ts >= 0.0):
        raise ValueError("times t must be nonnegative")
    z = complex(lam) * ts.astype(complex) ** alpha
    vals = mittag_leffler(alpha, z)
    return vals if ts.ndim else complex(np.asarray(vals).ravel()[0])
