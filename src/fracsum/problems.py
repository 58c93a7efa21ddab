"""Ready-made test problems for the fractional solver."""

from __future__ import annotations

import cmath
import math

import numpy as np

from .solver import FDEProblem

__all__ = ["mittag_leffler_problem", "van_der_pol_problem"]


def mittag_leffler_problem(alpha: float, lam: complex, T: float) -> FDEProblem:
    """Linear problem with unit initial value; exact solution E_alpha(lam t^alpha).

    A real lam gives a scalar problem.  A complex lam is embedded as a real
    2-dimensional system over (real, imaginary) parts.
    """
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"rate lam must be finite, got {lam}")
    if lam.imag == 0.0:
        lr = lam.real
        jac = ((lr,),)
        return FDEProblem(
            alpha=alpha, dim=1, u0=np.array([1.0]), T=T,
            rhs=lambda t, u: [lr * u[0]],
            jacobian=lambda t, u: jac,
        )
    lr, li = lam.real, lam.imag
    jac = ((lr, -li), (li, lr))
    return FDEProblem(
        alpha=alpha, dim=2, u0=np.array([1.0, 0.0]), T=T,
        rhs=lambda t, u: [lr * u[0] - li * u[1], li * u[0] + lr * u[1]],
        jacobian=lambda t, u: jac,
    )


def van_der_pol_problem(alpha: float, mu: float, x0: float, y0: float,
                        T: float) -> FDEProblem:
    """Fractional Van der Pol oscillator as a first-order system.

    x' is driven by y and y by mu (1 - x^2) y - x, both through the fractional
    derivative of order alpha; the damping constant mu is finite and >= 0.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"damping constant mu must be finite and nonnegative, got {mu}")

    def rhs(t, u):
        x, y = u
        return y, mu * (1.0 - x * x) * y - x

    def jacobian(t, u):
        x, y = u
        return ((0.0, 1.0),
                (-2.0 * mu * x * y - 1.0, mu * (1.0 - x * x)))

    return FDEProblem(alpha=alpha, dim=2, u0=np.array([float(x0), float(y0)]),
                      T=T, rhs=rhs, jacobian=jacobian)
