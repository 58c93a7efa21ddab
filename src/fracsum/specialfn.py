"""Gamma-family and Mittag-Leffler special functions.

These back the compression estimators (incomplete gamma ratios), the closed-form
kernel values, and the exact reference solutions of the linear test problems.
All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sc

__all__ = [
    "log_gamma",
    "regularized_upper_gamma",
    "mittag_leffler",
]

# Largest shape parameter accepted by regularized_upper_gamma.
_MAX_SHAPE = 50.0

# Validated disc of mittag_leffler.
_ML_MAX_ABS_Z = 40.0

# The contour rule of mittag_leffler: nodes on each half of the parabola, the
# parameters mu tried (smallest first), and the decay e^-_ML_DECAY at which the
# rule is cut and which its discretization error must reach.  Below mu = 0.4
# the step is too coarse to reach that decay even with d = 1; no point of the
# disc needs a mu much above 4.
_ML_NODES = 64
_ML_MUS = np.geomspace(0.4, 4.0, 15)
_ML_DECAY = 40.0
_ML_STEPS = np.sqrt(1.0 + _ML_DECAY / _ML_MUS) / _ML_NODES
_ML_TOL = 1e-10

_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(float(np.finfo(float).max))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for finite x > 0.

    Absolute error below 1e-13 on [0.01, 200] (C-library lgamma).
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"log_gamma requires finite x > 0, got {x}")
    return math.lgamma(x)


def regularized_upper_gamma(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    The integral of t^(s-1) e^(-t) over [x, inf), divided by Gamma(s): in
    [0, 1], nonincreasing in x and 1 at x = 0.  Requires s in (0, 50] and
    x >= 0; relative error <= 1e-12 there, with underflow to 0 at large x.
    """
    s = float(s)
    x = float(x)
    if not 0.0 < s <= _MAX_SHAPE:
        raise ValueError(f"shape parameter must be in (0, {_MAX_SHAPE}], got {s}")
    if not x >= 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return float(sc.gammaincc(s, x))


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def _ml_contour(alpha: float, zs: np.ndarray) -> np.ndarray:
    """E_alpha at nonzero points for 0 < alpha < 1, to 1e-10 relative or ValueError.

    The Bromwich integral of e^s s^(alpha-1)/(s^alpha - z) on the parabola
    s(u) = mu (1 + iu)^2 by the midpoint rule in u, plus the residue
    e^(s*)/alpha of the pole s* = z^(1/alpha) when it lies right of the
    parabola.  Per point, mu is the smallest on the grid whose strip of
    analyticity in u, of half-width d, gives 2 pi d / h >= _ML_DECAY.
    Floating-point warnings are off: an overflow or invalid operation makes
    the point's error estimate inf or nan, and the point raises.
    """
    # s* is a pole when |arg z| < alpha pi.  log|s*| is clipped to +-_LOG_MAX,
    # past which s* lies far from the contour and its residue overflows,
    # vanishes or misses on phase
    arg = np.angle(zs)
    has_pole = np.abs(arg) < alpha * np.pi
    log_modulus = np.clip(np.log(np.abs(zs)) / alpha, -_LOG_MAX, _LOG_MAX)
    log_pole = log_modulus + 1j * np.where(has_pole, arg / alpha, 0.0)
    pole = np.exp(log_pole)
    # s* lies on the parabola of parameter c^2 mu, at Im u = 1 - c; the branch
    # point s = 0 sits at u = i
    c = np.sqrt(pole).real[:, None] / np.sqrt(_ML_MUS)
    d = np.where(has_pole[:, None], np.minimum(np.abs(c - 1.0), 1.0), 1.0)
    decay = 2.0 * np.pi * d / _ML_STEPS
    pick = np.argmax(np.minimum(decay, _ML_DECAY), axis=1)
    rows = np.arange(len(zs))
    mu, h, decay = _ML_MUS[pick], _ML_STEPS[pick], decay[rows, pick]
    right = has_pole & (c[rows, pick] > 1.0)
    # the residue e^(s* - log alpha) must lie inside float64 range
    log_res = np.where(right, pole - math.log(alpha), 0.0)
    if np.any(log_res.real > _LOG_MAX):
        raise ValueError(f"Mittag-Leffler value exceeds float64 range (alpha={alpha})")

    w = 1.0 + 1j * (np.arange(_ML_NODES) + 0.5) * h[:, None]  # 1 + iu at u > 0
    s = mu[:, None] * w * w
    log_s = np.log(s)
    s_alpha = np.exp(alpha * log_s)
    # e^s s^(alpha-1) s'(u) h / (2 pi i)
    weight = np.exp(s + (alpha - 1.0) * log_s) * w * (mu * h / np.pi)[:, None]
    # the node at -u gives the conjugate of the node at u for conj(z), so a
    # real z sums to an exactly real value
    upper = weight / (s_alpha - zs[:, None])
    lower = weight / (s_alpha - zs.conj()[:, None])
    residue = np.where(right, np.exp(log_res), 0.0)
    value = upper.sum(axis=1) + lower.sum(axis=1).conj() + residue
    # rounding of the sum, the rule's discretization error, and the residue's
    # error from rounding s*, whose phase error grows with |s*|
    size = np.abs(upper).sum(axis=1) + np.abs(lower).sum(axis=1) + np.abs(residue)
    error = ((2 * _ML_NODES * _EPS + np.exp(-decay)) * size
             + np.abs(residue) * (_EPS * np.abs(pole) * (3.0 + 2.0 * np.abs(log_pole))))
    missed = ~(error <= _ML_TOL * np.abs(value))
    if np.any(missed):
        z = complex(zs[np.argmax(missed)])
        raise ValueError(
            f"Mittag-Leffler value at z={z:.6g} (alpha={alpha}) is not resolved to "
            f"{_ML_TOL:g} relative: cancellation near a zero, or alpha near 1 with Re z << 0"
        )
    return value


def mittag_leffler(alpha: float, z):
    """One-parameter Mittag-Leffler function, the series sum of z^k / Gamma(alpha k + 1).

    Valid for alpha in (0, 1] and |z| <= 40, with relative error <= 1e-10.
    Evaluated as a Bromwich integral on a parabolic contour in float64, with
    an a-posteriori error estimate per point.  Raises ValueError where that
    estimate misses 1e-10: next to complex zeros, and for alpha near 1 with
    Re z << 0, where the value is about (1 - alpha)/|z| and the contour sum
    cancels.  Also raises for a value beyond float64 range, such as
    E_{1/2}(40) ~ e^1600.  E_1 is exp, and E_alpha(0) is exactly 1.
    Accepts a scalar or an array of points; returns complex.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"order must be in (0, 1], got {alpha}")
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    # a nan or inf z fails this test too
    if zs.size and not float(np.abs(zs).max()) <= _ML_MAX_ABS_Z:
        raise ValueError(
            f"argument z must lie in the validated disc |z| <= {_ML_MAX_ABS_Z}, "
            f"got |z| = {float(np.abs(zs).max()):.4g}"
        )
    if alpha == 1.0:
        out = np.exp(zs)
    else:
        out = np.ones(zs.shape, complex)
        nonzero = zs != 0
        out[nonzero] = _ml_contour(alpha, zs[nonzero])
    return complex(out[0]) if scalar else out
