"""Gamma-family and Mittag-Leffler special functions.

These back the compression estimators (incomplete gamma ratios), the closed-form
kernel values, and the exact reference solutions of the linear test problems.
All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import cmath
import math
import threading

import mpmath as mp
import numpy as np
from scipy import special as sc

__all__ = [
    "log_gamma",
    "upper_incomplete_gamma",
    "regularized_upper_gamma",
    "mittag_leffler",
]

# Largest shape parameter accepted by upper_incomplete_gamma.  Keeps
# exp(log_gamma(s)) comfortably inside double range.
_MAX_SHAPE = 50.0

# Operating disc for the Mittag-Leffler series.
_ML_MAX_ABS_Z = 40.0

# The Taylor series is summed in 80-bit extended precision.  Whenever the
# condition number sum|t_k| / |sum t_k| exceeds this, the point is redone in
# arbitrary precision; below it the extended-precision result is good to
# ~1e-13 relative, well inside the 1e-10 contract.
_ML_KAPPA_MAX = 1.0e3

# Series is infeasible (too many terms) beyond this; the peak-term index grows
# like exp(ln|z|/alpha)/alpha, which explodes for small alpha at large |z|.
_ML_MAX_TERMS = 200_000

_LD = np.longdouble
_CLD = np.clongdouble

# The arbitrary-precision context is process-global; every block that changes
# its precision serializes on this (reentrant, since such blocks nest).
_MP_LOCK = threading.RLock()


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Absolute error below 1e-13 on [0.01, 200] (C-library lgamma).
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma integral of t^(s-1) e^(-t) over [x, inf).

    Nonincreasing in x; equals Gamma(s) at x=0.  Relative error <= 1e-12 for
    s in (0, 50].  Underflows to 0 for very large x.
    """
    s = float(s)
    x = float(x)
    if not 0.0 < s <= _MAX_SHAPE:
        raise ValueError(f"shape parameter must be in (0, {_MAX_SHAPE}], got {s}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return float(sc.gammaincc(s, x)) * math.exp(math.lgamma(s))


def regularized_upper_gamma(s: float, x: float) -> float:
    """Ratio Gamma(s, x) / Gamma(s), in [0, 1].  Same domain as above."""
    s = float(s)
    x = float(x)
    if not 0.0 < s <= _MAX_SHAPE:
        raise ValueError(f"shape parameter must be in (0, {_MAX_SHAPE}], got {s}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return float(sc.gammaincc(s, x))


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

# Per-alpha table of consecutive gamma ratios Gamma(a k + 1)/Gamma(a(k+1) + 1),
# computed in arbitrary precision once and stored as long doubles.  The ratios
# stay bounded for any k, unlike the gamma values themselves.
_ratio_cache: dict[float, np.ndarray] = {}

# Per (alpha, dps) list of 1/Gamma(alpha k + 1) used by the high-precision path.
_invgamma_cache: dict[tuple[float, int], list] = {}


def _gamma_ratios(alpha: float, n: int) -> np.ndarray:
    table = _ratio_cache.get(alpha)
    if table is None or len(table) < n:
        with _MP_LOCK, mp.workdps(30):
            a = mp.mpf(alpha)
            start = 0 if table is None else len(table)
            new = [
                _LD(mp.nstr(mp.gamma(a * k + 1) / mp.gamma(a * (k + 1) + 1), 25))
                for k in range(start, max(n, 64))
            ]
        table = np.concatenate([table, np.array(new, _LD)]) if table is not None else np.array(new, _LD)
        _ratio_cache[alpha] = table
    return table


def _series_profile(alpha: float, abs_z: float) -> tuple[float, int]:
    """Peak log-magnitude of the series terms and a safe truncation index."""
    if abs_z <= 1.0:
        return 0.0, 64
    k_peak = (math.exp(math.log(abs_z) / alpha) - 1.0) / alpha
    cap = 10 * _ML_MAX_TERMS
    k_hi = int(min(4 * k_peak + 256, cap))
    while True:
        ks = np.unique(np.linspace(0, k_hi, 8192).astype(np.int64))
        lt = ks * math.log(abs_z) - sc.gammaln(alpha * ks + 1.0)
        peak = float(lt.max())
        # index past which terms are negligible at the precision the peak demands
        drop = peak - (peak / math.log(10.0) + 40.0) * math.log(10.0)
        past = ks[(ks > ks[int(lt.argmax())]) & (lt < drop)]
        if len(past):
            return peak, max(int(past[0]), 64)
        if k_hi >= cap:
            return peak, k_hi
        k_hi = min(4 * k_hi, cap)


def _series_extended(alpha: float, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the defining series in extended precision for an array of points.

    Returns (values, ill-conditioned mask).  A masked point has condition
    number above _ML_KAPPA_MAX and its value is left at 0 for the caller to
    redo; its extended total may lie outside float64 range, so it is never
    cast.  Assumes no term overflows the extended range (caller checks the
    profile first).
    """
    real_input = np.all(zs.imag == 0.0)
    work = zs.real.astype(_LD) if real_input else zs.astype(_CLD)
    term = np.ones_like(work)
    total = term.copy()
    abs_total = np.abs(term).astype(_LD)
    ratios = _gamma_ratios(alpha, 64)
    k = 0
    while True:
        if k + 1 >= len(ratios):
            ratios = _gamma_ratios(alpha, 2 * len(ratios))
        term = term * work * ratios[k]
        total = total + term
        mag = np.abs(term)
        abs_total = abs_total + mag
        k += 1
        if k >= 4 and np.all(mag <= 1e-22 * abs_total):
            break
        if k > _ML_MAX_TERMS:
            raise ValueError(
                f"Mittag-Leffler series did not converge within {_ML_MAX_TERMS} terms "
                f"(alpha={alpha}); the point lies outside the supported domain"
            )
    ill = abs_total > _ML_KAPPA_MAX * np.abs(total)
    return np.where(ill, 0, total).astype(complex), ill


def _mpmath_point(alpha: float, z: complex, peak_log: float, k_end: int) -> complex:
    if z == 0:
        # every term past the first is exactly 0, so the tail test never fires
        return 1 + 0j
    dps = 30 + max(0, int(peak_log / math.log(10.0)) + 5)
    key = (alpha, dps)
    inv = _invgamma_cache.get(key)
    if inv is None:
        inv = []
        _invgamma_cache[key] = inv
    with _MP_LOCK, mp.workdps(dps):
        a = mp.mpf(alpha)
        zm = mp.mpc(z)
        s = mp.mpf(0)
        zp = mp.mpf(1)
        tail_gate = mp.mpf(10) ** (-dps + 5)
        prev_mag = mp.inf
        k = 0
        while True:
            if k >= len(inv):
                inv.append(1 / mp.gamma(a * k + 1))
            t = zp * inv[k]
            s += t
            zp = zp * zm
            mag = abs(t)
            if k > 4 and mag < prev_mag and mag < tail_gate * (abs(s) + 1):
                break
            if k > k_end + 10 * _ML_MAX_TERMS:
                raise RuntimeError("Mittag-Leffler fallback failed to terminate")
            prev_mag = mag
            k += 1
        return complex(s)


def _ml_eval(alpha: float, zs: np.ndarray) -> np.ndarray:
    """Vector core.  Validated scalar/array entry points wrap this."""
    out = np.empty(zs.shape, complex)
    if alpha == 1.0:
        for i, z in enumerate(zs.ravel()):
            out.ravel()[i] = cmath.exp(z)
        return out
    abs_max = float(np.abs(zs).max()) if zs.size else 0.0
    peak_log, k_end = _series_profile(alpha, abs_max)
    if k_end > _ML_MAX_TERMS:
        raise ValueError(
            f"Mittag-Leffler series needs more than {_ML_MAX_TERMS} terms for "
            f"alpha={alpha}, |z|={abs_max:.3g}; outside the supported domain"
        )
    if peak_log > 0.9 * math.log(np.finfo(_LD).max):
        # terms overflow extended precision; evaluate every point at full precision
        for i, z in enumerate(zs.ravel()):
            out.ravel()[i] = _mpmath_point(alpha, complex(z), peak_log, k_end)
        return out
    values, ill = _series_extended(alpha, zs)
    out[...] = values.reshape(zs.shape)
    for idx in zip(*np.nonzero(ill.reshape(zs.shape))):
        out[idx] = _mpmath_point(alpha, complex(zs[idx]), peak_log, k_end)
    return out


def mittag_leffler(alpha: float, z):
    """One-parameter Mittag-Leffler function, the series sum of z^k / Gamma(alpha k + 1).

    Valid for alpha in (0, 1] and |z| <= 40 (with a feasibility limit for
    small alpha at large |z|, where the series needs an astronomical number of
    terms; such calls raise ValueError).  Relative error <= 1e-10 on the
    supported domain.  Accepts a scalar or an array of points; returns complex.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"order must be in (0, 1], got {alpha}")
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
    if zs.size and float(np.abs(zs).max()) > _ML_MAX_ABS_Z:
        raise ValueError(
            f"|z| = {float(np.abs(zs).max()):.4g} exceeds the validated disc "
            f"|z| <= {_ML_MAX_ABS_Z}"
        )
    out = _ml_eval(alpha, zs)
    return complex(out[0]) if scalar else out
