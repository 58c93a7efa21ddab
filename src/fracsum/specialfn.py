"""Gamma-family and Mittag-Leffler special functions.

These back the compression estimators (incomplete gamma ratios), the closed-form
kernel values, and the exact reference solutions of the linear test problems.
All functions are pure and safe to call from multiple threads.
"""

from __future__ import annotations

import math
import threading

import mpmath as mp
import numpy as np
from scipy import special as sc

__all__ = [
    "log_gamma",
    "regularized_upper_gamma",
    "mittag_leffler",
]

# Largest shape parameter accepted by regularized_upper_gamma.
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

# Largest log peak term summed in extended precision, with room for the
# running totals.  Beyond it the fallback would need thousands of digits and
# tens of thousands of terms (minutes per point), so such calls are rejected.
_ML_MAX_PEAK_LOG = 0.9 * float(np.log(np.finfo(_LD).max))

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
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    return float(sc.gammaincc(s, x))


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

# Per-alpha table of consecutive gamma ratios Gamma(a k + 1)/Gamma(a(k+1) + 1),
# computed in arbitrary precision once and stored as long doubles, with the
# last gamma value the table was built from.  The ratios stay bounded for any
# k, unlike the gamma values themselves.
_ratio_cache: dict[float, tuple[np.ndarray, mp.mpf]] = {}

# Per (alpha, bits) table of the same ratios as integers at scale 2**bits, for
# the fixed-point fallback, with the last gamma value the table was built from.
_fixed_ratio_cache: dict[tuple[float, int], tuple[list, mp.mpf]] = {}


def _gamma_ratios(alpha: float, n: int) -> np.ndarray:
    """The long-double gamma ratios q_k, grown to at least n entries.

    One 30-digit gamma per new index, as in _fixed_ratios.
    """
    with _MP_LOCK:
        table, g = _ratio_cache.get(alpha, (np.empty(0, _LD), mp.mpf(1)))
        if len(table) < n:
            with mp.workdps(30):
                a = mp.mpf(alpha)
                new = []
                for k in range(len(table), n):
                    g_next = mp.gamma(a * (k + 1) + 1)
                    new.append(_LD(mp.nstr(g / g_next, 25)))
                    g = g_next
            table = np.concatenate([table, np.array(new, _LD)])
            _ratio_cache[alpha] = (table, g)
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
            # grow in fixed steps: doubling overshoots the stop by up to 2x,
            # and the profile's k_end, set for the fallback's precision, by more
            ratios = _gamma_ratios(alpha, len(ratios) + 64)
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
    kept = np.where(ill, 0, total)
    big = np.finfo(float).max
    if np.any(np.abs(kept.real) > big) or np.any(np.abs(kept.imag) > big):
        raise ValueError(f"Mittag-Leffler value exceeds float64 range (alpha={alpha})")
    return kept.astype(complex), ill


def _fixed_ratios(alpha: float, bits: int, n: int) -> list:
    """The table of gamma ratios q_k as integers floor(q_k 2**bits), grown to
    at least n entries.

    One arbitrary-precision gamma per new index; the table grows only as far
    as a caller asks.
    """
    key = (alpha, bits)
    with _MP_LOCK:
        qs, g = _fixed_ratio_cache.get(key, ([], mp.mpf(1)))
        with mp.workprec(bits):
            a = mp.mpf(alpha)
            for k in range(len(qs), n):
                g_next = mp.gamma(a * (k + 1) + 1)
                qs.append(int(mp.ldexp(g / g_next, bits)))
                g = g_next
        _fixed_ratio_cache[key] = (qs, g)
    return qs


def _mpmath_point(alpha: float, z: complex, peak_log: float, k_end: int) -> complex:
    """Sum the series at one point in fixed-point integer arithmetic.

    Real and imaginary parts are Python integers at scale 2**bits, where bits
    holds dps = 30 + (peak digits) + 5 decimal digits.  Each term follows
    from the last as t_k z q_k, with z taken exactly, and each product is
    truncated by a right shift.  A sum of N terms then carries an absolute
    rounding error of about N**2 2**-bits times the peak term, at most
    N**2 1e-34: far inside 1e-10 for any N the domain allows.  Raises
    ValueError when the sum lies outside float64 range.
    """
    if z == 0:
        # every term past the first is exactly 0, so the tail test never fires
        return 1 + 0j
    dps = 30 + max(0, int(peak_log / math.log(10.0)) + 5)
    bits = math.ceil(dps * math.log2(10.0))
    one = 1 << bits
    # z exactly, as (zr + i zi) / d over a common power of two d
    (zr, dr), (zi, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(dr, di)
    zr, zi = zr * (d // dr), zi * (d // di)
    shift = bits + d.bit_length() - 1
    gate2 = 10 ** (2 * (dps - 5))
    qs = _fixed_ratios(alpha, bits, 0)
    tr, ti = one, 0
    sr = si = 0
    prev2 = None
    k = 0
    while True:
        sr += tr
        si += ti
        mag2 = tr * tr + ti * ti
        # stop once |t| falls and |t| < 10**-(dps-5) (|s| + 1), in squares
        if (k > 4 and mag2 < prev2
                and mag2 * gate2 < (math.isqrt(sr * sr + si * si) + one) ** 2):
            break
        if k > k_end + 10 * _ML_MAX_TERMS:
            raise RuntimeError("Mittag-Leffler fallback failed to terminate")
        prev2 = mag2
        if k >= len(qs):
            qs = _fixed_ratios(alpha, bits, k + 1)
        q = qs[k]
        tr, ti = ((tr * zr - ti * zi) * q) >> shift, ((tr * zi + ti * zr) * q) >> shift
        k += 1
    try:
        return complex(sr / one, si / one)
    except OverflowError:
        raise ValueError(f"Mittag-Leffler value exceeds float64 range (alpha={alpha})") from None


def _ml_eval(alpha: float, zs: np.ndarray) -> np.ndarray:
    """Vector core.  Validated scalar/array entry points wrap this."""
    out = np.empty(zs.shape, complex)
    abs_max = float(np.abs(zs).max()) if zs.size else 0.0
    peak_log, k_end = _series_profile(alpha, abs_max)
    if k_end > _ML_MAX_TERMS:
        raise ValueError(
            f"Mittag-Leffler series needs more than {_ML_MAX_TERMS} terms for "
            f"alpha={alpha}, |z|={abs_max:.3g}; outside the supported domain"
        )
    if peak_log > _ML_MAX_PEAK_LOG:
        raise ValueError(
            f"Mittag-Leffler series terms reach e^{peak_log:.0f} for alpha={alpha}, "
            f"|z|={abs_max:.3g}; outside the supported domain"
        )
    values, ill = _series_extended(alpha, zs)
    out[...] = values.reshape(zs.shape)
    for idx in zip(*np.nonzero(ill.reshape(zs.shape))):
        out[idx] = _mpmath_point(alpha, complex(zs[idx]), peak_log, k_end)
    return out


def mittag_leffler(alpha: float, z):
    """One-parameter Mittag-Leffler function, the series sum of z^k / Gamma(alpha k + 1).

    Valid for alpha in (0, 1] and |z| <= 40, minus a corner at small alpha
    and large |z| (below about alpha = 0.4 at |z| = 40) where the series
    terms overflow extended precision or the series needs an astronomical
    number of terms; such calls raise ValueError.  So does a value beyond
    float64 range, such as E_{1/2}(40) ~ e^1600.  Relative error <= 1e-10
    on the supported domain.  Points whose extended-precision sum is
    ill-conditioned are summed again in fixed-point integer arithmetic.
    Accepts a scalar or an array of points; returns complex.
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
