"""Independent references for the benchmark's correctness checks.

Nothing here imports fracsum: the kernel and the exponential sum are
evaluated term by term in mpmath, E_{1/2} comes from the Faddeeva function,
and other Mittag-Leffler orders are summed from the defining series in mpmath
at a precision set by the size of the series' largest term.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import special as sc

# Working precision of the kernel references.  The smallest tolerance a
# workload requests is 1e-13 relative, so 30 digits leave a wide margin.
KERNEL_DPS = 30


def kernel_value(alpha: float, t: float) -> mp.mpf:
    """t^(alpha-1) / Gamma(alpha) in mpmath."""
    with mp.workdps(KERNEL_DPS):
        return mp.power(mp.mpf(t), mp.mpf(alpha) - 1) * mp.rgamma(mp.mpf(alpha))


def exp_sum_value(rates, coeffs, delta: float, t: float, floor: float = 0.0) -> mp.mpf:
    """Sum of b exp(-a (t - delta)) over the returned rates and coefficients.

    Terms whose double-precision estimate lies below floor are left out; the
    caller sets floor 40 digits under the value it compares against.
    """
    with mp.workdps(KERNEL_DPS):
        s = mp.mpf(t) - mp.mpf(delta)
        if s == 0:
            return mp.fsum(mp.mpf(b) for b in coeffs.tolist())
        s_float = float(t) - float(delta)
        log_floor = math.log(floor) if floor > 0.0 else -math.inf
        return mp.fsum(mp.mpf(b) * mp.exp(-mp.mpf(a) * s)
                       for a, b in zip(rates.tolist(), coeffs.tolist())
                       if b <= 0.0 or math.log(b) - a * s_float > log_floor)


def kernel_relative_error(alpha: float, rates, coeffs, delta: float, t: float) -> float:
    """|w(t) - S(t - delta)| / w(t), all in mpmath."""
    with mp.workdps(KERNEL_DPS):
        w = kernel_value(alpha, t)
        S = exp_sum_value(rates, coeffs, delta, t, floor=1e-40 * float(w))
        return float(abs(w - S) / w)


def mittag_leffler_half(z) -> np.ndarray:
    """E_{1/2}(z) = exp(z^2) erfc(-z) = w(-iz), w the Faddeeva function."""
    return sc.wofz(-1j * np.asarray(z, dtype=complex))


def _peak_log10(alpha: float, r: float) -> tuple[float, int]:
    """log10 of the largest term |z|^k / Gamma(alpha k + 1) and its index."""
    if r <= 1.0:
        return 0.0, 0
    k_peak = int((r ** (1.0 / alpha)) / alpha) + 2
    ks = np.arange(k_peak + 1)
    logs = ks * math.log(r) - sc.gammaln(alpha * ks + 1.0)
    k = int(np.argmax(logs))
    return float(logs[k]) / math.log(10.0), k


def mittag_leffler_series(alpha: float, z: complex) -> complex:
    """E_alpha(z) from the defining series, summed in mpmath.

    The precision covers the digits lost to cancellation between terms as
    large as the largest one, plus 25 digits for the result itself.
    """
    peak, k_peak = _peak_log10(alpha, abs(z))
    dps = 25 + max(0, int(math.ceil(peak)))
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        zm = mp.mpc(z)
        gate = mp.mpf(10) ** (-dps)
        total = mp.mpc(0)
        zk = mp.mpc(1)
        k = 0
        while True:
            term = zk * mp.rgamma(a * k + 1)
            total += term
            if k > k_peak and abs(term) < gate * abs(total):
                return complex(total)
            zk *= zm
            k += 1


def mittag_leffler_reference(alpha: float, z) -> np.ndarray:
    """E_alpha at each point: Faddeeva for alpha = 1/2, the series otherwise."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if alpha == 0.5:
        return mittag_leffler_half(zs)
    return np.array([mittag_leffler_series(alpha, complex(v)) for v in zs])
