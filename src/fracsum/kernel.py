"""Sum-of-exponentials compression of the shifted power-law kernel.

The kernel t^(alpha-1)/Gamma(alpha), shifted by an offset delta, is written as
a Laplace-type integral of s^(-alpha) e^(-ts) over decay rates s and the
integral is cut at 2^K/T and split into K+1 dyadic intervals.  A J-point
Gauss-Jacobi rule per interval (the first one carries the s^(-alpha) endpoint
singularity in its weight) turns the kernel into P=(K+1)*J decaying
exponentials with positive rates and coefficients.

The two error estimators:
    quadrature term  A_J = J (3+sqrt 8)^(-2J)
    truncation term  B_K = Gamma(1-alpha, 2^K delta/T) / Gamma(1-alpha)
bound the relative error of the compressed kernel on [delta, T] up to a
moderate constant; both are exposed and drive parameter selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO

import mpmath as mp
import numpy as np

from .quadrature import MAX_NODES, _rule_extended
from .specialfn import _MP_LOCK, regularized_upper_gamma

__all__ = [
    "IntervalPartition",
    "ExponentialSum",
    "ErrorEstimate",
    "InfeasibleToleranceError",
    "build_partition",
    "compress",
    "eval_sum",
    "quadrature_term",
    "truncation_term",
    "estimate_error",
    "select_parameters",
    "relative_error_scan",
    "dump_terms",
    "load_terms",
]

MAX_INTERVAL_INDEX = 200

_LD = np.longdouble
_RHO2 = (3.0 + math.sqrt(8.0)) ** 2  # squared convergence factor, ~33.97


class InfeasibleToleranceError(Exception):
    """No parameter pair within the caps meets the requested tolerance."""


@dataclass(frozen=True)
class IntervalPartition:
    """Dyadic intervals (c_k - r_k, c_k + r_k) covering (0, 2^K/T]."""

    T: float
    K: int
    centers: np.ndarray
    radii: np.ndarray


@dataclass(frozen=True)
class ExponentialSum:
    """Compressed kernel: sum of b_p exp(-a_p t), row-major by interval then node.

    Rates a depend only on (T, K, J); the offset delta enters the coefficients
    b through a factor exp(-delta a_p) only.
    """

    alpha: float
    delta: float
    T: float
    K: int
    J: int
    a: np.ndarray
    b: np.ndarray

    @property
    def terms(self) -> int:
        return (self.K + 1) * self.J


@dataclass(frozen=True)
class ErrorEstimate:
    """Certificate components and their sum."""

    a_j: float
    b_k: float
    eta: float
    total: float


def build_partition(K: int, T: float) -> IntervalPartition:
    """First interval (0, 1/T], then dyadic doubling up to 2^K/T."""
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool):
        raise ValueError(f"interval index must be an integer, got {K!r}")
    if not 0 <= K <= MAX_INTERVAL_INDEX:
        raise ValueError(f"interval index must be in [0, {MAX_INTERVAL_INDEX}], got {K}")
    T = float(T)
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    radii = np.empty(K + 1)
    radii[0] = 1.0 / (2.0 * T)
    if K >= 1:
        radii[1:] = np.exp2(np.arange(K, dtype=float)) / (2.0 * T)
    centers = 3.0 * radii
    centers[0] = radii[0]
    centers.flags.writeable = False
    radii.flags.writeable = False
    return IntervalPartition(T=T, K=int(K), centers=centers, radii=radii)


def _sine_factor_ld(alpha: float):
    """sin(pi alpha)/pi as a long double, seeded at 25 digits."""
    with _MP_LOCK, mp.workdps(30):
        return _LD(mp.nstr(mp.sin(mp.pi * mp.mpf(alpha)) / mp.pi, 25))


def _validate_compress_args(alpha, delta, T, K, J):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"offset must be positive and finite, got {delta}")
    if not T > delta:
        raise ValueError(f"horizon must exceed the offset, got T={T}, delta={delta}")
    if not isinstance(J, (int, np.integer)) or isinstance(J, bool):
        raise ValueError(f"node count must be an integer, got {J!r}")
    if not 1 <= J <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {J}")


def _build_arrays_ld(alpha: float, delta: float, T: float, K: int, J: int):
    """Rates and coefficients in long-double working precision."""
    xs0, ws0 = _rule_extended(J, 0.0, -alpha)
    alpha_ld = _LD(alpha)
    delta_ld = _LD(delta)
    sine = _sine_factor_ld(alpha)
    r0 = 1 / (2 * _LD(T))
    a0 = r0 * xs0 + r0
    b0 = sine * np.exp(-delta_ld * a0) * r0 ** (1 - alpha_ld) * ws0
    rates = [a0]
    coeffs = [b0]
    if K >= 1:
        xs, ws = _rule_extended(J, 0.0, 0.0)
        for k in range(1, K + 1):
            rk = _LD(2.0) ** (k - 1) / (2 * _LD(T))
            ak = rk * xs + 3 * rk
            bk = sine * np.exp(-delta_ld * ak) * ak ** (-alpha_ld) * rk * ws
            rates.append(ak)
            coeffs.append(bk)
    return np.concatenate(rates), np.concatenate(coeffs)


def compress(alpha: float, delta: float, T: float, K: int, J: int) -> ExponentialSum:
    """Build the (K+1)*J-term exponential approximation of the shifted kernel.

    Valid for alpha in (0,1), 0 < delta < T, 0 <= K <= 200, 1 <= J <= 64;
    additionally the fastest damping exponent delta 2^K / T must stay within
    float64 range (~700), which every tolerance-driven selection satisfies.
    Internally computed in extended precision and rounded once, so the float64
    coefficients are as accurate as the format allows.
    """
    _validate_compress_args(alpha, delta, T, K, J)
    part = build_partition(K, T)  # validates K, T and fixes the geometry
    rates_ld, coeffs_ld = _build_arrays_ld(float(alpha), float(delta), float(T), int(K), int(J))
    a = rates_ld.astype(float)
    b = coeffs_ld.astype(float)
    if np.any(b == 0.0):
        # the damping exp(-delta a) of the fastest intervals fell below the
        # float64 range; such terms cannot carry their (provably positive)
        # coefficients.  This only happens when K far overshoots the
        # truncation requirement for the given offset.
        raise ValueError(
            f"K={K} is too deep for offset {delta:g} at horizon {T:g}: the "
            f"fastest-interval coefficients underflow (damping exponent "
            f"~{delta * 2.0 ** K / T:.3g}); use select_parameters or a smaller K"
        )
    lo = np.repeat(part.centers - part.radii, J)
    hi = np.repeat(part.centers + part.radii, J)
    if not (np.all(a > lo) and np.all(a < hi) and np.all(b > 0.0)):
        raise RuntimeError("compressed-kernel construction produced out-of-range terms")
    a.flags.writeable = False
    b.flags.writeable = False
    return ExponentialSum(alpha=float(alpha), delta=float(delta), T=float(T),
                          K=int(K), J=int(J), a=a, b=b)


def eval_sum(S: ExponentialSum, t: float) -> float:
    """Value of the exponential sum at t >= 0, accumulated compensated in index order."""
    t = float(t)
    if t < 0.0:
        raise ValueError(f"evaluation time must be nonnegative, got {t}")
    return math.fsum(S.b * np.exp(-S.a * t))


def quadrature_term(J: int) -> float:
    """Per-interval quadrature estimator: J (3+sqrt 8)^(-2J)."""
    return J * _RHO2 ** (-J)


def truncation_term(alpha: float, eta: float, K: int) -> float:
    """Neglected-tail estimator: regularized upper gamma of order 1-alpha at eta 2^K."""
    return regularized_upper_gamma(1.0 - alpha, eta * 2.0 ** K)


def estimate_error(alpha: float, delta: float, T: float, K: int, J: int) -> ErrorEstimate:
    """Relative-error certificate for the compressed kernel on [delta, T].

    total = A_J + B_K.  The theory leaves the constant in front of A_J open;
    with it set to 1, measured errors stay within a factor of a few of total
    (the acceptance band uses 10).
    """
    _validate_compress_args(alpha, delta, T, K, J)
    if not 0 <= K <= MAX_INTERVAL_INDEX:
        raise ValueError(f"interval index must be in [0, {MAX_INTERVAL_INDEX}], got {K}")
    eta = float(delta) / float(T)
    a_j = quadrature_term(int(J))
    b_k = truncation_term(float(alpha), eta, int(K))
    return ErrorEstimate(a_j=a_j, b_k=b_k, eta=eta, total=a_j + b_k)


def select_parameters(alpha: float, delta: float, T: float, eps: float) -> tuple[int, int]:
    """Smallest (K, J) whose estimator halves each stay within eps/2.

    Raises InfeasibleToleranceError when no K <= 200 suffices, which happens
    only for a tiny delta/T.
    """
    if not 1e-14 <= eps <= 0.5:
        raise ValueError(f"tolerance must lie in [1e-14, 0.5], got {eps}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    if not 0.0 < delta < T:
        raise ValueError(f"need 0 < delta < T, got delta={delta}, T={T}")
    target = eps / 2.0
    # eps >= 1e-14 makes the target >= 5e-15, which J = 10 already meets
    J = next(J for J in range(1, MAX_NODES + 1) if quadrature_term(J) <= target)
    eta = float(delta) / float(T)
    for K in range(0, MAX_INTERVAL_INDEX + 1):
        if truncation_term(alpha, eta, K) <= target:
            break
    else:
        raise InfeasibleToleranceError(
            f"no K <= {MAX_INTERVAL_INDEX} reaches the truncation target {target:.3e}"
        )
    return K, J


def _scan_grid(delta: float, T: float) -> np.ndarray:
    """100 log-spaced points per decade covering [delta, T], endpoints included."""
    pieces = []
    q = 0
    lo = delta
    while lo < T:
        hi = min(delta * 10.0 ** (q + 1), T)
        pieces.append(np.geomspace(lo, hi, 100))
        q += 1
        lo = delta * 10.0 ** q
    return np.unique(np.concatenate(pieces))


def relative_error_scan(S: ExponentialSum) -> tuple[float, np.ndarray]:
    """Pointwise relative error of the compressed kernel against the exact one.

    Returns (M, curve) where curve is an (npoints, 2) array of (t, error) on
    the decade grid over [delta, T] and M is the grid maximum.  The comparison
    is evaluated in extended precision so that measurement noise sits well
    below the certificate levels even at their smallest values.
    """
    ts = _scan_grid(S.delta, S.T)
    with _MP_LOCK, mp.workdps(30):
        inv_gamma = _LD(mp.nstr(1 / mp.gamma(mp.mpf(S.alpha)), 25))
    tl = ts.astype(_LD)
    w = tl ** (_LD(S.alpha) - 1) * inv_gamma
    a = S.a.astype(_LD)
    b = S.b.astype(_LD)
    shift = tl - _LD(S.delta)
    rel = np.empty(len(ts))
    for i in range(len(ts)):
        s = np.sum(b * np.exp(-a * shift[i]))
        rel[i] = float(abs(w[i] - s) / w[i])
    curve = np.column_stack([ts, rel])
    curve.flags.writeable = False
    return float(rel.max()), curve


# ---------------------------------------------------------------------------
# Plain-text interchange format
# ---------------------------------------------------------------------------

def dump_terms(S: ExponentialSum) -> str:
    """Serialize to the tabular interchange format.

    Metadata lines start with '#'; each data row is "k j a b" with 17
    significant digits, which round-trips float64 exactly.
    """
    out = StringIO()
    out.write(f"# alpha {S.alpha:.17g}\n")
    out.write(f"# delta {S.delta:.17g}\n")
    out.write(f"# T {S.T:.17g}\n")
    out.write(f"# K {S.K}\n")
    out.write(f"# J {S.J}\n")
    for p in range(S.terms):
        k, j = divmod(p, S.J)
        out.write(f"{k} {j + 1} {S.a[p]:.17g} {S.b[p]:.17g}\n")
    return out.getvalue()


def load_terms(text: str) -> ExponentialSum:
    """Rebuild an ExponentialSum from dump_terms output."""
    meta: dict[str, str] = {}
    rates: list[float] = []
    coeffs: list[float] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2:
                meta[parts[0]] = parts[1]
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed term row: {line!r}")
        rates.append(float(parts[2]))
        coeffs.append(float(parts[3]))
    try:
        alpha = float(meta["alpha"])
        delta = float(meta["delta"])
        T = float(meta["T"])
        K = int(meta["K"])
        J = int(meta["J"])
    except KeyError as missing:
        raise ValueError(f"missing metadata field {missing} in term table") from None
    if len(rates) != (K + 1) * J:
        raise ValueError(f"expected {(K + 1) * J} rows, found {len(rates)}")
    a = np.array(rates)
    b = np.array(coeffs)
    a.flags.writeable = False
    b.flags.writeable = False
    return ExponentialSum(alpha=alpha, delta=delta, T=T, K=K, J=J, a=a, b=b)
