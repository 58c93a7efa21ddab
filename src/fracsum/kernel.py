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

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache
from io import StringIO

import numpy as np

from .quadrature import MAX_NODES, _LD, _is_count, _rule_extended
from .specialfn import regularized_upper_gamma

__all__ = [
    "ExponentialSum",
    "ErrorEstimate",
    "InfeasibleToleranceError",
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

_PI_LD = _LD("3.141592653589793238462643383279502884")  # 37 digits
_RHO2 = (3.0 + math.sqrt(8.0)) ** 2  # squared convergence factor, ~33.97

# relative_error_scan takes this many grid points at a time (a 64 x P long
# double buffer, 0.4 MB at P = 400), takes square roots of e^(-x) only up to
# this x (e^(-x) is a normal long double down to about e^-11355), and drops
# what is bounded by 2^-80 of the kernel, less a margin of one nat.
_SCAN_BLOCK = 64
_SCAN_ROOT_LIMIT = 11000.0
_SCAN_DROP_LOG = -80.0 * math.log(2.0) - 1.0

# Stirling's series for log Gamma: Bernoulli numbers B_2, B_4, ..., B_20 as
# (numerator, denominator), and (1/2) log(2 pi) to 40 digits.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330))
_HALF_LOG_2PI = decimal.Decimal("0.9189385332046727417803297364056176398614")
_STIRLING_SHIFT = 30


class InfeasibleToleranceError(Exception):
    """No parameter pair within the caps meets the requested tolerance."""


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
    """Certificate components, A_J = quadrature_term(J) and
    B_K = truncation_term(alpha, delta/T, K), and their sum."""

    a_j: float
    b_k: float
    total: float


def _sine_factor_ld(alpha: float):
    """sin(pi alpha)/pi as a long double.

    sin(pi alpha) = sin(pi (1 - alpha)), and 1 - alpha is exact in float64
    for alpha >= 1/2, so the argument stays in (0, pi/2] where sin is well
    conditioned.
    """
    return np.sin(_PI_LD * _LD(min(alpha, 1.0 - alpha))) / _PI_LD


def _inverse_gamma_ld(alpha: float):
    """1/Gamma(alpha) for alpha in (0, 1), rounded to 25 digits, as a long double.

    Gamma(z) = Gamma(x) / (z (z+1) ... (z+29)) with x = z + 30, and log Gamma(x)
    is Stirling's series (x - 1/2) log x - x + (1/2) log(2 pi) plus
    B_2k / (2k (2k-1) x^(2k-1)) for k = 1..10, all in 40-digit decimal
    arithmetic.  The series alternates, so its truncation error is below the
    first omitted term, |B_22| / (22 21 x^21) < 1.3e-30 at x > 30; rounding
    adds about 1e-38.  The 25-digit rounding is therefore that of the exact
    value, except within 1.3e-30 relative of a rounding boundary.
    """
    with decimal.localcontext(decimal.Context(prec=40)):
        z = decimal.Decimal(alpha)
        x = z + _STIRLING_SHIFT
        rising = z
        for i in range(1, _STIRLING_SHIFT):
            rising *= z + i
        log_gamma = (x - decimal.Decimal("0.5")) * x.ln() - x + _HALF_LOG_2PI
        inv_x2 = 1 / (x * x)
        power = 1 / x
        for k, (num, den) in enumerate(_BERNOULLI, start=1):
            log_gamma += num * power / (den * 2 * k * (2 * k - 1))
            power *= inv_x2
        value = rising * (-log_gamma).exp()
    return _LD(str(decimal.Context(prec=25).plus(value)))


def _validate_window(alpha, delta, T):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"offset must be positive and finite, got {delta}")
    if not delta < T < math.inf:
        raise ValueError(f"horizon must be finite and exceed the offset, got T={T}, delta={delta}")


def _validate_compress_args(alpha, delta, T, K, J):
    _validate_window(alpha, delta, T)
    if not (_is_count(K, 0) and K <= MAX_INTERVAL_INDEX):
        raise ValueError(
            f"interval index K must be an integer in [0, {MAX_INTERVAL_INDEX}], got {K!r}")
    if not (_is_count(J, 1) and J <= MAX_NODES):
        raise ValueError(f"node count J must be an integer in [1, {MAX_NODES}], got {J!r}")


def _build_arrays_ld(alpha: float, delta: float, T: float, K: int, J: int):
    """Rates and coefficients in long-double working precision.

    Interval 0 carries the s^(-alpha) weight; intervals k = 1..K scale one
    Gauss-Legendre rule by r_k = 2^(k-1)/(2T), as one outer product.
    """
    xs0, ws0 = _rule_extended(J, -alpha)
    alpha_ld = _LD(alpha)
    delta_ld = _LD(delta)
    sine = _sine_factor_ld(alpha)
    r0 = 1 / (2 * _LD(T))
    a0 = r0 * xs0 + r0
    b0 = sine * np.exp(-delta_ld * a0) * r0 ** (1 - alpha_ld) * ws0
    xs, ws = _rule_extended(J, 0.0)
    r = (r0 * _LD(2.0) ** np.arange(K))[:, None]  # exact: powers of two times r0
    a = r * xs + 3 * r
    b = sine * np.exp(-delta_ld * a) * a ** (-alpha_ld) * r * ws
    return np.concatenate([a0, a.ravel()]), np.concatenate([b0, b.ravel()])


def compress(alpha: float, delta: float, T: float, K: int, J: int) -> ExponentialSum:
    """Build the (K+1)*J-term exponential approximation of the shifted kernel.

    Valid for alpha in (0,1), 0 < delta < T, 0 <= K <= 200, 1 <= J <= 64;
    additionally the fastest damping exponent delta 2^K / T must stay within
    float64 range (~700), which every tolerance-driven selection satisfies.
    Internally computed in extended precision and rounded once, so the float64
    coefficients are as accurate as the format allows.
    """
    _validate_compress_args(alpha, delta, T, K, J)
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
    # interval k holds rates in (0, 1/T) for k = 0 and (2^(k-1)/T, 2^k/T) after
    hi = np.exp2(np.arange(K + 1)) / T
    lo = np.concatenate([[0.0], hi[:-1]])
    if not (np.all(a > np.repeat(lo, J)) and np.all(a < np.repeat(hi, J))
            and np.all(b > 0.0)):
        raise RuntimeError("compressed-kernel construction produced out-of-range terms")
    a.flags.writeable = False
    b.flags.writeable = False
    return ExponentialSum(alpha=float(alpha), delta=float(delta), T=float(T),
                          K=int(K), J=int(J), a=a, b=b)


def eval_sum(S: ExponentialSum, t: float) -> float:
    """Value of the exponential sum at t >= 0, accumulated compensated in index order."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"evaluation time must be nonnegative, got {t}")
    return math.fsum(S.b * np.exp(-S.a * t))


def quadrature_term(J: int) -> float:
    """Per-interval quadrature estimator: J (3+sqrt 8)^(-2J), for an integer J >= 1."""
    if not _is_count(J, 1):
        raise ValueError(f"node count J must be an integer >= 1, got {J!r}")
    return J * _RHO2 ** (-J)


def truncation_term(alpha: float, eta: float, K: int) -> float:
    """Neglected-tail estimator: regularized upper gamma of order 1-alpha at eta 2^K.

    Requires alpha in (0, 1) and an integer K >= 0; regularized_upper_gamma
    rejects the rest.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must be in (0, 1), got {alpha}")
    if not _is_count(K, 0):
        raise ValueError(f"interval index K must be an integer >= 0, got {K!r}")
    return regularized_upper_gamma(1.0 - alpha, eta * 2.0 ** K)


def estimate_error(alpha: float, delta: float, T: float, K: int, J: int) -> ErrorEstimate:
    """Relative-error certificate for the compressed kernel on [delta, T].

    total = A_J + B_K.  The theory leaves the constant in front of A_J open;
    with it set to 1, measured errors stay within a factor of a few of total
    (the acceptance band uses 10).  The measured constant, max M / A_J over
    alpha = 0.01..0.99 at delta/T = 1e-3 and 1e-6 with B_K below 1e-3 A_J:

        J        2     3     4     5     6     7     8     9     10
        M/A_J  0.78  0.49  0.38  0.31  0.27  0.24  0.22  0.20  0.19

    At J = 1 it is about 2, which is why select_parameters starts at J = 2.
    """
    _validate_compress_args(alpha, delta, T, K, J)
    a_j = quadrature_term(int(J))
    b_k = truncation_term(float(alpha), float(delta) / float(T), int(K))
    return ErrorEstimate(a_j=a_j, b_k=b_k, total=a_j + b_k)


def select_parameters(alpha: float, delta: float, T: float, eps: float) -> tuple[int, int]:
    """Smallest (K, J) with J >= 2 whose estimator halves each stay within eps/2.

    The J search starts at 2: the measured constant in front of A_1 is about
    2, so a one-node sum can exceed its certificate, as at (0.04, 1e-6, 1.0,
    0.06), where it measures 0.061 against a total of 0.043.  A_1 meets eps/2
    only for eps above 0.0588, so no tighter tolerance is affected.  Raises
    InfeasibleToleranceError when no K <= 200 suffices, which happens only
    for a tiny delta/T.
    """
    if not 1e-14 <= eps <= 0.5:
        raise ValueError(f"tolerance must lie in [1e-14, 0.5], got {eps}")
    _validate_window(alpha, delta, T)
    target = eps / 2.0
    # eps >= 1e-14 makes the target >= 5e-15, which J = 10 already meets
    J = next(J for J in range(2, MAX_NODES + 1) if quadrature_term(J) <= target)
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
    """100 log-spaced points per decade covering [delta, T], endpoints included.

    A decade boundary within a relative 1e-12 below T ends the grid at T, so
    no piece is only an ulp wide.
    """
    pieces = []
    q = 0
    lo = delta
    while lo < T:
        hi = delta * 10.0 ** (q + 1)
        if hi >= T * (1.0 - 1e-12):
            hi = T
        pieces.append(np.geomspace(lo, hi, 100))
        q += 1
        lo = hi
    return np.unique(np.concatenate(pieces))


@lru_cache(maxsize=32)
def _scan_baseline(alpha: float, delta: float, T: float):
    """What a scan needs of its window (alpha, delta, T), read-only.

    The grid t, the exact kernel w(t) in long double, the shifts t - delta in
    long double and float64 log w; about 40 KB a window.
    """
    ts = _scan_grid(delta, T)
    tl = ts.astype(_LD)
    w = tl ** (_LD(alpha) - 1) * _inverse_gamma_ld(alpha)
    shift = tl - _LD(delta)
    log_w = np.log(w).astype(float)
    for arr in (ts, w, shift, log_w):
        arr.flags.writeable = False
    return ts, w, shift, log_w


def relative_error_scan(S: ExponentialSum) -> tuple[float, np.ndarray]:
    """Pointwise relative error of the compressed kernel against the exact one.

    Returns (M, curve) where curve is an (npoints, 2) array of (t, error) on
    the decade grid over [delta, T] and M is the grid maximum.  The comparison
    is evaluated in extended precision so that measurement noise sits well
    below the certificate levels even at their smallest values.

    Grid points are taken _SCAN_BLOCK at a time, and each interval's
    exponentials fill one (point, node) slab.  When the rates of interval k
    are exactly half those of interval k + 1 (every k >= 1 that compress
    builds), the long-double arguments are too, so interval k's exponentials
    are the square roots of interval k + 1's.  exp is called on the highest
    interval a block keeps and on every interval that is not such a half; a
    root is taken only from a slab whose arguments stay within
    _SCAN_ROOT_LIMIT, where e^(-x) is a normal long double, and exp is
    called otherwise.  A correctly rounded root halves the relative error it
    receives and adds at most 2^-64, so with exp good to eps_exp every
    exponential is within eps_exp + 2^-63, about 3 2^-64 or 1.6e-19, of the
    exponential of its rounded argument, however long the chain.  The
    products with b are summed pairwise per point in the order of the terms.

    A block drops intervals c, c+1, ... when e^(-m_c s) sum_{q >= c} |b_q|
    <= 2^-80 min w over the block, with m_c the smallest rate from interval
    c on and s the end of the block where m_c s is smaller.  The bound comes
    from the rates and the coefficient sums, never from the dropped
    exponentials, so dropping moves each relative error by at most 2^-80,
    about 8e-25.

    The grid, w, the shifts and log w depend only on (alpha, delta, T) and
    are cached for the last 32 windows.
    """
    ts, w, shift, log_w = _scan_baseline(S.alpha, S.delta, S.T)
    J = S.J
    a = S.a.reshape(-1, J)
    a_ld = a.astype(_LD)
    b_ld = S.b.astype(_LD).reshape(-1, J)
    halves = np.append(np.all(2.0 * a[:-1] == a[1:], axis=1), False)
    max_rate = np.abs(a).max(axis=1)
    first = np.arange(0, len(ts), _SCAN_BLOCK)
    last = np.minimum(first + _SCAN_BLOCK, len(ts)) - 1
    s_lo = shift[first].astype(float)
    s_hi = shift[last].astype(float)
    # log of the bound on intervals c, c+1, ... per block; nonincreasing in c
    min_rate = np.minimum.accumulate(a.min(axis=1)[::-1])[::-1]
    with np.errstate(divide="ignore"):
        log_tail = np.log(np.cumsum(np.abs(S.b).reshape(-1, J).sum(axis=1)[::-1])[::-1])
    exponent = np.minimum(np.multiply.outer(s_lo, min_rate), np.multiply.outer(s_hi, min_rate))
    limit = log_w[last] + _SCAN_DROP_LOG  # w decreases, so its block minimum is last
    # a nan bound keeps its intervals, so a nan term still reaches the result
    kept = np.count_nonzero(~(log_tail - exponent <= limit[:, None]), axis=1)
    root_ok = np.multiply.outer(s_hi, max_rate) <= _SCAN_ROOT_LIMIT
    rel = np.empty(len(ts))
    for i, c, ok in zip(first, kept, root_ok):
        rows = slice(i, i + _SCAN_BLOCK)
        neg_s = -shift[rows]
        e = np.empty((c, len(neg_s), J), dtype=_LD)
        for k in range(c - 1, -1, -1):
            if k < c - 1 and halves[k] and ok[k + 1]:
                np.sqrt(e[k + 1], out=e[k])
            else:
                np.multiply.outer(neg_s, a_ld[k], out=e[k])
                np.exp(e[k], out=e[k])
        terms = e.transpose(1, 0, 2).reshape(len(neg_s), -1)  # one row a point
        terms *= b_ld[:c].ravel()
        total = terms.sum(axis=1)
        rel[rows] = abs(w[rows] - total) / w[rows]
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
    """Rebuild an ExponentialSum from dump_terms output.

    Rejects what compress cannot produce: metadata outside its domain, and
    rates or coefficients that are not finite and positive.
    """
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
    _validate_compress_args(alpha, delta, T, K, J)
    if len(rates) != (K + 1) * J:
        raise ValueError(f"expected {(K + 1) * J} rows, found {len(rates)}")
    a = np.array(rates)
    b = np.array(coeffs)
    if not np.all(np.isfinite(a) & (a > 0.0) & np.isfinite(b) & (b > 0.0)):
        raise ValueError("term rates and coefficients must be finite and positive")
    a.flags.writeable = False
    b.flags.writeable = False
    return ExponentialSum(alpha=alpha, delta=delta, T=T, K=K, J=J, a=a, b=b)
