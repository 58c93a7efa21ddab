"""Gauss-Jacobi rules for the weight (1+x)^b, and the contour bound.

The compressed kernel needs two weights only: (1+x)^(-alpha) on its first
interval and the Legendre weight b = 0 on every later one, so the rules here
are those of the Jacobi weight (1-x)^a (1+x)^b with a = 0.

Nodes come from the symmetric tridiagonal eigenproblem built on the three-term
recurrence (Golub-Welsch) and are then Newton-polished against the
recurrence-evaluated polynomial in fixed-point integer arithmetic, so the
long-double rule is correctly rounded.  Near-singular exponents (b close to
-1) put a node very close to the endpoint where its weight is violently
sensitive to node error, which is why the polish runs far beyond float64.

The polish works in Python integers at scale 2^200.  b is a binary float, so
every recurrence coefficient is an exact rational, rounded once to that scale.
The monic polynomials times 2^k stay bounded on [-1, 1], so each recurrence
step adds about one unit of 2^-200 to the values.  Against an 80-digit
reference, the polished nodes of rules up to 64 points are within 2e-54, far
inside the 40 digits the 25-digit decimal conversion to long double needs.
The weights come from the Christoffel sum one Newton step before the final
node and are within 1e-25 relative, far below long-double rounding.

The zeroth moment mu_0 = 2^(b+1)/(b+1) is taken in closed form, as
exp((b+1) ln 2)/(b+1) in 40-digit decimal arithmetic, with b+1 formed from
the exact decimal value of b.  Everything runs on numpy and the standard
library; the float64 seeds are numpy.linalg.eigvalsh of the dense tridiagonal.

The rules here, the kernel's coefficients and its error scan need a
numpy.longdouble with at least the 64-bit significand of x87 extended
precision; where it is only a double (MSVC on Windows, macOS on arm64),
importing this module raises RuntimeError.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "optimal_ell",
    "contour_bound",
]

MAX_NODES = 64
_LD = np.longdouble
_BITS = 200
_ONE = 1 << _BITS
_NEWTON_MAX = 6
_NEWTON_DONE = int(1e-25 * _ONE)

# Entries kept in the rule cache; a rule takes about 1 KB.  A caller that
# returns to a few orders while some hundreds of one-off orders pass in between
# still finds its rules cached.
_CACHE_SIZE = 1024

_LN2 = decimal.Context(prec=40).ln(2)


def _require_extended_precision(info) -> None:
    """Raise RuntimeError unless the finfo given has a 64-bit significand or wider."""
    if info.nmant < 63:
        raise RuntimeError(f"numpy.longdouble has a {info.nmant + 1}-bit significand here; "
                           "fracsum needs 64 bits or more (x87 extended precision)")


_require_extended_precision(np.finfo(_LD))


@dataclass(frozen=True)
class QuadratureRule:
    """An n-point rule exact for polynomials of degree <= 2n-1 against (1+x)^b."""

    n: int
    b: float
    nodes: np.ndarray
    weights: np.ndarray


def _is_count(n, low: float = -math.inf) -> bool:
    """Whether n is an integer (not a bool) of at least low."""
    return (type(n) is int or isinstance(n, np.integer)) and n >= low


def _zeroth_moment(b: float) -> decimal.Decimal:
    """Integral of (1+x)^b over [-1, 1], 2^(b+1)/(b+1), to 40 digits."""
    ctx = decimal.Context(prec=40)
    b1 = ctx.add(decimal.Decimal(b), 1)
    return ctx.divide(ctx.exp(ctx.multiply(b1, _LN2)), b1)


def _recurrence(n: int, b: float):
    """Fixed-point coefficients of the monic recurrence scaled by 2^k.

    With P_k the monic polynomials, Q_k = 2^k P_k satisfies
    Q_{k+1} = 2 (x - alpha_k) Q_k - c_k Q_{k-1} with c_k = 4 beta_k, where
    alpha_k = b^2/(m (m+2)) and beta_k = k^2 (k+b)^2/(m^2 (m+1) (m-1)) with
    m = 2k + b (alpha_0 = b/(b+2)).
    Returns alpha_0..alpha_{n-1}, c_0..c_{n-1} (c_0 = 0, unused) and the
    Christoffel factors g_k = 1/(c_1 ... c_k), all at scale 2^_BITS.  Each
    alpha_k and c_k is its exact rational rounded down once; g_k takes one
    rounding per factor.
    """
    B, D = b.as_integer_ratio()  # b = B/D
    alphas, cs, gs = [(B << _BITS) // (B + 2 * D)], [0], [_ONE]
    for k in range(1, n):
        m = 2 * k * D + B
        alphas.append((B * B << _BITS) // (m * (m + 2 * D)))
        num = 16 * (k * D * (k * D + B)) ** 2
        den = m * m * (m + D) * (m - D)
        cs.append((num << _BITS) // den)
        gs.append(gs[-1] * den // num)
    return alphas, cs, gs


def _polish(alphas, cs, gs, seed: float):
    """Node and Christoffel sum, Newton-polished from a float64 eigenvalue seed.

    Returns the node at scale 2^_BITS and sum_k Q_k^2 g_k = mu_0 / weight at
    scale 2^(3 _BITS).  A step below _NEWTON_DONE (1e-25) leaves the node exact
    at the working scale, and the Christoffel sum taken one step earlier is
    already far below long-double rounding.
    """
    x = int(float(seed) * _ONE)
    for _ in range(_NEWTON_MAX):
        q_prev, q, d_prev, d = 0, _ONE, 0, 0
        christoffel = 0
        for alpha, c, g in zip(alphas, cs, gs):
            christoffel += q * q * g
            t = 2 * (x - alpha)
            q_prev, q, d_prev, d = (q, (t * q - c * q_prev) >> _BITS,
                                    d, ((t * d - c * d_prev) >> _BITS) + 2 * q)
        step = (q << _BITS) // d
        x -= step
        if abs(step) < _NEWTON_DONE:
            return x, christoffel
    raise RuntimeError(f"Newton polish did not converge (n={len(alphas)}, seed={seed})")


@lru_cache(maxsize=_CACHE_SIZE)
def _rule_extended(n: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Long-double nodes and weights, accurate to the long-double rounding level."""
    alphas, cs, gs = _recurrence(n, b)
    diag = np.array([v / _ONE for v in alphas])
    off = np.sqrt(np.array([c / _ONE for c in cs[1:]])) / 2
    seeds = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # mu_0 at the Christoffel sum's scale 2^600, from its 40 digits
    mu0 = int(decimal.Context(prec=40).multiply(_zeroth_moment(b), 1 << (3 * _BITS)))
    # each division is exact, rounded once to 25 digits, then read as long double
    ctx = decimal.Context(prec=25)
    nodes, weights = [], []
    for seed in seeds:
        x, christoffel = _polish(alphas, cs, gs, seed)
        nodes.append(_LD(str(ctx.divide(x, _ONE))))
        weights.append(_LD(str(ctx.divide(mu0, christoffel))))
    nodes, weights = np.array(nodes), np.array(weights)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_jacobi_rule(n: int, b: float) -> QuadratureRule:
    """Nodes and weights of the n-point rule for the weight (1+x)^b on [-1, 1].

    Requires 1 <= n <= 64 and b in (-1, 10].
    """
    if not _is_count(n):
        raise ValueError(f"node count must be an integer, got {n!r}")
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {n}")
    b = float(b)
    if not -1.0 < b <= 10.0:
        raise ValueError(f"weight exponent must lie in (-1, 10], got b={b}")
    nodes_ld, weights_ld = _rule_extended(int(n), b)
    nodes = nodes_ld.astype(float)
    weights = weights_ld.astype(float)
    if not (np.all(np.diff(nodes) > 0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
        raise RuntimeError(f"node computation failed for (n={n}, b={b})")
    mu0 = float(_zeroth_moment(b))
    if not (np.all(weights > 0) and abs(math.fsum(weights) - mu0) <= 1e-12 * mu0):
        raise RuntimeError(f"weight computation failed for (n={n}, b={b})")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(n=int(n), b=b, nodes=nodes, weights=weights)


def contour_bound(J: int, ell: float) -> float:
    """Per-interval convergence factor (3-ell)^-1 (ell+sqrt(ell^2-1))^(-2J)."""
    if not _is_count(J, 1):
        raise ValueError(f"node count must be a positive integer, got {J!r}")
    if not 1.0 < ell < 3.0:
        raise ValueError(f"radius must lie in (1, 3), got {ell}")
    return (3.0 - ell) ** -1.0 * (ell + math.sqrt(ell * ell - 1.0)) ** (-2 * J)


def optimal_ell(J: int) -> tuple[float, float]:
    """Closed-form minimizer of contour_bound over (1, 3) and its value.

    The minimizer always lies in (3/2, 3) and approaches 3 as J grows.
    """
    if not _is_count(J, 1):
        raise ValueError(f"node count must be a positive integer, got {J!r}")
    mu = 1.0 / (2.0 * J)
    ell = (3.0 - mu * math.sqrt(8.0 + mu * mu)) / (1.0 - mu * mu)
    return ell, contour_bound(int(J), ell)
