"""Gauss-Jacobi rules for the weight (1-x)^a (1+x)^b, and the contour bound.

Nodes come from the symmetric tridiagonal eigenproblem built on the three-term
recurrence (Golub-Welsch) and are then Newton-polished against the
recurrence-evaluated polynomial in arbitrary precision, so the float64 rule is
correctly rounded.  Near-singular exponents (b close to -1) put a node very
close to the endpoint where its weight is violently sensitive to node error,
which is why the polish runs at elevated precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

from .specialfn import _MP_LOCK

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "optimal_ell",
    "contour_bound",
]

MAX_NODES = 64
_LD = np.longdouble
_NEWTON_MAX = 6
_NEWTON_DONE = mp.mpf("1e-25")


@dataclass(frozen=True)
class QuadratureRule:
    """An n-point rule exact for polynomials of degree <= 2n-1 against the weight."""

    n: int
    a: float
    b: float
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _zeroth_moment(a: float, b: float):
    """Integral of the weight over [-1, 1]: 2^(a+b+1) B(a+1, b+1), as mpf."""
    with _MP_LOCK, mp.workdps(40):
        am, bm = mp.mpf(a), mp.mpf(b)
        return 2 ** (am + bm + 1) * mp.gamma(am + 1) * mp.gamma(bm + 1) / mp.gamma(am + bm + 2)


def _monic_coefficients(n: int, a: float, b: float):
    """Monic three-term recurrence coefficients alpha_0..alpha_{n-1}, beta_0..beta_n (mpf)."""
    with _MP_LOCK, mp.workdps(40):
        am, bm = mp.mpf(a), mp.mpf(b)
        alphas = [(bm - am) / (am + bm + 2)]
        for k in range(1, n):
            nab = 2 * k + am + bm
            alphas.append((bm * bm - am * am) / (nab * (nab + 2)))
        betas = [_zeroth_moment(a, b)]
        if n >= 1:
            betas.append(4 * (1 + am) * (1 + bm) / ((2 + am + bm) ** 2 * (3 + am + bm)))
        for k in range(2, n + 1):
            nab = 2 * k + am + bm
            betas.append(4 * k * (k + am) * (k + bm) * (k + am + bm)
                         / (nab ** 2 * (nab + 1) * (nab - 1)))
        return alphas, betas


def _orthonormal_core(alphas, betas, sqb, x, n):
    """Values p_0..p_{n} (orthonormal) with derivative of p_n at mpf x."""
    p_prev = mp.mpf(0)
    p = 1 / mp.sqrt(betas[0])
    d_prev = mp.mpf(0)
    d = mp.mpf(0)
    christoffel = p * p
    for k in range(n):
        num = (x - alphas[k]) * p - (sqb[k] * p_prev if k > 0 else 0)
        dnum = p + (x - alphas[k]) * d - (sqb[k] * d_prev if k > 0 else 0)
        p_prev, p = p, num / sqb[k + 1]
        d_prev, d = d, dnum / sqb[k + 1]
        if k < n - 1:
            christoffel += p * p
    return p, d, christoffel


def _polish(alphas, betas, sqb, seed, n):
    """Node and Christoffel weight, Newton-polished from a float64 eigenvalue seed.

    A step below _NEWTON_DONE leaves the node exact at the working precision,
    and the Christoffel sum taken one step earlier is already far below
    long-double rounding.
    """
    x = mp.mpf(float(seed))
    for _ in range(_NEWTON_MAX):
        p, d, chris = _orthonormal_core(alphas, betas, sqb, x, n)
        step = p / d
        x -= step
        if abs(step) < _NEWTON_DONE:
            return x, 1 / chris
    raise RuntimeError(f"Newton polish did not converge (n={n}, seed={seed})")


@lru_cache(maxsize=None)
def _rule_extended(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Long-double nodes and weights, accurate to the long-double rounding level."""
    alphas, betas = _monic_coefficients(n, a, b)
    if n == 1:
        nodes = np.array([_LD(mp.nstr(alphas[0], 25))])
        weights = np.array([_LD(mp.nstr(betas[0], 25))])
    else:
        diag = np.array([float(v) for v in alphas])
        off = np.sqrt(np.array([float(v) for v in betas[1:n]]))
        seeds = eigh_tridiagonal(diag, off, eigvals_only=True)
        with _MP_LOCK, mp.workdps(40):
            sqb = [mp.sqrt(v) for v in betas]
            pairs = [_polish(alphas, betas, sqb, s, n) for s in seeds]
            nodes = np.array([_LD(mp.nstr(x, 25)) for x, _ in pairs])
            weights = np.array([_LD(mp.nstr(w, 25)) for _, w in pairs])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_jacobi_rule(n: int, a: float, b: float) -> QuadratureRule:
    """Nodes and weights of the n-point rule for the weight (1-x)^a (1+x)^b.

    Requires 1 <= n <= 64 and exponents in (-1, 10].
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"node count must be an integer, got {n!r}")
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}], got {n}")
    a = float(a)
    b = float(b)
    if not (-1.0 < a <= 10.0 and -1.0 < b <= 10.0):
        raise ValueError(f"weight exponents must lie in (-1, 10], got a={a}, b={b}")
    nodes_ld, weights_ld = _rule_extended(int(n), a, b)
    nodes = nodes_ld.astype(float)
    weights = weights_ld.astype(float)
    if not (np.all(np.diff(nodes) > 0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
        raise RuntimeError(f"node computation failed for (n={n}, a={a}, b={b})")
    mu0 = float(_zeroth_moment(a, b))
    if not (np.all(weights > 0) and abs(math.fsum(weights) - mu0) <= 1e-12 * mu0):
        raise RuntimeError(f"weight computation failed for (n={n}, a={a}, b={b})")
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(n=int(n), a=a, b=b, nodes=nodes, weights=weights)


def contour_bound(J: int, ell: float) -> float:
    """Per-interval convergence factor (3-ell)^-1 (ell+sqrt(ell^2-1))^(-2J)."""
    if not 1.0 < ell < 3.0:
        raise ValueError(f"radius must lie in (1, 3), got {ell}")
    return (3.0 - ell) ** -1.0 * (ell + math.sqrt(ell * ell - 1.0)) ** (-2 * J)


def optimal_ell(J: int) -> tuple[float, float]:
    """Closed-form minimizer of contour_bound over (1, 3) and its value.

    The minimizer always lies in (3/2, 3) and approaches 3 as J grows.
    """
    if not isinstance(J, (int, np.integer)) or isinstance(J, bool) or J < 1:
        raise ValueError(f"node count must be a positive integer, got {J!r}")
    mu = 1.0 / (2.0 * J)
    ell = (3.0 - mu * math.sqrt(8.0 + mu * mu)) / (1.0 - mu * mu)
    return ell, contour_bound(int(J), ell)
