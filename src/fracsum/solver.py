"""Implicit trapezoidal time stepper for Caputo initial value problems.

The fractional integral of the right-hand side is split at each step into a
local part, handled by a degree-one product rule with weights 1/Gamma(2+alpha)
and alpha/Gamma(2+alpha), and a history part.  The history is carried by P
auxiliary variables psi_p solving psi' = -a_p psi + f with psi(0)=0, where
(a_p, b_p) come from the compressed kernel built with offset delta = h; the
history value is the weighted sum of the psi_p.  The auxiliary update is the
trapezoidal rule, which is A-stable - necessary because the fastest rates a_p
are of order 2^K/T.  Memory is O(dim * P) regardless of the step count.

The steps run on Python floats, because at dim 1 or 2 the call overhead of
numpy on arrays that small costs more than the arithmetic.  There are two step
loops.  For dim 1 and 2 the state, forcing, residual and Newton update are
scalar locals, and Newton's matrix is factored by LU with partial pivoting
written out; for dim 3 and beyond the same arithmetic runs on lists of dim
floats, with numpy.linalg.solve for Newton.  In both, the trapezoidal
recursion unrolls exactly over BLOCK steps, so the (dim, P) auxiliary array
is touched by two matrix products a block, and each step adds a convolution
of at most BLOCK - 1 past forcings.  The problem's callbacks get the iterate
as a tuple of floats, which they cannot alter, and return plain sequences
(see FDEProblem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul, sub
from typing import Callable, Optional, Sequence

import numpy as np

from .kernel import ExponentialSum, compress, select_parameters

__all__ = [
    "FDEProblem",
    "SolverConfig",
    "Trajectory",
    "StepFailureError",
    "solve",
]

_SQRT_EPS = math.sqrt(np.finfo(float).eps)

# Newton stops once the largest residual component is at most NEWTON_TOL and
# fails the step after NEWTON_MAX_ITER corrections.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 25

# The auxiliary variables advance once every BLOCK steps; the history in
# between is a short convolution of the forcing on Python floats.
BLOCK = 8


class StepFailureError(RuntimeError):
    """Newton iteration failed to converge within NEWTON_MAX_ITER corrections,
    or met a singular Newton matrix."""

    def __init__(self, message: str, step_index: Optional[int] = None,
                 residuals: tuple[float, ...] = ()):
        super().__init__(message)
        self.step_index = step_index
        self.residuals = residuals


@dataclass(frozen=True)
class FDEProblem:
    """Caputo initial value problem: fractional derivative of u equals rhs(t, u).

    u0 is a nonempty 1-D sequence of finite reals, and its length is the
    dimension dim, which the problem sets itself.  rhs(t, u) and
    jacobian(t, u) get u as a tuple of dim floats.  rhs returns a sequence of
    dim reals and jacobian dim rows of dim reals, row i holding the
    derivatives of rhs component i; an ndarray iterates, so it serves as
    well.  Without a jacobian the solver takes forward differences of rhs.
    """

    alpha: float
    u0: np.ndarray
    rhs: Callable[[float, tuple[float, ...]], Sequence[float]]
    T: float
    jacobian: Optional[Callable[[float, tuple[float, ...]],
                                Sequence[Sequence[float]]]] = None
    dim: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"order must be in (0, 1), got {self.alpha}")
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        u0 = np.asarray(self.u0, dtype=float)
        if not (u0.ndim == 1 and u0.size > 0 and np.all(np.isfinite(u0))):
            raise ValueError(f"initial state u0 must be finite, nonempty and 1-D, got {u0}")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "dim", len(u0))


@dataclass(frozen=True)
class SolverConfig:
    h: float
    eps_kernel: float = 1e-10

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"step size must be positive, got {self.h}")


@dataclass(frozen=True)
class Trajectory:
    """A solve's output and what it cost.

    kernel is the compressed kernel the history used (K, J and P = terms).
    rhs_calls counts every call of the right-hand side, those of the
    finite-difference Jacobian included; jacobian_calls counts calls of the
    problem's own Jacobian.
    """

    times: np.ndarray
    states: np.ndarray
    newton_iterations: np.ndarray
    kernel: ExponentialSum
    rhs_calls: int
    jacobian_calls: int


def _trapezoid_factors(rates: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-term factors of the trapezoidal auxiliary update.

    psi <- psi * decay + (f_n + f_np1) * gain, with decay = (1 - h a/2)/(1 + h a/2)
    and gain = (h/2)/(1 + h a/2); diagonal, so no system solve.
    """
    x = 0.5 * h * rates
    return (1.0 - x) / (1.0 + x), 0.5 * h / (1.0 + x)


def _block_operators(decay: np.ndarray, gain: np.ndarray, coeffs: np.ndarray):
    """Operators that advance the auxiliary variables BLOCK steps at a time.

    For a block starting with auxiliary state Phi (dim, P) and forcing
    F_j = f_j + f_(j+1), the history at step k of the block is
    (Phi @ carry)[:, k] + sum_(j<k) lags[k-1-j] F_j, and the state after the
    block is Phi * decay_block + F @ spread.  Here carry[p, k] = b_p d_p^k,
    lags[i] = sum_p b_p g_p d_p^i, spread[j, p] = g_p d_p^(BLOCK-1-j) and
    decay_block = d^BLOCK, with (d, g) the trapezoidal decay and gain.  The
    powers of d come from pow, rounded once each, not from repeated products.
    lag_rows[k] lists lags[k-1], ..., lags[0], to pair with F_0, ..., F_(k-1).
    """
    powers = decay ** np.arange(BLOCK + 1)[:, None]
    carry = powers[:BLOCK] * coeffs
    lags = (carry[:BLOCK - 1] @ gain).tolist()
    lag_rows = [lags[k - 1::-1] if k else [] for k in range(BLOCK)]
    spread = powers[BLOCK - 1::-1] * gain
    return np.ascontiguousarray(carry.T), lag_rows, spread, powers[BLOCK]


def _length_error(dim: int, f) -> ValueError:
    return ValueError(f"rhs must return dim = {dim} values, got {len(f)}")


def _stalled(n: int, t: float, residuals: list) -> StepFailureError:
    return StepFailureError(
        f"step {n} failed: Newton did not reach {NEWTON_TOL:.1e} within "
        f"{NEWTON_MAX_ITER} iterations at t={t:.6g} "
        f"(residual trace {', '.join(f'{r:.3e}' for r in residuals)})",
        step_index=n, residuals=tuple(residuals),
    )


def _singular(n: int, t: float, residuals: list) -> StepFailureError:
    return StepFailureError(f"step {n} failed: singular Newton matrix at t={t:.6g}",
                            step_index=n, residuals=tuple(residuals))


def _fd_jacobian(rhs, t, x, fx):
    """Forward-difference Jacobian of rhs at x, as rows; fx = rhs(t, x)."""
    columns = []
    for i, xi in enumerate(x):
        step = _SQRT_EPS * (1.0 + abs(xi))
        fp = rhs(t, x[:i] + (xi + step,) + x[i + 1:])
        if len(fp) != len(x):
            raise _length_error(len(x), fp)
        columns.append([(a - b) / step for a, b in zip(fp, fx)])
    return list(zip(*columns))


def _next_history(aux: np.ndarray, forcing: list, ops) -> list:
    """Advance aux over the block whose summed forcings fill the lists in
    forcing (empty before the first block), empty them, and return the
    history rows the next block starts from, as dim lists of BLOCK floats."""
    carry, _, spread, decay_block = ops
    if forcing[0]:
        aux *= decay_block
        aux += np.array(forcing) @ spread
        for fs in forcing:
            fs.clear()
    return (aux @ carry).tolist()


def _march_lists(problem: FDEProblem, h, c0, c1, ops, aux, f_n, states, iterations):
    """The step loop on lists of dim floats, which solve runs for dim >= 3.

    f_n is rhs at t = 0.  Fills states[1:] and iterations and returns the
    rhs and Jacobian call counts.
    """
    rhs, jacobian, dim = problem.rhs, problem.jacobian, problem.dim
    lag_rows = ops[1]
    u0 = problem.u0.tolist()
    x = tuple(u0)
    rhs_calls, jacobian_calls = 1, 0
    forcing = [[] for _ in range(dim)]
    for n in range(len(iterations)):
        k = n % BLOCK
        if k == 0:
            history = _next_history(aux, forcing, ops)
        t = n * h + h
        lags = lag_rows[k]
        base = [c1 * f + (past[k] + sum(map(mul, lags, fs))) + u
                for f, past, fs, u in zip(f_n, history, forcing, u0)]
        residuals = []
        for it in range(NEWTON_MAX_ITER + 1):
            fx = rhs(t, x)
            rhs_calls += 1
            if len(fx) != dim:
                raise _length_error(dim, fx)
            res = [xi - c0 * fi - bi for xi, fi, bi in zip(x, fx, base)]
            # max() passes over a NaN that is not the first entry; the sum keeps it
            r = math.nan if math.isnan(sum(res)) else max(map(abs, res))
            residuals.append(r)
            if r <= NEWTON_TOL:
                break
            if it == NEWTON_MAX_ITER:
                raise _stalled(n, t, residuals)
            if jacobian is None:
                jac = _fd_jacobian(rhs, t, x, fx)
                rhs_calls += dim
            else:
                jac = jacobian(t, x)
                jacobian_calls += 1
            jac = np.asarray(jac, dtype=float)
            if jac.shape != (dim, dim):
                raise ValueError(f"jacobian must return {dim} rows of {dim} values, "
                                 f"got shape {jac.shape}")
            try:
                delta = np.linalg.solve(np.eye(dim) - c0 * jac, res).tolist()
            except np.linalg.LinAlgError:
                raise _singular(n, t, residuals) from None
            x = tuple(map(sub, x, delta))
        for fs, f, fnew in zip(forcing, f_n, fx):
            fs.append(f + fnew)
        iterations[n] = it
        states[n + 1] = x
        f_n = fx
    return rhs_calls, jacobian_calls


def _march_scalar(problem: FDEProblem, h, c0, c1, ops, aux, f_n, states, iterations):
    """_march_lists for dim 1 and 2 on scalar locals, with no list built a
    step and Newton's LU written out; at dim 1 the second component stays
    zero and reaches no callback."""
    rhs, jacobian, dim = problem.rhs, problem.jacobian, problem.dim
    two = dim == 2
    lag_rows = ops[1]
    u_0 = x0 = problem.u0[0].item()
    u_1 = x1 = problem.u0[1].item() if two else 0.0
    f0 = f_n[0]
    f1 = f_n[1] if two else 0.0
    rhs_calls, jacobian_calls = 1, 0
    fs0, fs1 = [], []
    forcing = [fs0, fs1] if two else [fs0]
    # at dim 1 hist1 and col1 repeat hist0 and col0, and go unused
    col0, col1 = states[:, 0], states[:, -1]
    trace = [0.0] * (NEWTON_MAX_ITER + 1)  # the residuals of a step
    for n in range(len(iterations)):
        k = n % BLOCK
        if k == 0:
            history = _next_history(aux, forcing, ops)
            hist0, hist1 = history[0], history[-1]
        t = n * h + h
        lags = lag_rows[k]
        b0 = c1 * f0 + (hist0[k] + sum(map(mul, lags, fs0))) + u_0
        if two:
            b1 = c1 * f1 + (hist1[k] + sum(map(mul, lags, fs1))) + u_1
        for it in range(NEWTON_MAX_ITER + 1):
            x = (x0, x1) if two else (x0,)
            fx = rhs(t, x)
            rhs_calls += 1
            if len(fx) != dim:
                raise _length_error(dim, fx)
            if two:
                g0, g1 = fx
                r0 = x0 - c0 * g0 - b0
                r1 = x1 - c0 * g1 - b1
                # max(a0, a1), but NaN whenever r0 + r1 is
                a0, a1 = abs(r0), abs(r1)
                r = math.nan if math.isnan(r0 + r1) else a1 if a1 > a0 else a0
            else:
                (g0,) = fx
                r0 = x0 - c0 * g0 - b0
                r = abs(r0)
            trace[it] = r
            if r <= NEWTON_TOL:
                break
            if it == NEWTON_MAX_ITER:
                raise _stalled(n, t, trace)
            if jacobian is None:
                jac = _fd_jacobian(rhs, t, x, fx)
                rhs_calls += dim
            else:
                jac = jacobian(t, x)
                jacobian_calls += 1
            if two:
                (j00, j01), (j10, j11) = jac
                a00, a01, a10, a11 = 1.0 - c0 * j00, -c0 * j01, -c0 * j10, 1.0 - c0 * j11
                if abs(a10) > abs(a00):
                    a00, a01, a10, a11, r0, r1 = a10, a11, a00, a01, r1, r0
            else:
                ((j00,),) = jac
                a00 = 1.0 - c0 * j00
            if a00 == 0.0:
                raise _singular(n, t, trace[:it + 1])
            if two:
                # the multiplier scales by the reciprocal pivot, as getrf does
                m = a10 * (1.0 / a00)
                u11 = a11 - m * a01
                if u11 == 0.0:
                    raise _singular(n, t, trace[:it + 1])
                d1 = (r1 - m * r0) / u11
                x1 -= d1
                r0 -= a01 * d1
            x0 -= r0 / a00
        fs0.append(f0 + g0)
        f0 = g0
        col0[n + 1] = x0
        if two:
            fs1.append(f1 + g1)
            f1 = g1
            col1[n + 1] = x1
        iterations[n] = it
    return rhs_calls, jacobian_calls


def solve(problem: FDEProblem, config: SolverConfig) -> Trajectory:
    """Constant-step march over [0, T] with the compressed-kernel history.

    The kernel is built once with offset delta = h and tolerance eps_kernel;
    the number of auxiliary variables P does not depend on the step count.
    Each step solves v = u0 + h^alpha (w0 f(t, v) + w1 f_n) + history by
    Newton's method on Python floats; the auxiliary variables advance once
    every BLOCK steps (see _block_operators).
    Raises StepFailureError (with the failing index) if Newton stalls or its
    matrix is singular, and ValueError if rhs returns other than dim values
    or jacobian other than dim rows of dim values.
    """
    return _solve(problem, config, _march_scalar if problem.dim <= 2 else _march_lists)


def _solve(problem: FDEProblem, config: SolverConfig, march) -> Trajectory:
    """solve, with the step loop march: _march_scalar or _march_lists."""
    h, alpha, T = config.h, problem.alpha, problem.T
    if not h < T:
        raise ValueError(f"step size must be below the horizon, got h={h}, T={T}")
    K, J = select_parameters(alpha, h, T, config.eps_kernel)
    kernel = compress(alpha, h, T, K, J)
    ops = _block_operators(*_trapezoid_factors(kernel.a, h), kernel.b)
    ha = h ** alpha
    w0 = 1.0 / math.gamma(2.0 + alpha)
    c0 = ha * w0
    c1 = ha * (alpha * w0)
    aux = np.zeros((problem.dim, kernel.terms))
    n_steps = int(math.floor(T / h + 1e-9))
    times = np.arange(n_steps + 1, dtype=float) * h
    states = np.empty((n_steps + 1, problem.dim))
    iterations = np.zeros(n_steps, dtype=int)
    states[0] = problem.u0
    f_n = problem.rhs(0.0, tuple(problem.u0.tolist()))
    if len(f_n) != problem.dim:
        raise _length_error(problem.dim, f_n)
    rhs_calls, jacobian_calls = march(problem, h, c0, c1, ops, aux, f_n, states,
                                      iterations)
    states.flags.writeable = False
    times.flags.writeable = False
    iterations.flags.writeable = False
    return Trajectory(times=times, states=states, newton_iterations=iterations,
                      kernel=kernel, rhs_calls=rhs_calls, jacobian_calls=jacobian_calls)
