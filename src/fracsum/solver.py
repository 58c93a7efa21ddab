"""Implicit trapezoidal time stepper for Caputo initial value problems.

The fractional integral of the right-hand side is split at each step into a
local part, handled by a degree-one product rule with weights 1/Gamma(2+alpha)
and alpha/Gamma(2+alpha), and a history part.  The history is carried by P
auxiliary variables psi_p solving psi' = -a_p psi + f with psi(0)=0, where
(a_p, b_p) come from the compressed kernel built with offset delta = h; the
history value is the weighted sum of the psi_p.  The auxiliary update is the
trapezoidal rule, which is A-stable - necessary because the fastest rates a_p
are of order 2^K/T.  Memory is O(dim * P) regardless of the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO
from typing import Callable, Optional

import numpy as np

from .kernel import ExponentialSum, compress, select_parameters

__all__ = [
    "FDEProblem",
    "SolverConfig",
    "AuxiliaryState",
    "Trajectory",
    "StepFailureError",
    "init_state",
    "history_eval",
    "phi_step",
    "tr_step",
    "solve",
    "dump_trajectory",
]

_SQRT_EPS = math.sqrt(np.finfo(float).eps)


class StepFailureError(RuntimeError):
    """Newton iteration failed to converge within the configured budget."""

    def __init__(self, message: str, step_index: Optional[int] = None,
                 residuals: tuple[float, ...] = ()):
        super().__init__(message)
        self.step_index = step_index
        self.residuals = residuals


@dataclass(frozen=True)
class FDEProblem:
    """Caputo initial value problem: fractional derivative of u equals rhs(t, u)."""

    alpha: float
    dim: int
    u0: np.ndarray
    rhs: Callable[[float, np.ndarray], np.ndarray]
    T: float
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"order must be in (0, 1), got {self.alpha}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape != (self.dim,):
            raise ValueError(f"initial state must have shape ({self.dim},), got {u0.shape}")
        object.__setattr__(self, "u0", u0)


@dataclass(frozen=True)
class SolverConfig:
    h: float
    eps_kernel: float = 1e-10
    newton_tol: float = 1e-12
    newton_max_iter: int = 25

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"step size must be positive, got {self.h}")
        if not self.newton_tol > 0.0:
            raise ValueError(f"Newton tolerance must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(f"Newton budget must be >= 1, got {self.newton_max_iter}")


@dataclass
class AuxiliaryState:
    """Auxiliary convolution variables: one column per exponential term."""

    phi: np.ndarray
    rates: np.ndarray
    coeffs: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    newton_iterations: np.ndarray


def init_state(S: ExponentialSum, dim: int) -> AuxiliaryState:
    """Zero-history state holding the rates and coefficients of the kernel."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return AuxiliaryState(phi=np.zeros((dim, S.terms)),
                          rates=S.a.copy(), coeffs=S.b.copy())


def history_eval(state: AuxiliaryState) -> np.ndarray:
    """History value: the auxiliary matrix contracted with the coefficients."""
    return state.phi @ state.coeffs


def phi_step(state: AuxiliaryState, f_n: np.ndarray, f_np1: np.ndarray,
             h: float) -> AuxiliaryState:
    """Trapezoidal update of every auxiliary column; diagonal, so no system solve.

    psi <- [psi (1 - h a/2) + (h/2)(f_n + f_np1)] / (1 + h a/2) per column.
    """
    x = 0.5 * h * state.rates
    decay = (1.0 - x) / (1.0 + x)
    gain = 0.5 * h / (1.0 + x)
    forcing = np.atleast_1d(np.asarray(f_n, dtype=float) + np.asarray(f_np1, dtype=float))
    phi = state.phi * decay + np.outer(forcing, gain)
    return AuxiliaryState(phi=phi, rates=state.rates, coeffs=state.coeffs)


def _fd_jacobian(rhs, t, x, fx):
    d = len(x)
    jac = np.empty((d, d))
    for i in range(d):
        step = _SQRT_EPS * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += step
        jac[:, i] = (rhs(t, xp) - fx) / step
    return jac


def _advance(problem: FDEProblem, config: SolverConfig, state: AuxiliaryState,
             v_n: np.ndarray, t_n: float, f_n: np.ndarray):
    """One implicit step; returns (v_np1, state_np1, iterations, f_np1)."""
    h = config.h
    alpha = problem.alpha
    t_np1 = t_n + h
    ha = h ** alpha
    w0 = 1.0 / math.gamma(2.0 + alpha)
    w1 = alpha * w0
    base = ha * w1 * f_n + history_eval(state) + problem.u0
    x = v_n.astype(float).copy()
    eye = np.eye(problem.dim)
    residuals = []
    fx = None
    for it in range(config.newton_max_iter + 1):
        fx = np.asarray(problem.rhs(t_np1, x), dtype=float)
        residual = x - ha * w0 * fx - base
        r = float(np.max(np.abs(residual)))
        residuals.append(r)
        if r <= config.newton_tol:
            state_np1 = phi_step(state, f_n, fx, h)
            return x, state_np1, it, fx
        if it == config.newton_max_iter:
            break
        jac = (problem.jacobian(t_np1, x) if problem.jacobian is not None
               else _fd_jacobian(problem.rhs, t_np1, x, fx))
        delta = np.linalg.solve(eye - ha * w0 * np.asarray(jac, dtype=float), residual)
        x = x - delta
    raise StepFailureError(
        f"Newton did not reach {config.newton_tol:.1e} within "
        f"{config.newton_max_iter} iterations at t={t_np1:.6g} "
        f"(residual trace {', '.join(f'{r:.3e}' for r in residuals)})",
        residuals=tuple(residuals),
    )


def tr_step(problem: FDEProblem, config: SolverConfig, state: AuxiliaryState,
            v_n: np.ndarray, t_n: float):
    """Advance the solution one step from (t_n, v_n).

    Returns (v_np1, state_np1, newton_iterations).  The auxiliary state is
    advanced with the converged right-hand-side value.
    """
    f_n = np.asarray(problem.rhs(t_n, np.asarray(v_n, dtype=float)), dtype=float)
    v_np1, state_np1, iters, _ = _advance(problem, config, state,
                                          np.asarray(v_n, dtype=float), t_n, f_n)
    return v_np1, state_np1, iters


def solve(problem: FDEProblem, config: SolverConfig) -> Trajectory:
    """Constant-step march over [0, T] with the compressed-kernel history.

    The kernel is built once with offset delta = h and tolerance eps_kernel;
    the number of auxiliary variables P does not depend on the step count.
    Raises StepFailureError (with the failing index) if Newton stalls.
    """
    if not config.h < problem.T:
        raise ValueError(f"step size must be below the horizon, got h={config.h}, T={problem.T}")
    K, J = select_parameters(problem.alpha, config.h, problem.T, config.eps_kernel)
    S = compress(problem.alpha, config.h, problem.T, K, J)
    state = init_state(S, problem.dim)
    n_steps = int(math.floor(problem.T / config.h + 1e-9))
    times = np.arange(n_steps + 1, dtype=float) * config.h
    states = np.empty((n_steps + 1, problem.dim))
    iterations = np.zeros(n_steps, dtype=int)
    v = problem.u0.copy()
    states[0] = v
    f_n = np.asarray(problem.rhs(0.0, v), dtype=float)
    for n in range(n_steps):
        try:
            v, state, iterations[n], f_n = _advance(problem, config, state,
                                                    v, times[n], f_n)
        except StepFailureError as failure:
            raise StepFailureError(
                f"step {n} failed: {failure}", step_index=n,
                residuals=failure.residuals,
            ) from None
        states[n + 1] = v
    states.flags.writeable = False
    times.flags.writeable = False
    iterations.flags.writeable = False
    return Trajectory(times=times, states=states, newton_iterations=iterations)


def dump_trajectory(traj: Trajectory) -> str:
    """Plain tabular export: time, state components, Newton count per row."""
    d = traj.states.shape[1]
    out = StringIO()
    out.write("# t " + " ".join(f"v{i}" for i in range(d)) + " newton_iters\n")
    for n, t in enumerate(traj.times):
        comps = " ".join(f"{x:.17g}" for x in traj.states[n])
        iters = traj.newton_iterations[n - 1] if n > 0 else 0
        out.write(f"{t:.17g} {comps} {iters}\n")
    return out.getvalue()
