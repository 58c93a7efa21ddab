"""The four workloads: inputs drawn from the seed, the timed library calls,
and the check of each output.

Every workload is a list of rounds.  A round is a fixed mix of request kinds
whose parameters the seed perturbs or draws, so every run attempts whole
rounds of the same operations and the cost mix does not drift with the seed.
References a check needs are computed on first use, outside the timed region,
and kept for the rest of the run because a round repeats its problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import checks
from references import mittag_leffler_reference
from tracing import trace_problem


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _perturb_order(rng, alpha: float) -> float:
    """Orders other than 1/2 move by up to 0.01; 1/2 keeps its closed form."""
    return alpha if alpha == 0.5 else alpha + float(rng.uniform(-0.01, 0.01))


def _perturb_rate(rng, lam: complex) -> complex:
    """Modulus by up to 5 %, and the phase of a complex rate by up to 0.05 rad."""
    phase = float(rng.uniform(-0.05, 0.05)) if lam.imag else 0.0
    return complex(lam) * float(rng.uniform(0.95, 1.05)) * complex(math.cos(phase),
                                                                     math.sin(phase))


# ---------------------------------------------------------------------------
# compress_cold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressRequest:
    alpha: float
    delta: float
    T: float
    eps: float
    sample_ts: tuple


class CompressCold:
    """Parameter selection, compression and certificate at an order never
    seen before in the process, so the order-dependent rule is always built.

    A round holds one request per tolerance below, which select J = 3..10;
    delta is log-uniform on [1e-6, 1e-2] and T on [1, 1e3], so K spans about
    10 to 35.
    """

    name = "compress_cold"
    EPS_LEVELS = (3e-4, 1e-4, 1e-6, 1e-7, 1e-9, 1e-10, 1e-12, 1e-13)
    WARM_ALPHA = 0.5

    def __init__(self, seed: int, fracsum, tracer=None):
        self.rng = np.random.default_rng([seed, 1])
        self.seen = {self.WARM_ALPHA}

    def warm(self, api):
        """Builds the order-independent rule of every J and runs each call
        once, at an order no request uses."""
        for eps in self.EPS_LEVELS:
            req = CompressRequest(self.WARM_ALPHA, 1e-3, 10.0, eps, (1e-3, 10.0))
            self.check(req, self.run(api, req))

    def _fresh_alpha(self) -> float:
        while True:
            alpha = float(self.rng.uniform(0.05, 0.95))
            if alpha not in self.seen:
                self.seen.add(alpha)
                return alpha

    def round(self, index: int) -> list:
        requests = []
        for eps in self.rng.permutation(self.EPS_LEVELS):
            delta = _log_uniform(self.rng, 1e-6, 1e-2)
            T = _log_uniform(self.rng, 1.0, 1e3)
            inner = _log_uniform(self.rng, delta, T)
            requests.append(CompressRequest(self._fresh_alpha(), delta, T,
                                            float(eps), (delta, inner)))
        return requests

    @staticmethod
    def run(api, r: CompressRequest):
        K, J = api.select_parameters(r.alpha, r.delta, r.T, r.eps)
        S = api.compress(r.alpha, r.delta, r.T, K, J)
        est = api.estimate_error(r.alpha, r.delta, r.T, K, J)
        return K, J, S, est

    def check(self, r: CompressRequest, out) -> bool:
        return checks.compress_ok(r.alpha, r.delta, r.T, r.eps, r.sample_ts, *out)


# ---------------------------------------------------------------------------
# error_scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRequest:
    alpha: float
    delta: float
    T: float
    K: int
    J: int
    sample_fracs: tuple


class ErrorScan:
    """The estimator-tracking sweep: compress, certify and scan every point
    of a (delta, K, J) grid, as `fracsum sweep` does.

    Three orders are drawn from the seed and their rules built in set-up; a
    round sweeps the grid at one order, in seeded order.  K runs in steps of
    4 up to where delta 2^K / T reaches 40, past which the truncation term is
    below 1e-17 and the fastest coefficients head for underflow.
    """

    name = "error_scan"
    T = 100.0
    DELTAS = (1e-2, 1e-4, 1e-6)
    J_VALUES = (4, 8, 12)

    def __init__(self, seed: int, fracsum, tracer=None):
        self.rng = np.random.default_rng([seed, 2])
        self.orders = tuple(float(a) for a in self.rng.uniform(0.2, 0.8, 3))
        self.grid = [(delta, K, J)
                     for delta in self.DELTAS
                     for K in range(0, int(math.log2(40.0 * self.T / delta)) + 1, 4)
                     for J in self.J_VALUES]

    def warm(self, api):
        for alpha in self.orders:
            for J in self.J_VALUES:
                req = ScanRequest(alpha, 1e-2, self.T, 1, J, ())
                self.check(req, self.run(api, req))

    def round(self, index: int) -> list:
        alpha = self.orders[index % len(self.orders)]
        order = self.rng.permutation(len(self.grid))
        return [ScanRequest(alpha, self.grid[i][0], self.T, self.grid[i][1],
                            self.grid[i][2], (float(self.rng.uniform(0.0, 1.0)),))
                for i in order]

    @staticmethod
    def run(api, r: ScanRequest):
        S = api.compress(r.alpha, r.delta, r.T, r.K, r.J)
        est = api.estimate_error(r.alpha, r.delta, r.T, r.K, r.J)
        M, curve = api.relative_error_scan(S)
        return S, est, M, curve

    def check(self, r: ScanRequest, out) -> bool:
        return checks.scan_ok(*out, r.sample_fracs)


# ---------------------------------------------------------------------------
# solve_ivp
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearCase:
    alpha: float
    lam: complex
    T: float
    h: float


@dataclass(frozen=True)
class VdpCase:
    alpha: float
    mu: float
    x0: float
    y0: float
    T: float
    h: float


class SolveIVP:
    """Whole solves of linear problems (real and complex rate) and the Van
    der Pol oscillator, 800 to 2000 steps each at kernel tolerance 1e-8.

    Each base case appears twice, perturbed independently by the seed:
    rates by up to 5% in modulus and 0.05 rad in phase, orders other than 1/2
    by up to 0.01, and the Van der Pol damping and start by up to 5%.  The
    perturbations are small so that the cost mix stays the same from seed to
    seed.  A round solves every case once.
    """

    name = "solve_ivp"
    EPS_KERNEL = 1e-8
    LINEAR = (
        LinearCase(0.5, -1.0, 10.0, 0.01),
        LinearCase(0.5, -1 + 2j, 5.0, 0.005),
        LinearCase(0.3, -2.0, 4.0, 0.004),
        LinearCase(0.7, -1.5, 6.0, 0.006),
        LinearCase(0.9, -1 + 1j, 8.0, 0.008),
    )
    VDP = (
        VdpCase(0.8, 1.0, 2.0, 0.0, 5.0, 0.005),
        VdpCase(0.9, 2.0, 2.0, 0.0, 8.0, 0.01),
        VdpCase(0.85, 4.0, 2.0, 0.0, 5.0, 0.005),
    )

    def __init__(self, seed: int, fracsum, tracer=None):
        self.rng = np.random.default_rng([seed, 3])
        self.check_rng = np.random.default_rng([seed, 5])
        self.fracsum = fracsum
        cases = []
        for _ in range(2):
            cases += [LinearCase(_perturb_order(self.rng, c.alpha),
                                 _perturb_rate(self.rng, c.lam), c.T, c.h)
                      for c in self.LINEAR]
            cases += [self._perturb_vdp(c) for c in self.VDP]
        self.cases = cases
        self.problems = [self._problem(c, tracer) for c in cases]
        self.config = [fracsum.SolverConfig(h=c.h, eps_kernel=self.EPS_KERNEL)
                       for c in cases]
        self.references = {}

    def _perturb_vdp(self, c: VdpCase) -> VdpCase:
        u = self.rng.uniform(0.95, 1.05, 2)
        return VdpCase(c.alpha, c.mu * float(u[0]), c.x0 * float(u[1]), c.y0, c.T, c.h)

    def _problem(self, c, tracer):
        f = self.fracsum
        if isinstance(c, LinearCase):
            problem = f.mittag_leffler_problem(c.alpha, c.lam, c.T)
        else:
            problem = f.van_der_pol_problem(c.alpha, c.mu, c.x0, c.y0, c.T)
        return problem if tracer is None else trace_problem(tracer, problem)

    def warm(self, api):
        """Builds each case's kernel once, which caches its rules."""
        for c in self.cases:
            K, J = api.select_parameters(c.alpha, c.h, c.T, self.EPS_KERNEL)
            api.compress(c.alpha, c.h, c.T, K, J)

    def round(self, index: int) -> list:
        return [int(i) for i in self.rng.permutation(len(self.cases))]

    def run(self, api, i: int):
        return api.solve(self.problems[i], self.config[i])

    def _reference(self, i: int, traj):
        ref = self.references.get(i)
        if ref is None:
            c = self.cases[i]
            if isinstance(c, LinearCase):
                n = len(traj.times)
                window = np.arange(n // 4, n)
                if c.alpha != 0.5:
                    # the mpmath series is slow: check a seeded subsample
                    pick = self.check_rng.choice(window[:-1], 3, replace=False)
                    window = np.sort(np.append(pick, n - 1))
                z = c.lam * traj.times[window] ** c.alpha
                ref = (window, mittag_leffler_reference(c.alpha, z))
            else:
                # halved-step self-convergence run, made with the untraced solver
                config = self.fracsum.SolverConfig(h=c.h / 2.0, eps_kernel=self.EPS_KERNEL)
                problem = self.fracsum.van_der_pol_problem(c.alpha, c.mu, c.x0, c.y0, c.T)
                ref = self.fracsum.solve(problem, config).states
            self.references[i] = ref
        return ref

    def check(self, i: int, traj) -> bool:
        ref = self._reference(i, traj)
        if isinstance(self.cases[i], VdpCase):
            return checks.vdp_ok(traj.states, ref)
        states = traj.states
        values = states[:, 0] if states.shape[1] == 1 else states[:, 0] + 1j * states[:, 1]
        return checks.linear_ok(values, *ref)


# ---------------------------------------------------------------------------
# mlf_reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlfCase:
    alpha: float
    lam: complex
    T: float
    n: int

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1, dtype=float) * (self.T / self.n)


class MlfReference:
    """Exact solutions E_alpha(lam t^alpha) on solve-mlf time grids.

    The base cases cover orders 0.3 to 0.9, decaying, oscillating and
    growing rates, and |lam| T^alpha from 3 to about 10; grids are short so
    that one request stays under a few hundred milliseconds while the
    arbitrary-precision fallback handles most points.  Each base case
    appears twice, perturbed by the seed as in solve_ivp.
    """

    name = "mlf_reference"
    BASE = (
        MlfCase(0.5, -1.0, 10.0, 20),
        MlfCase(0.5, -1 + 2j, 10.0, 8),
        MlfCase(0.3, -2.0, 10.0, 4),
        MlfCase(0.7, -1.5, 10.0, 30),
        MlfCase(0.9, -1 + 1j, 10.0, 30),
        MlfCase(0.7, 3.0, 4.0, 40),
        MlfCase(0.8, -4j, 3.0, 20),
        MlfCase(0.6, -4.0, 4.0, 20),
    )

    def __init__(self, seed: int, fracsum, tracer=None):
        self.rng = np.random.default_rng([seed, 4])
        self.check_rng = np.random.default_rng([seed, 5])
        self.cases = [MlfCase(_perturb_order(self.rng, c.alpha),
                              _perturb_rate(self.rng, c.lam), c.T, c.n)
                      for _ in range(2) for c in self.BASE]
        self.references = {}

    def warm(self, api):
        """Fills the per-order coefficient tables at a point near the origin."""
        for c in self.cases:
            api.mlf_exact_solution(c.alpha, c.lam, c.times[:2])

    def round(self, index: int) -> list:
        return [int(i) for i in self.rng.permutation(len(self.cases))]

    def run(self, api, i: int):
        c = self.cases[i]
        return api.mlf_exact_solution(c.alpha, c.lam, c.times)

    def check(self, i: int, values) -> bool:
        ref = self.references.get(i)
        if ref is None:
            c = self.cases[i]
            index = np.arange(c.n + 1)
            if c.alpha != 0.5:
                # the mpmath series is slow: the last point and a seeded subsample
                pick = self.check_rng.choice(index[:-1], 3, replace=False)
                index = np.sort(np.append(pick, c.n))
            ref = (index, mittag_leffler_reference(c.alpha, c.lam * c.times[index] ** c.alpha))
            self.references[i] = ref
        return checks.mlf_ok(values, *ref)


# ---------------------------------------------------------------------------
# mixes
# ---------------------------------------------------------------------------

class Mix:
    """Rounds of two workloads interleaved in one seeded order.

    A run on a shared machine swings by 20-40 % with the load of other
    tenants, over tens of seconds; only longer runs average that out, and the
    run budget allows long runs for two workloads, not four.  Each mix pairs
    a workload that exercises a mechanism with one that bypasses it.
    """

    PARTS: tuple = ()
    REPEATS: tuple = ()

    def __init__(self, seed: int, fracsum, tracer=None):
        self.parts = [part(seed, fracsum, tracer) for part in self.PARTS]
        self.rng = np.random.default_rng([seed, 6])

    def warm(self, api):
        for part in self.parts:
            part.warm(api)

    def round(self, index: int) -> list:
        requests = []
        for part, repeats in zip(self.parts, self.REPEATS):
            for k in range(repeats):
                requests += [(part, r) for r in part.round(index * repeats + k)]
        return [requests[i] for i in self.rng.permutation(len(requests))]

    @staticmethod
    def run(api, request):
        part, r = request
        return part.run(api, r)

    @staticmethod
    def check(request, output) -> bool:
        part, r = request
        return part.check(r, output)


class KernelMix(Mix):
    """compress_cold and error_scan: eight rounds of the first (64 cold
    compressions) to one of the second (the 60-point grid), of comparable
    time."""

    name = "kernel_mix"
    PARTS = (CompressCold, ErrorScan)
    REPEATS = (8, 1)


class SolveMix(Mix):
    """solve_ivp and mlf_reference, one round each: 16 solves, 16 grids."""

    name = "solve_mix"
    PARTS = (SolveIVP, MlfReference)
    REPEATS = (1, 1)


WORKLOADS = {
    "kernel_mix": KernelMix,
    "solve_mix": SolveMix,
    "compress_cold": CompressCold,
    "error_scan": ErrorScan,
    "solve_ivp": SolveIVP,
    "mlf_reference": MlfReference,
}
