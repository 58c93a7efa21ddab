import math
import tracemalloc

import numpy as np
import pytest

from fracsum.kernel import compress
from fracsum.oracle import conv_const_exact, mlf_exact_solution
from fracsum.problems import mittag_leffler_problem, van_der_pol_problem
from fracsum.solver import (
    FDEProblem,
    SolverConfig,
    StepFailureError,
    dump_trajectory,
    history_eval,
    init_state,
    phi_step,
    solve,
    tr_step,
)


def constant_problem(alpha=0.5, dim=1, T=1.0):
    return FDEProblem(alpha=alpha, dim=dim, u0=np.ones(dim), T=T,
                      rhs=lambda t, u: np.zeros(dim))


class TestAuxiliaryState:
    def test_init_zero(self):
        S = compress(0.5, 1e-2, 5.0, 4, 3)
        state = init_state(S, 2)
        assert state.phi.shape == (2, S.terms)
        assert not state.phi.any()
        assert np.array_equal(state.rates, S.a)
        assert np.array_equal(state.coeffs, S.b)
        np.testing.assert_array_equal(history_eval(state), np.zeros(2))

    def test_single_term_history(self):
        S = compress(0.5, 1.0, 10.0, 0, 1)
        state = init_state(S, 1)
        state.phi[0, 0] = 3.0
        assert history_eval(state)[0] == 3.0 * S.b[0]

    def test_dim_validation(self):
        S = compress(0.5, 1e-2, 5.0, 1, 1)
        with pytest.raises(ValueError):
            init_state(S, 0)


class TestPhiStep:
    def _state(self, rates):
        rates = np.asarray(rates, dtype=float)
        return type(init_state(compress(0.5, 1e-2, 5.0, 0, 1), 1))(
            phi=np.zeros((1, len(rates))), rates=rates, coeffs=np.ones(len(rates)))

    def test_zero_forcing_stays_zero(self):
        state = self._state([1.0, 50.0])
        out = phi_step(state, np.zeros(1), np.zeros(1), 0.1)
        assert not out.phi.any()

    def test_zero_rate_integrates_exactly(self):
        # degenerate rate: trapezoidal integration of a constant is exact
        state = self._state([0.0])
        c, h = 0.7, 0.05
        for n in range(1, 21):
            state = phi_step(state, np.array([c]), np.array([c]), h)
            assert state.phi[0, 0] == pytest.approx(n * h * c, rel=1e-14)

    def test_fixed_point(self):
        a, h = 3.7, 0.01
        state = self._state([a])
        state.phi[0, 0] = 1.0 / a
        out = phi_step(state, np.ones(1), np.ones(1), h)
        assert out.phi[0, 0] == pytest.approx(1.0 / a, rel=1e-14)

    def test_second_order_against_closed_form(self):
        # constant forcing: each column converges to its exact convolution at
        # rate h^2 (error drops 4x per halving)
        S = compress(0.5, 1e-2, 10.0, 10, 4)
        exact = (1.0 - np.exp(-S.a)) / S.a
        errors = []
        for h in (2e-2, 1e-2, 5e-3):
            state = init_state(S, 1)
            ones = np.ones(1)
            for _ in range(int(round(1.0 / h))):
                state = phi_step(state, ones, ones, h)
            errors.append(np.max(np.abs(state.phi[0] - exact)))
            # the history is the coefficient-weighted column sum
            assert history_eval(state)[0] == pytest.approx(
                float(state.phi[0] @ S.b), rel=1e-14)
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.5)
        # and the terminal history matches the closed-form convolution of 1
        assert state.phi[0] @ S.b == pytest.approx(conv_const_exact(S, 1.0), rel=1e-4)


class TestTrStep:
    def test_linear_step_closed_form(self):
        alpha, lam, h = 0.5, -1.0, 1e-3
        problem = mittag_leffler_problem(alpha, lam, 10.0)
        config = SolverConfig(h=h, eps_kernel=1e-8)
        S = compress(alpha, h, 10.0, 18, 6)
        state = init_state(S, 1)
        v1, state1, iters = tr_step(problem, config, state, problem.u0, 0.0)
        w0 = 1.0 / math.gamma(2.0 + alpha)
        w1 = alpha * w0
        expected = (1.0 + h ** alpha * w1 * lam) / (1.0 - h ** alpha * w0 * lam)
        assert v1[0] == pytest.approx(expected, rel=1e-12)
        assert iters >= 1
        assert state1.phi.any()

    def test_zero_rhs_keeps_initial_value(self):
        problem = constant_problem(alpha=0.3, dim=2, T=0.5)
        traj = solve(problem, SolverConfig(h=1e-2, eps_kernel=1e-6))
        np.testing.assert_array_equal(traj.states, np.ones_like(traj.states))
        assert traj.newton_iterations.max() == 0


class TestSolve:
    def test_trajectory_layout(self):
        problem = constant_problem(T=1.05)
        traj = solve(problem, SolverConfig(h=0.1, eps_kernel=1e-4))
        assert len(traj.times) == 11
        np.testing.assert_allclose(traj.times, 0.1 * np.arange(11), rtol=0, atol=0)
        assert traj.times[-1] <= problem.T < traj.times[-1] + 0.1
        assert traj.states.shape == (11, 1)
        assert len(traj.newton_iterations) == 10

    def test_linear_problem_accuracy(self):
        problem = mittag_leffler_problem(0.5, -1.0, 1.0)
        traj = solve(problem, SolverConfig(h=1e-2, eps_kernel=1e-10))
        exact = np.array([mlf_exact_solution(0.5, -1.0, t).real for t in traj.times])
        err = np.abs(traj.states[:, 0] - exact)
        # bands fixed by a reference run of this configuration
        assert err.max() <= 3e-3
        assert err[-1] <= 1e-4

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("h", [1e-2, 2e-3])
    def test_decay_stays_positive_monotone(self, alpha, h):
        # negative rate: the A-stable update keeps the solution positive and
        # decaying for every tested order and step
        problem = mittag_leffler_problem(alpha, -1.0, 2.0)
        traj = solve(problem, SolverConfig(h=h, eps_kernel=1e-8))
        vals = traj.states[:, 0]
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) <= 1e-12)

    def test_kernel_tolerance_saturation_at_endpoint(self):
        # coarse kernels dominate the error; past ~1e-4 the stepper dominates
        # and further tightening moves the result by well under ten percent
        problem = mittag_leffler_problem(0.5, -1.0, 2.0)
        u_end = mlf_exact_solution(0.5, -1.0, 2.0).real
        err = {}
        for eps in (1e-2, 1e-4, 1e-8, 1e-10):
            traj = solve(problem, SolverConfig(h=5e-3, eps_kernel=eps))
            err[eps] = abs(traj.states[-1, 0] - u_end)
        assert err[1e-2] >= 10.0 * err[1e-4]
        assert abs(err[1e-8] - err[1e-10]) <= 0.1 * err[1e-10]
        assert abs(err[1e-4] - err[1e-10]) <= 0.1 * err[1e-10]

    def test_complex_embedding_tracks_exact_solution(self):
        problem = mittag_leffler_problem(0.8, 1j, 10.0)
        assert problem.dim == 2
        traj = solve(problem, SolverConfig(h=1e-2, eps_kernel=1e-8))
        numeric = traj.states[:, 0] + 1j * traj.states[:, 1]
        exact = mlf_exact_solution(0.8, 1j, traj.times)
        assert np.abs(numeric).max() <= 1.0 + 1e-9
        assert np.abs(numeric - exact).max() <= 5e-4

    def test_van_der_pol_bounded(self):
        problem = van_der_pol_problem(0.8, 4.0, 2.0, 0.0, 5.0)
        traj = solve(problem, SolverConfig(h=5e-3, eps_kernel=1e-8))
        assert np.isfinite(traj.states).all()
        assert np.abs(traj.states[:, 0]).max() <= 3.0

    def test_van_der_pol_oscillation_band(self):
        # long-run amplitude band fixed by a reference run at step 2.5e-4
        # (max |x| over [5, 25] = 1.46906, ten zero crossings)
        problem = van_der_pol_problem(0.8, 4.0, 2.0, 0.0, 25.0)
        traj = solve(problem, SolverConfig(h=2e-3, eps_kernel=1e-8))
        late = traj.states[traj.times >= 5.0, 0]
        assert 1.3 <= np.abs(late).max() <= 1.7
        assert np.count_nonzero(np.diff(np.sign(late))) >= 6

    def test_finite_difference_jacobian_fallback(self):
        problem = FDEProblem(alpha=0.6, dim=1, u0=np.array([0.5]), T=0.5,
                             rhs=lambda t, u: -u ** 3)
        traj = solve(problem, SolverConfig(h=1e-2, eps_kernel=1e-6))
        assert np.isfinite(traj.states).all()
        assert np.all(np.diff(traj.states[:, 0]) <= 1e-12)

    def test_step_failure_reports_index(self):
        problem = FDEProblem(alpha=0.5, dim=1, u0=np.array([1.0]), T=1.0,
                             rhs=lambda t, u: np.exp(10.0 * u))
        with pytest.raises(StepFailureError) as failure:
            solve(problem, SolverConfig(h=0.5, eps_kernel=1e-4, newton_max_iter=1))
        assert failure.value.step_index == 0
        assert len(failure.value.residuals) >= 1

    def test_step_size_validation(self):
        with pytest.raises(ValueError):
            solve(constant_problem(T=1.0), SolverConfig(h=2.0, eps_kernel=1e-6))

    def test_memory_stays_bounded(self):
        # the solver keeps O(dim * P) state; the only step-count-sized memory
        # is the returned trajectory
        problem = mittag_leffler_problem(0.5, -1.0, 2.0)
        config = SolverConfig(h=2e-4, eps_kernel=1e-6)
        solve(mittag_leffler_problem(0.5, -1.0, 2.0),
              SolverConfig(h=2e-4, eps_kernel=1e-6))  # warm rule caches
        tracemalloc.start()
        traj = solve(problem, config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        trajectory_bytes = traj.states.nbytes + traj.times.nbytes \
            + traj.newton_iterations.nbytes
        assert peak <= trajectory_bytes + 128 * 1024


class TestTrajectoryExport:
    def test_round_trip_rows(self):
        problem = constant_problem(alpha=0.4, dim=2, T=0.3)
        traj = solve(problem, SolverConfig(h=0.1, eps_kernel=1e-4))
        text = dump_trajectory(traj)
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(rows) == len(traj.times)
        t, v0, v1, iters = rows[-1].split()
        assert float(t) == traj.times[-1]
        assert float(v0) == traj.states[-1, 0]
        assert float(v1) == traj.states[-1, 1]
        assert int(iters) == traj.newton_iterations[-1]


class TestValidation:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            FDEProblem(alpha=1.5, dim=1, u0=np.array([1.0]), T=1.0, rhs=lambda t, u: u)
        with pytest.raises(ValueError):
            FDEProblem(alpha=0.5, dim=0, u0=np.array([]), T=1.0, rhs=lambda t, u: u)
        with pytest.raises(ValueError):
            FDEProblem(alpha=0.5, dim=2, u0=np.array([1.0]), T=1.0, rhs=lambda t, u: u)
        with pytest.raises(ValueError):
            FDEProblem(alpha=0.5, dim=1, u0=np.array([1.0]), T=-1.0, rhs=lambda t, u: u)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(h=0.0)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, newton_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, newton_max_iter=0)

    def test_van_der_pol_validation(self):
        with pytest.raises(ValueError):
            van_der_pol_problem(0.8, -1.0, 2.0, 0.0, 5.0)
