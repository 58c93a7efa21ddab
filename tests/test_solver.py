import contextlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracsum.kernel import compress, select_parameters
from fracsum.oracle import conv_const_exact, mlf_exact_solution
from fracsum.problems import mittag_leffler_problem, van_der_pol_problem
from fracsum.solver import (
    BLOCK,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    FDEProblem,
    SolverConfig,
    StepFailureError,
    _march_lists,
    _march_scalar,
    _solve,
    _trapezoid_factors,
    solve,
)


def constant_problem(alpha=0.5, dim=1, T=1.0):
    return FDEProblem(alpha=alpha, u0=np.ones(dim), T=T,
                      rhs=lambda t, u: np.zeros(dim))


def block_diagonal_problem(alpha, lam, mu, T):
    """A real rate lam and a complex one mu in one 3-dimensional linear system."""
    rates = np.array([[lam, 0.0, 0.0],
                      [0.0, mu.real, -mu.imag],
                      [0.0, mu.imag, mu.real]])
    return FDEProblem(alpha=alpha, u0=np.array([1.0, 1.0, 0.0]), T=T,
                      rhs=lambda t, u: rates @ u,
                      jacobian=lambda t, u: rates)


def phi_step(phi, forcing, rates, h):
    """One trapezoidal update of the auxiliary variables, as solve does it."""
    decay, gain = _trapezoid_factors(np.asarray(rates, dtype=float), h)
    return phi * decay + np.multiply.outer(forcing, gain)


def reference_solve(problem, config):
    """Per-step reference for solve: the history is phi @ b with phi advanced
    by phi_step after every step, and Newton goes through numpy.linalg.solve
    on arrays made from the callbacks' results."""
    h, alpha = config.h, problem.alpha
    K, J = select_parameters(alpha, h, problem.T, config.eps_kernel)
    S = compress(alpha, h, problem.T, K, J)
    c0 = h ** alpha * (1.0 / math.gamma(2.0 + alpha))
    c1 = h ** alpha * (alpha / math.gamma(2.0 + alpha))
    n_steps = int(math.floor(problem.T / h + 1e-9))
    phi = np.zeros((problem.dim, S.terms))
    states = [problem.u0]
    iterations = []
    f_n = np.array(problem.rhs(0.0, tuple(problem.u0.tolist())))
    for n in range(n_steps):
        t = n * h + h
        base = c1 * f_n + phi @ S.b + problem.u0
        x = states[-1]
        for it in range(NEWTON_MAX_ITER + 1):
            fx = np.array(problem.rhs(t, tuple(x.tolist())))
            residual = x - c0 * fx - base
            if np.abs(residual).max() <= NEWTON_TOL:
                break
            jac = np.array(problem.jacobian(t, tuple(x.tolist())))
            matrix = np.eye(problem.dim) - c0 * jac
            x = x - np.linalg.solve(matrix, residual)
        phi = phi_step(phi, f_n + fx, S.a, h)
        states.append(x)
        iterations.append(it)
        f_n = fx
    return np.array(states), np.array(iterations)


class TestPhiStep:
    def test_zero_forcing_stays_zero(self):
        out = phi_step(np.zeros((1, 2)), np.zeros(1), [1.0, 50.0], 0.1)
        assert not out.any()

    def test_zero_rate_integrates_exactly(self):
        # degenerate rate: trapezoidal integration of a constant is exact
        phi = np.zeros((1, 1))
        c, h = 0.7, 0.05
        for n in range(1, 21):
            phi = phi_step(phi, np.array([2.0 * c]), [0.0], h)
            assert phi[0, 0] == pytest.approx(n * h * c, rel=1e-14)

    def test_fixed_point(self):
        a, h = 3.7, 0.01
        out = phi_step(np.full((1, 1), 1.0 / a), np.array([2.0]), [a], h)
        assert out[0, 0] == pytest.approx(1.0 / a, rel=1e-14)

    def test_second_order_against_closed_form(self):
        # constant forcing: each column converges to its exact convolution at
        # rate h^2 (error drops 4x per halving)
        S = compress(0.5, 1e-2, 10.0, 10, 4)
        exact = (1.0 - np.exp(-S.a)) / S.a
        errors = []
        for h in (2e-2, 1e-2, 5e-3):
            phi = np.zeros((1, S.terms))
            for _ in range(int(round(1.0 / h))):
                phi = phi_step(phi, np.array([2.0]), S.a, h)
            errors.append(np.max(np.abs(phi[0] - exact)))
        assert errors[0] / errors[1] == pytest.approx(4.0, abs=0.5)
        assert errors[1] / errors[2] == pytest.approx(4.0, abs=0.5)
        # and the terminal history matches the closed-form convolution of 1
        assert phi[0] @ S.b == pytest.approx(conv_const_exact(S, 1.0), rel=1e-4)


class TestTrStep:
    def test_linear_step_closed_form(self):
        alpha, lam, h = 0.5, -1.0, 1e-3
        problem = mittag_leffler_problem(alpha, lam, 1.5 * h)
        traj = solve(problem, SolverConfig(h=h, eps_kernel=1e-8))
        w0 = 1.0 / math.gamma(2.0 + alpha)
        w1 = alpha * w0
        expected = (1.0 + h ** alpha * w1 * lam) / (1.0 - h ** alpha * w0 * lam)
        assert len(traj.times) == 2
        assert traj.states[1, 0] == pytest.approx(expected, rel=1e-12)
        assert traj.newton_iterations[0] >= 1

    def test_second_step_carries_history(self):
        # the history starts at zero and is the kernel coefficients contracted
        # with the auxiliary variables after one trapezoidal update
        alpha, lam, h = 0.5, -1.0, 1e-2
        problem = mittag_leffler_problem(alpha, lam, 2.5 * h)
        traj = solve(problem, SolverConfig(h=h, eps_kernel=1e-8))
        S = traj.kernel
        c0 = h ** alpha / math.gamma(2.0 + alpha)
        c1 = alpha * c0
        v1 = (1.0 + c1 * lam) / (1.0 - c0 * lam)
        x = 0.5 * h * S.a
        history = np.sum(S.b * 0.5 * h / (1.0 + x)) * lam * (1.0 + v1)
        v2 = (1.0 + c1 * lam * v1 + history) / (1.0 - c0 * lam)
        assert history != 0.0
        np.testing.assert_allclose(traj.states[1:, 0], [v1, v2], rtol=1e-12)

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
        problem = FDEProblem(alpha=0.6, u0=np.array([0.5]), T=0.5,
                             rhs=lambda t, u: [-u[0] ** 3])
        traj = solve(problem, SolverConfig(h=1e-2, eps_kernel=1e-6))
        assert np.isfinite(traj.states).all()
        assert np.all(np.diff(traj.states[:, 0]) <= 1e-12)

    def test_step_failure_reports_index(self):
        # a zero Jacobian for the rhs -2u/c0 makes each Newton correction
        # double the residual, so the iteration never converges
        c0 = 0.1 ** 0.5 / math.gamma(2.5)
        problem = FDEProblem(alpha=0.5, u0=np.array([1.0]), T=1.0,
                             rhs=lambda t, u: [-2.0 * u[0] / c0],
                             jacobian=lambda t, u: ((0.0,),))
        with pytest.raises(StepFailureError, match="did not reach") as failure:
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))
        assert failure.value.step_index == 0
        assert len(failure.value.residuals) == NEWTON_MAX_ITER + 1

    def test_singular_newton_matrix_reports_index(self):
        # rhs u/c0 makes the Newton matrix 1 - c0 * (1/c0) exactly zero
        c0 = 0.1 ** 0.5 / math.gamma(2.5)
        problem = FDEProblem(alpha=0.5, u0=np.array([1.0]), T=1.0,
                             rhs=lambda t, u: [u[0] / c0],
                             jacobian=lambda t, u: ((1.0 / c0,),))
        with pytest.raises(StepFailureError, match="singular") as failure:
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))
        assert failure.value.step_index == 0
        assert len(failure.value.residuals) == 1

    def test_singular_three_dimensional_newton_matrix(self):
        # the third diagonal entry of I - c0 diag(-1, -2, 1/c0) is exactly zero
        c0 = 0.1 ** 0.5 / math.gamma(2.5)
        rates = np.diag([-1.0, -2.0, 1.0 / c0])
        problem = FDEProblem(alpha=0.5, u0=np.ones(3), T=1.0,
                             rhs=lambda t, u: rates @ u,
                             jacobian=lambda t, u: rates)
        with pytest.raises(StepFailureError, match="singular") as failure:
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))
        assert failure.value.step_index == 0
        assert len(failure.value.residuals) == 1

    @pytest.mark.parametrize("values", [np.array([0.0, np.nan]), [np.nan], [np.nan, 0.0],
                                        [0.0, 0.0, np.nan]],
                             ids=["second-of-two", "dim-1", "first-of-two", "third-of-three"])
    def test_nan_residual_never_converges(self, values):
        # a NaN in any component must fail the step, not pass the norm test
        problem = FDEProblem(alpha=0.5, u0=np.ones(len(values)),
                             T=1.0, rhs=lambda t, u: values)
        with pytest.raises(StepFailureError, match="did not reach") as failure:
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))
        assert failure.value.step_index == 0
        assert all(math.isnan(r) for r in failure.value.residuals)

    def test_reports_kernel_and_work(self):
        calls = {"rhs": 0, "jacobian": 0}
        base = van_der_pol_problem(0.8, 4.0, 2.0, 0.0, 1.0)

        def rhs(t, u):
            calls["rhs"] += 1
            return base.rhs(t, u)

        def jacobian(t, u):
            calls["jacobian"] += 1
            return base.jacobian(t, u)

        config = SolverConfig(h=1e-2, eps_kernel=1e-8)
        for jac in (jacobian, None):
            calls.update(rhs=0, jacobian=0)
            problem = FDEProblem(alpha=0.8, u0=base.u0, T=1.0,
                                 rhs=rhs, jacobian=jac)
            traj = solve(problem, config)
            assert traj.rhs_calls == calls["rhs"]
            assert traj.jacobian_calls == calls["jacobian"]
            # one rhs call to start, one per Newton residual, and two more
            # per finite-difference Jacobian
            iters = int(traj.newton_iterations.sum())
            steps = len(traj.newton_iterations)
            fd = jac is None
            assert calls["rhs"] == 1 + steps + iters + (2 * iters if fd else 0)
            assert calls["jacobian"] == (0 if fd else iters)
        K, J = select_parameters(0.8, 1e-2, 1.0, 1e-8)
        S = compress(0.8, 1e-2, 1.0, K, J)
        assert (traj.kernel.K, traj.kernel.J, traj.kernel.terms) == (K, J, S.terms)
        np.testing.assert_array_equal(traj.kernel.a, S.a)
        np.testing.assert_array_equal(traj.kernel.b, S.b)

    @pytest.mark.parametrize("problem", [
        mittag_leffler_problem(0.5, -1.0, 2.01),
        van_der_pol_problem(0.85, 4.0, 2.0, 0.0, 2.01),
        block_diagonal_problem(0.6, -1.5, -1 + 2j, 2.01),
    ], ids=["real-rate", "van-der-pol", "dim-3"])
    def test_blocked_history_matches_per_step_recursion(self, problem):
        # 201 steps, so the last block is partial; the scalar step loop at
        # dim 1 and 2, the list loop at dim 3
        config = SolverConfig(h=1e-2, eps_kernel=1e-8)
        traj = solve(problem, config)
        states, iterations = reference_solve(problem, config)
        assert len(traj.newton_iterations) % BLOCK != 0
        np.testing.assert_array_equal(traj.newton_iterations, iterations)
        np.testing.assert_allclose(traj.states, states, rtol=1e-13, atol=0)

    def test_three_dimensional_block_diagonal_system(self):
        # a real rate and a complex pair in one system, solved by
        # numpy.linalg.solve; each block follows its exact solution and its own
        # lower-dim solve
        alpha, lam, mu, h, T = 0.6, -1.5, -1 + 2j, 3e-3, 3.0
        problem = block_diagonal_problem(alpha, lam, mu, T)
        config = SolverConfig(h=h, eps_kernel=1e-8)
        traj = solve(problem, config)
        real = mlf_exact_solution(alpha, lam, traj.times).real
        pair = mlf_exact_solution(alpha, mu, traj.times)
        # 8.3e-4 in a reference run
        assert np.abs(traj.states[:, 0] - real).max() <= 1e-3
        assert np.abs(traj.states[:, 1] + 1j * traj.states[:, 2] - pair).max() <= 1e-3
        apart = np.hstack([solve(mittag_leffler_problem(alpha, lam, T), config).states,
                           solve(mittag_leffler_problem(alpha, mu, T), config).states])
        np.testing.assert_allclose(traj.states, apart, rtol=0, atol=1e-14)

    def test_zero_leading_entry_takes_row_swap(self):
        # the Newton matrix [[0, -1], [2, 2]] is regular, but only after its
        # rows are swapped; the same system with its components swapped needs
        # no swap and must give the same trajectory
        alpha, h = 0.5, 0.1
        c0 = h ** alpha * (1.0 / math.gamma(2.0 + alpha))
        assert 1.0 - c0 * (1.0 / c0) == 0.0
        rates = np.array([[1.0, 1.0], [-2.0, -1.0]]) / c0
        swapped = rates[::-1, ::-1].copy()
        config = SolverConfig(h=h, eps_kernel=1e-6)

        def linear(matrix, u0):
            return FDEProblem(alpha=alpha, u0=np.array(u0), T=1.0,
                              rhs=lambda t, u: matrix @ u,
                              jacobian=lambda t, u: matrix)

        traj = solve(linear(rates, [1.0, 0.5]), config)
        mirror = solve(linear(swapped, [0.5, 1.0]), config)
        u0 = traj.states[0]
        first = np.linalg.solve(np.eye(2) - c0 * rates,
                                u0 + h ** alpha * (alpha / math.gamma(2.0 + alpha)) * rates @ u0)
        np.testing.assert_allclose(traj.states[1], first, rtol=1e-14)
        np.testing.assert_allclose(traj.states, mirror.states[:, ::-1], rtol=1e-13)
        assert np.isfinite(traj.states).all()

    @pytest.mark.parametrize("newton_matrix", [
        ((0.0, 0.0), (0.0, 0.5)),  # first column zero
        ((1.0, 1.0), (1.0, 1.0)),  # u11 zero after elimination
    ], ids=["zero-column", "zero-u11"])
    def test_two_dimensional_singular_matrix(self, newton_matrix):
        # the written-out 2 x 2 LU meets the Newton matrix I - c0 jac exactly
        c0 = 0.1 ** 0.5 / math.gamma(2.5)
        jac = (np.eye(2) - newton_matrix) / c0
        np.testing.assert_array_equal(np.eye(2) - c0 * jac, newton_matrix)
        problem = FDEProblem(alpha=0.5, u0=np.ones(2), T=1.0,
                             rhs=lambda t, u: jac @ u, jacobian=lambda t, u: jac)
        with pytest.raises(StepFailureError, match="singular") as failure:
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))
        assert failure.value.step_index == 0
        assert len(failure.value.residuals) == 1

    @pytest.mark.parametrize("problem", [
        mittag_leffler_problem(0.5, -1.0, 3.0),
        mittag_leffler_problem(0.8, -1 + 2j, 3.0),
        van_der_pol_problem(0.85, 4.0, 2.0, 0.0, 3.0),
        replace(mittag_leffler_problem(0.5, -1.0, 3.0), jacobian=None),
        replace(mittag_leffler_problem(0.8, -1 + 2j, 3.0), jacobian=None),
        replace(van_der_pol_problem(0.85, 4.0, 2.0, 0.0, 3.0), jacobian=None),
        FDEProblem(alpha=0.6, u0=np.array([0.5]), T=3.0,
                   rhs=lambda t, u: [math.sin(t) - u[0] ** 3]),
    ], ids=["real-rate", "complex-rate", "van-der-pol", "real-rate-fd",
            "complex-rate-fd", "van-der-pol-fd", "cubic-fd"])
    def test_list_loop_agrees_with_scalar_loop(self, problem):
        # solve runs the list loop only from dim 3 on.  At dim 1 and 2 the two
        # share all but Newton's linear solve, where numpy.linalg.solve may
        # round otherwise than the written-out LU (it did on 39 % of random
        # 2 x 2 systems), so they agree to Newton's tolerance, at equal counts
        config = SolverConfig(h=5e-3, eps_kernel=1e-8)
        scalar = _solve(problem, config, _march_scalar)
        lists = _solve(problem, config, _march_lists)
        np.testing.assert_allclose(lists.states, scalar.states, rtol=0, atol=NEWTON_TOL)
        np.testing.assert_array_equal(lists.newton_iterations, scalar.newton_iterations)
        assert (lists.rhs_calls, lists.jacobian_calls) == \
            (scalar.rhs_calls, scalar.jacobian_calls)

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


class TestCallbacks:
    def test_result_types_agree(self):
        # the callbacks get u as a tuple; tuples, lists and ndarrays of the
        # same products give the same trajectory, bit for bit
        alpha, lr, li, T = 0.5, -1.0, 2.0, 5.0
        config = SolverConfig(h=1e-2, eps_kernel=1e-8)
        mat = np.array([[lr, -li], [li, lr]])

        def products(t, u):
            return lr * u[0] - li * u[1], li * u[0] + lr * u[1]

        ways = [(products, lambda t, u: ((lr, -li), (li, lr))),
                (lambda t, u: list(products(t, u)), lambda t, u: mat.tolist()),
                (lambda t, u: np.array(products(t, u)), lambda t, u: mat)]
        reference = solve(mittag_leffler_problem(alpha, complex(lr, li), T), config)
        for rhs, jacobian in ways:
            traj = solve(FDEProblem(alpha=alpha, u0=np.array([1.0, 0.0]), T=T,
                                    rhs=rhs, jacobian=jacobian), config)
            np.testing.assert_array_equal(traj.states, reference.states)
            np.testing.assert_array_equal(traj.newton_iterations,
                                          reference.newton_iterations)
            assert (traj.rhs_calls, traj.jacobian_calls) == \
                (reference.rhs_calls, reference.jacobian_calls)
        # numpy's matmul may fuse a multiply-add, so mat @ u agrees to rounding
        traj = solve(FDEProblem(alpha=alpha, u0=np.array([1.0, 0.0]), T=T,
                                rhs=lambda t, u: mat @ u,
                                jacobian=lambda t, u: mat), config)
        np.testing.assert_allclose(traj.states, reference.states, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(traj.newton_iterations, reference.newton_iterations)

    @pytest.mark.parametrize("first_call", [True, False], ids=["forcing", "newton-loop"])
    def test_one_dimensional_rhs_of_wrong_length_raises(self, first_call):
        calls = []

        def rhs(t, u):
            calls.append(t)
            return [-u[0], 0.0] if first_call or len(calls) > 1 else [-u[0]]

        problem = FDEProblem(alpha=0.5, u0=np.ones(1), T=1.0, rhs=rhs)
        with pytest.raises(ValueError, match="dim = 1 values, got 2"):
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))
        assert len(calls) == 1 + (not first_call)

    @pytest.mark.parametrize("values", [1, 3])
    def test_rhs_of_wrong_length_raises(self, values):
        # zip would drop a third value, and a single one would stand for both
        problem = FDEProblem(alpha=0.5, u0=np.ones(2), T=1.0,
                             rhs=lambda t, u: [-u[0]] * values,
                             jacobian=lambda t, u: ((-1.0, 0.0), (0.0, -1.0)))
        with pytest.raises(ValueError, match=f"dim = 2 values, got {values}"):
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))

    @pytest.mark.parametrize("dim, jacobian", [
        (2, lambda t, u: ((-1.0, 0.0), (0.0, -1.0))),
        (2, None),
        (3, lambda t, u: -np.eye(3)),
        (3, None),
    ], ids=["newton-loop", "finite-differences", "newton-loop-dim-3",
            "finite-differences-dim-3"])
    def test_rhs_changing_length_raises(self, dim, jacobian):
        # the first two calls (step 0's forcing and Newton residual) give dim
        # values; the next, a Newton residual or a difference quotient, one more
        calls = []

        def rhs(t, u):
            calls.append(t)
            return [-v for v in u] + [0.0] * (len(calls) > 2)

        problem = FDEProblem(alpha=0.5, u0=np.ones(dim), T=1.0, rhs=rhs,
                             jacobian=jacobian)
        with pytest.raises(ValueError, match=f"dim = {dim} values, got {dim + 1}"):
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))
        assert len(calls) == 3

    @pytest.mark.parametrize("dim, rows", [
        (1, ((-1.0, 0.0),)),
        (2, ((-1.0, 0.0),)),
        (2, ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0))),
        (3, (-1.0, -1.0, -1.0)),
    ])
    def test_jacobian_of_wrong_shape_raises(self, dim, rows):
        problem = FDEProblem(alpha=0.5, u0=np.ones(dim), T=1.0,
                             rhs=lambda t, u: [-v for v in u],
                             jacobian=lambda t, u: rows)
        with pytest.raises(ValueError):
            solve(problem, SolverConfig(h=0.1, eps_kernel=1e-6))

    @pytest.mark.parametrize("lam", [-1.0, -1 + 2j])
    def test_problem_jacobian_is_not_shared_state(self, lam):
        # a caller writing into a returned Jacobian must not change the problem
        problem = mittag_leffler_problem(0.5, lam, 1.0)
        config = SolverConfig(h=0.1, eps_kernel=1e-6)
        u = (1.0,) * problem.dim
        expected = [list(row) for row in problem.jacobian(0.0, u)]
        before = solve(problem, config)
        with contextlib.suppress(TypeError):
            problem.jacobian(0.0, u)[0][0] = 5.0
        assert [list(row) for row in problem.jacobian(0.0, u)] == expected
        np.testing.assert_array_equal(solve(problem, config).states, before.states)


class TestValidation:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            FDEProblem(alpha=1.5, u0=np.array([1.0]), T=1.0, rhs=lambda t, u: u)
        for u0 in ([], np.ones((1, 1)), np.ones((2, 2)), 1.0):
            with pytest.raises(ValueError, match="nonempty and 1-D"):
                FDEProblem(alpha=0.5, u0=u0, T=1.0, rhs=lambda t, u: u)
        with pytest.raises(ValueError):
            FDEProblem(alpha=0.5, u0=np.array([1.0]), T=-1.0, rhs=lambda t, u: u)
        with pytest.raises(ValueError, match="u0 must be finite"):
            FDEProblem(alpha=0.5, u0=np.array([math.nan]), T=1.0, rhs=lambda t, u: u)
        with pytest.raises(ValueError, match="rate lam must be finite"):
            mittag_leffler_problem(0.5, math.nan, 1.0)

    def test_dimension_is_that_of_u0(self):
        problem = FDEProblem(alpha=0.5, u0=[1.0, 2.0, 3.0], T=1.0, rhs=lambda t, u: u)
        assert problem.dim == 3
        # the copy the benchmark's tracer makes sets its dimension again
        shorter = replace(problem, u0=[4.0], rhs=lambda t, u: [-u[0]])
        assert shorter.dim == 1 and shorter.u0.tolist() == [4.0]
        with pytest.raises(TypeError):
            FDEProblem(alpha=0.5, dim=1, u0=[1.0], T=1.0, rhs=lambda t, u: u)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(h=0.0)

    def test_van_der_pol_validation(self):
        with pytest.raises(ValueError):
            van_der_pol_problem(0.8, -1.0, 2.0, 0.0, 5.0)
        with pytest.raises(ValueError, match="damping constant mu"):
            van_der_pol_problem(0.8, math.nan, 1.0, 0.0, 1.0)


class TestBaseCases:
    # The unperturbed solve_ivp benchmark cases at kernel tolerance 1e-8:
    # final state and total Newton iterations, recorded before the step loop
    # was rewritten. The blocked history and the written-out 2 x 2 Newton
    # solve round differently from that loop; they stay within rtol 1e-13
    # (5.2e-14 at worst) with the same iteration counts.
    CASES = [
        (("mlf", 0.5, -1.0, 10.0), 0.01, [0.1705762227016069], 1000),
        (("mlf", 0.5, -1 + 2j, 5.0), 0.005,
         [0.05277722445733793, 0.10122280593499512], 1000),
        (("mlf", 0.3, -2.0, 4.0), 0.004, [0.21000513216800723], 1000),
        (("mlf", 0.7, -1.5, 6.0), 0.006, [0.07331514714816585], 1000),
        (("mlf", 0.9, -1 + 1j, 8.0), 0.008,
         [0.0075786157695568275, 0.01043050942057197], 1000),
        (("vdp", 0.8, 1.0, 2.0, 0.0, 5.0), 0.005,
         [0.1566769588836187, 1.1078805087902983], 2000),
        (("vdp", 0.9, 2.0, 2.0, 0.0, 8.0), 0.01,
         [0.5404322816525041, -1.4392774517878077], 1663),
        (("vdp", 0.85, 4.0, 2.0, 0.0, 5.0), 0.005,
         [-1.5557783709942232, -0.5433861882220913], 2050),
    ]

    @pytest.mark.parametrize("case, h, final, newton", CASES)
    def test_final_state(self, case, h, final, newton):
        kind, *params = case
        make = mittag_leffler_problem if kind == "mlf" else van_der_pol_problem
        traj = solve(make(*params), SolverConfig(h=h, eps_kernel=1e-8))
        np.testing.assert_allclose(traj.states[-1], final, rtol=1e-13, atol=0)
        assert int(traj.newton_iterations.sum()) == newton
