import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi

from fracsum.quadrature import (
    _monic_coefficients,
    _polish,
    _rule_extended,
    ErrorKernelQuery,
    contour_bound,
    error_kernel_estimate,
    gauss_jacobi_rule,
    optimal_ell,
    true_error_kernel,
)

AB_GRID = [(0.0, 0.0), (0.0, -0.5), (0.0, -0.9), (2.5, 0.3), (-0.5, -0.5)]


def quad_apply(rule, m: int) -> float:
    return math.fsum(rule.weights * rule.nodes ** m)


def _jacobi_and_derivative(n, a, b, x):
    """P_n^(a,b)(x) and its derivative, from the classical three-term recurrence."""
    def value(n, a, b):
        p0, p1 = mp.mpf(1), (a + 1) + (a + b + 2) * (x - 1) / 2
        if n == 0:
            return p0
        for k in range(2, n + 1):
            c = 2 * k + a + b
            p0, p1 = p1, ((c - 1) * (c * (c - 2) * x + a * a - b * b) * p1
                          - 2 * (k + a - 1) * (k + b - 1) * c * p0) / (2 * k * (k + a + b) * (c - 2))
        return p1
    return value(n, a, b), (n + a + b + 1) / 2 * value(n - 1, a + 1, b + 1)


def reference_rule(n: int, a: float, b: float):
    """Long-double rule rounded from 60-digit nodes and closed-form weights.

    Independent of the library's recurrence: classical Jacobi polynomials,
    Newton from scipy's roots, and the textbook weight formula.
    """
    with mp.workdps(60):
        am, bm = mp.mpf(a), mp.mpf(b)
        scale = (2 ** (am + bm + 1) * mp.gamma(n + am + 1) * mp.gamma(n + bm + 1)
                 / (mp.gamma(n + am + bm + 1) * mp.factorial(n)))
        nodes, weights = [], []
        for seed in roots_jacobi(n, a, b)[0]:
            x = mp.mpf(seed)
            for _ in range(30):
                p, d = _jacobi_and_derivative(n, am, bm, x)
                x -= p / d
                if abs(p / d) < mp.mpf("1e-55"):
                    break
            _, d = _jacobi_and_derivative(n, am, bm, x)
            nodes.append(np.longdouble(mp.nstr(x, 25)))
            weights.append(np.longdouble(mp.nstr(scale / ((1 - x * x) * d * d), 25)))
    return np.array(nodes), np.array(weights)


class TestRuleConstruction:
    def test_one_point_uniform(self):
        rule = gauss_jacobi_rule(1, 0.0, 0.0)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == 2.0

    def test_two_point_uniform(self):
        rule = gauss_jacobi_rule(2, 0.0, 0.0)
        ref = 0.5773502691896257645  # 1/sqrt(3), 60-digit eigen solve
        np.testing.assert_allclose(rule.nodes, [-ref, ref], rtol=1e-15)
        np.testing.assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-15)

    def test_one_point_singular_weight(self):
        # moment solve by hand: node -1/3, weight 2 sqrt 2
        rule = gauss_jacobi_rule(1, 0.0, -0.5)
        assert rule.nodes[0] == pytest.approx(-1.0 / 3.0, rel=1e-15)
        assert rule.weights[0] == pytest.approx(2.8284271247461900976, rel=1e-15)

    def test_three_point_singular_weight(self):
        # 60-digit Golub-Welsch reference
        rule = gauss_jacobi_rule(3, 0.0, -0.5)
        np.testing.assert_allclose(
            rule.nodes,
            [-0.8861217680659852935, -0.1256042944978121164, 0.7389987898365246827],
            rtol=1e-14)
        np.testing.assert_allclose(
            rule.weights,
            [1.323460464592113453, 1.020387818775459309, 0.4845788413786173362],
            rtol=1e-14)

    @pytest.mark.parametrize("n,a,b,wtol", [(4, 0.0, 0.0, 5e-13),
                                            (7, 1.5, -0.25, 5e-13),
                                            (20, 0.0, -0.5, 5e-13),
                                            # scipy's own weights lose ~1e-12
                                            # at the near-singular endpoint
                                            (12, 0.0, -0.99, 2e-11)])
    def test_against_independent_library(self, n, a, b, wtol):
        rule = gauss_jacobi_rule(n, a, b)
        nodes, weights = roots_jacobi(n, a, b)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=0, atol=5e-14)
        np.testing.assert_allclose(rule.weights, weights, rtol=wtol)

    @pytest.mark.parametrize("a,b", AB_GRID)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30])
    def test_polynomial_exactness(self, n, a, b, moment_oracle):
        rule = gauss_jacobi_rule(n, a, b)
        moments = moment_oracle(a, b, 2 * n - 1)
        for m in range(2 * n):
            got = quad_apply(rule, m)
            # zero moments (symmetric weights, odd m) are checked against the
            # attainable scale sum w |x|^m instead of a vanishing denominator
            scale = max(abs(moments[m]), 1e-3 * math.fsum(rule.weights * np.abs(rule.nodes) ** m))
            assert abs(got - moments[m]) <= 1e-12 * scale, \
                f"moment {m} off: {got} vs {moments[m]}"

    @pytest.mark.parametrize("a,b", AB_GRID)
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_interlacing(self, n, a, b):
        coarse = gauss_jacobi_rule(n, a, b).nodes
        fine = gauss_jacobi_rule(n + 1, a, b).nodes
        for i in range(n):
            assert fine[i] < coarse[i] < fine[i + 1]

    @pytest.mark.parametrize("a", [0.0, -0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 5, 11, 16])
    def test_symmetry(self, n, a):
        rule = gauss_jacobi_rule(n, a, a)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-13)

    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_weight_basics(self, a, b, moment_oracle):
        for n in (1, 6, 24, 64):
            rule = gauss_jacobi_rule(n, a, b)
            assert np.all(rule.weights > 0.0)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
            mu0 = moment_oracle(a, b, 0)[0]
            assert math.fsum(rule.weights) == pytest.approx(mu0, rel=1e-12)

    @pytest.mark.parametrize("n,a,b", [(7, 0.0, 0.0), (13, 10.0, 10.0), (16, 0.0, -0.5),
                                       (20, 2.5, -0.7), (30, 0.0, -0.999)])
    def test_correctly_rounded(self, n, a, b):
        # the long-double rule is the rounded 60-digit rule; a node that is 0
        # (odd symmetric rules) only has to vanish at the 40-digit working precision
        nodes, weights = _rule_extended(n, a, b)
        ref_nodes, ref_weights = reference_rule(n, a, b)
        zero = ref_nodes == 0
        assert np.array_equal(nodes[~zero], ref_nodes[~zero])
        assert np.all(np.abs(nodes[zero]) < 1e-40)
        assert np.array_equal(weights, ref_weights)

    def test_polish_gives_up(self):
        # a seed far outside [-1, 1] cannot converge in the step budget
        alphas, betas = _monic_coefficients(3, 0.0, 0.0)
        with mp.workdps(40):
            sqb = [mp.sqrt(v) for v in betas]
            with pytest.raises(RuntimeError, match="did not converge"):
                _polish(alphas, betas, sqb, 100.0, 3)

    def test_domain(self):
        for bad in [(0, 0.0, 0.0), (65, 0.0, 0.0), (-2, 0.0, 0.0)]:
            with pytest.raises(ValueError):
                gauss_jacobi_rule(*bad)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(4, -1.0, 0.0)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(4, 0.0, -1.3)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(4, 11.0, 0.0)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(2.5, 0.0, 0.0)


class TestErrorKernelEstimate:
    def test_reference_values(self):
        # closed form evaluated at 60 digits
        q = ErrorKernelQuery(5, 0.0, 0.0, 3.0)
        assert error_kernel_estimate(q) == pytest.approx(2.3829492374342033824e-8, rel=1e-13)
        q = ErrorKernelQuery(5, 0.0, -0.5, 3.0)
        assert error_kernel_estimate(q) == pytest.approx(2.8764741837301392252e-8, rel=1e-13)

    def test_step_ratio(self):
        # one more node shrinks the kernel by exactly (ell + sqrt(ell^2-1))^2
        for ell in (1.5, 2.2, 3.0):
            u2 = (ell + math.sqrt(ell * ell - 1.0)) ** 2
            for n in (1, 4, 9):
                a = error_kernel_estimate(ErrorKernelQuery(n, 0.3, -0.4, ell))
                b = error_kernel_estimate(ErrorKernelQuery(n + 1, 0.3, -0.4, ell))
                assert a / b == pytest.approx(u2, rel=1e-12)

    def test_positive_decreasing(self):
        vals = [error_kernel_estimate(ErrorKernelQuery(n, 0.0, -0.7, 2.0))
                for n in range(1, 12)]
        assert all(v > 0.0 for v in vals)
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ErrorKernelQuery(3, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ErrorKernelQuery(3, -1.5, 0.0, 2.0)
        with pytest.raises(ValueError):
            ErrorKernelQuery(-1, 0.0, 0.0, 2.0)


class TestTrueErrorKernel:
    def test_zero_order_log(self):
        # with no nodes the kernel is the plain resolvent integral: log((l+1)/(l-1))
        assert true_error_kernel(0, 0.0, 0.0, 3.0) == pytest.approx(math.log(2.0), rel=1e-9)
        assert true_error_kernel(0, 0.0, 0.0, 2.0) == pytest.approx(math.log(3.0), rel=1e-9)

    def test_reference_values(self):
        # adaptive quadrature of the integral representation at 50 digits
        assert true_error_kernel(1, 0.0, 0.0, 3.0) == pytest.approx(
            0.026480513893278642751, rel=1e-8)
        assert true_error_kernel(2, 0.0, -0.5, 3.0) == pytest.approx(
            0.0010398433736404848139, rel=1e-8)

    def test_tracks_estimate(self):
        ratios = []
        for n in range(2, 9):
            exact = true_error_kernel(n, 0.0, 0.0, 3.0)
            est = error_kernel_estimate(ErrorKernelQuery(n, 0.0, 0.0, 3.0))
            ratios.append(exact / est)
        assert 0.5 <= ratios[-1] <= 2.0
        gaps = [abs(1.0 - r) for r in ratios]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            true_error_kernel(9, 0.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            true_error_kernel(2, 0.0, 0.0, 0.9)
        with pytest.raises(ValueError):
            true_error_kernel(2, -1.1, 0.0, 3.0)


class TestOptimalEll:
    def test_closed_form_j1(self):
        ell, value = optimal_ell(1)
        assert ell == pytest.approx(2.08514578448732378, rel=1e-14)
        assert value == pytest.approx(0.071320916969368221884, rel=1e-13)

    def test_always_in_upper_half(self):
        for J in list(range(1, 30)) + [100, 200]:
            ell, _ = optimal_ell(J)
            assert 1.5 < ell < 3.0

    @pytest.mark.parametrize("J", range(1, 9))
    def test_is_minimizer(self, J):
        ell, value = optimal_ell(J)
        grid = np.linspace(1.001, 2.999, 2000)
        sampled = (3.0 - grid) ** -1.0 * (grid + np.sqrt(grid * grid - 1.0)) ** (-2 * J)
        assert np.all(sampled >= value)
        assert contour_bound(J, ell) == value

    def test_large_j_asymptote(self):
        _, value = optimal_ell(30)
        asym = math.e / math.sqrt(2.0) * 30 * (3.0 + math.sqrt(8.0)) ** -60
        assert 0.95 <= value / asym <= 1.05

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_ell(0)
        with pytest.raises(ValueError):
            contour_bound(3, 3.0)
