import math

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from fracsum.kernel import compress, quadrature_term
from fracsum.oracle import (
    OracleQuadratureError,
    conv_const_exact,
    kernel_direct,
    mlf_exact_solution,
    tail_W2,
    truncated_integral_W1,
)
from fracsum.specialfn import log_gamma, regularized_upper_gamma


class TestKernelDirect:
    def test_reference_points(self):
        assert kernel_direct(0.5, 1.0) == pytest.approx(0.56418958354775628695, rel=1e-14)
        for alpha in (0.1, 0.35, 0.8):
            assert kernel_direct(alpha, 1.0) == pytest.approx(
                math.exp(-log_gamma(alpha)), rel=1e-14)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    def test_power_law_scaling(self, alpha):
        for c in (2.0, 10.0, 123.4):
            for t in (0.3, 1.0, 7.0):
                assert kernel_direct(alpha, c * t) == pytest.approx(
                    c ** (alpha - 1.0) * kernel_direct(alpha, t), rel=1e-13)

    def test_array_and_domain(self):
        vals = kernel_direct(0.5, np.array([1.0, 4.0]))
        assert vals.shape == (2,)
        assert vals[1] == pytest.approx(0.5 * vals[0], rel=1e-14)
        with pytest.raises(ValueError):
            kernel_direct(0.5, 0.0)
        with pytest.raises(ValueError):
            kernel_direct(0.5, math.nan)
        assert kernel_direct(0.5, math.inf) == 0.0
        with pytest.raises(ValueError):
            kernel_direct(1.2, 1.0)


class TestTruncatedIntegral:
    def test_near_complete_domain_recovers_kernel(self):
        # cut at 2^30/1e6 ~ 1074, where the tail is far below double precision
        got = truncated_integral_W1(0.5, 1e6, 30, 1.0)
        assert got == pytest.approx(0.56418958354775628695, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_never_exceeds_kernel(self, alpha):
        for K in (0, 3, 8):
            for t in (1.0, 2.5, 10.0):
                w1 = truncated_integral_W1(alpha, 1e3, K, t)
                assert 0.0 < w1 <= kernel_direct(alpha, t)

    def test_monotone_in_cut(self):
        vals = [truncated_integral_W1(0.3, 1e4, K, 1.5) for K in range(0, 12)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            truncated_integral_W1(0.5, 0.5, 3, 1.0)
        with pytest.raises(ValueError):
            truncated_integral_W1(0.5, 1e3, -1, 1.0)
        for K in (2.5, math.nan, False):
            with pytest.raises(ValueError, match="interval index"):
                truncated_integral_W1(0.5, 10.0, K, 2.0)
        with pytest.raises(ValueError, match="order"):
            truncated_integral_W1(1.5, 10.0, 3, 2.0)
        with pytest.raises(ValueError):
            truncated_integral_W1(0.5, 1e3, 3, 0.5)
        with pytest.raises(ValueError):
            truncated_integral_W1(0.5, 1e3, 3, math.nan)


class TestTail:
    def test_zero_limit_is_full_kernel(self):
        for alpha in (0.2, 0.5, 0.8):
            for t in (1.0, 3.0):
                got = tail_W2(alpha, 0.0, t)
                assert got == pytest.approx(kernel_direct(alpha, t), rel=1e-9)

    def test_reference_values(self):
        # 60-digit adaptive quadrature of the defining integrals
        assert tail_W2(0.5, 1.0, 1.0) == pytest.approx(
            0.088746574118092657491, rel=1e-10)
        assert tail_W2(0.2, 1.0, 2.0) == pytest.approx(
            0.011796390126125670705, rel=1e-10)

    @pytest.mark.parametrize("a", [1e-9, 1e-6])
    @pytest.mark.parametrize("alpha", [0.1, 0.7, 0.99])
    @pytest.mark.parametrize("t", [1.0, 1.5, 1e3])
    def test_lower_limit_near_zero(self, alpha, a, t):
        # the tail has the closed form Q(1-alpha, a t) t^(alpha-1)/Gamma(alpha)
        exact = regularized_upper_gamma(1.0 - alpha, a * t) * kernel_direct(alpha, t)
        assert tail_W2(alpha, a, t) == pytest.approx(exact, rel=1e-10)

    def test_monotone_vanishing_in_lower_limit(self):
        vals = [tail_W2(0.5, a, 1.5) for a in (0.0, 0.5, 1.0, 4.0, 20.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12 * vals[0]

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("a", [0.1, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("t", [1.0, 2.0, 10.0])
    def test_tail_bound(self, alpha, a, t):
        # central inequality: the tail never exceeds the regularized-gamma
        # multiple of the kernel, with equality only at t=1
        bound = regularized_upper_gamma(1.0 - alpha, a) * kernel_direct(alpha, t)
        got = tail_W2(alpha, a, t)
        assert got <= bound * (1.0 + 1e-9)
        if t > 1.0:
            assert got < bound

    def test_additivity_with_truncated_integral(self):
        for alpha in (0.2, 0.5, 0.8):
            for K in (0, 4, 9):
                for t in (1.0, 3.7):
                    T_scaled = 1e3
                    total = truncated_integral_W1(alpha, T_scaled, K, t) \
                        + tail_W2(alpha, 2.0 ** K / T_scaled, t)
                    assert total == pytest.approx(kernel_direct(alpha, t), rel=1e-9)

    def test_scheme_vs_oracle(self):
        # the compressed kernel built at offset 1 tracks the truncated integral
        # within the calibrated per-interval certificate
        alpha, T_scaled, K, J = 0.5, 1e3, 14, 6
        S = compress(alpha, 1.0, T_scaled, K, J)
        budget = 10.0 * quadrature_term(J)
        for t in (1.0, 3.0, 30.0, 999.0):
            w1 = truncated_integral_W1(alpha, T_scaled, K, t)
            approx = math.fsum(S.b * np.exp(-S.a * (t - 1.0)))
            assert abs(w1 - approx) <= budget * kernel_direct(alpha, t)

    def test_missed_tolerance_raises(self):
        # so close to alpha = 1 the substituted integrand is nearly a step,
        # whose quadrature error estimate stays above the 1e-10 asked for
        with pytest.warns(IntegrationWarning), \
                pytest.raises(OracleQuadratureError, match="missed tolerance"):
            tail_W2(1.0 - 1e-9, 0.5, 1.0)

    def test_query_validation(self):
        with pytest.raises(ValueError, match="lower limit"):
            tail_W2(0.5, -1.0, 2.0)
        with pytest.raises(ValueError, match="evaluation time"):
            tail_W2(0.5, 1.0, 0.5)
        with pytest.raises(ValueError, match="evaluation time"):
            tail_W2(0.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="lower limit"):
            tail_W2(0.5, math.nan, 2.0)
        with pytest.raises(ValueError, match="order"):
            tail_W2(1.5, 1.0, 2.0)


class TestConvolutionWithConstant:
    def test_limits(self):
        S = compress(0.5, 1e-2, 5.0, 5, 3)
        assert conv_const_exact(S, 0.0) == 0.0
        expected = math.fsum(S.b / S.a)
        assert conv_const_exact(S, 1e9) == pytest.approx(expected, rel=1e-12)

    def test_small_time_expansion(self):
        # for t much smaller than all rate inverses the convolution is ~ t sum b
        S = compress(0.5, 1e-2, 5.0, 2, 2)
        t = 1e-9
        assert conv_const_exact(S, t) == pytest.approx(t * math.fsum(S.b), rel=1e-6)

    def test_domain(self):
        S = compress(0.5, 1e-2, 5.0, 1, 1)
        with pytest.raises(ValueError):
            conv_const_exact(S, -1.0)
        with pytest.raises(ValueError):
            conv_const_exact(S, math.nan)


class TestExactSolution:
    def test_initial_value(self):
        for alpha in (0.2, 0.5, 0.9):
            assert mlf_exact_solution(alpha, -1.0, 0.0) == 1.0 + 0j

    def test_reference_point(self):
        got = mlf_exact_solution(0.5, -1.0, 1.0)
        assert got.real == pytest.approx(0.42758357615580700441, rel=1e-10)
        assert got.imag == 0.0

    def test_rotating_solution_is_bounded(self):
        ts = np.linspace(0.0, 10.0, 101)
        vals = mlf_exact_solution(0.8, 1j, ts)
        assert vals.shape == (101,)
        assert np.abs(vals).max() <= 1.0 + 1e-12
        assert vals[0] == 1.0 + 0j

    def test_domain(self):
        with pytest.raises(ValueError):
            mlf_exact_solution(0.5, -1.0, -1.0)
        with pytest.raises(ValueError, match="times t"):
            mlf_exact_solution(0.5, -1.0, math.nan)
