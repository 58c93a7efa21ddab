import math

import numpy as np
import pytest

from fracsum.kernel import (
    InfeasibleToleranceError,
    build_partition,
    compress,
    dump_terms,
    estimate_error,
    eval_sum,
    load_terms,
    quadrature_term,
    relative_error_scan,
    select_parameters,
    truncation_term,
)
from fracsum.oracle import kernel_direct


class TestPartition:
    def test_single_interval(self):
        part = build_partition(0, 10.0)
        assert part.centers.tolist() == [0.05]
        assert part.radii.tolist() == [0.05]

    def test_three_intervals(self):
        part = build_partition(2, 10.0)
        np.testing.assert_allclose(part.centers, [0.05, 0.15, 0.3], rtol=1e-15)
        np.testing.assert_allclose(part.radii, [0.05, 0.05, 0.1], rtol=1e-15)
        assert part.centers[2] + part.radii[2] == pytest.approx(0.4, rel=1e-15)

    @pytest.mark.parametrize("K,T", [(0, 1.0), (3, 10.0), (11, 0.37), (24, 1e2), (200, 1e-3)])
    def test_invariants(self, K, T):
        part = build_partition(K, T)
        assert part.centers[0] == part.radii[0] == pytest.approx(1.0 / (2.0 * T), rel=1e-15)
        left = part.centers[1:] - part.radii[1:]
        right = (part.centers + part.radii)[:-1]
        np.testing.assert_allclose(left, right, rtol=3e-16)
        assert part.centers[-1] + part.radii[-1] == pytest.approx(2.0 ** K / T, rel=3e-16)
        # dyadic doubling of the interval lengths after the first
        if K >= 2:
            np.testing.assert_allclose(part.radii[2:] / part.radii[1:-1], 2.0, rtol=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            build_partition(-1, 1.0)
        with pytest.raises(ValueError):
            build_partition(201, 1.0)
        with pytest.raises(ValueError):
            build_partition(3, 0.0)
        with pytest.raises(ValueError):
            build_partition(2.5, 1.0)


class TestCompress:
    def test_single_term_by_hand(self):
        # one interval, one node: rate 1/30; coefficient fixed by a 50-digit
        # composition of the one-point rule before the build
        S = compress(0.5, 1.0, 10.0, 0, 1)
        assert S.terms == 1
        assert S.a[0] == pytest.approx(1.0 / 30.0, rel=1e-15)
        assert S.b[0] == pytest.approx(0.19471689708813487923, rel=1e-14)

    @pytest.mark.parametrize("K,J", [(0, 1), (0, 7), (5, 3), (24, 12)])
    def test_term_count_and_layout(self, K, J):
        S = compress(0.3, 1e-3, 50.0, K, J)
        assert S.terms == (K + 1) * J == len(S.a) == len(S.b)
        part = build_partition(K, 50.0)
        for k in range(K + 1):
            block = S.a[k * J:(k + 1) * J]
            assert np.all(block > part.centers[k] - part.radii[k])
            assert np.all(block < part.centers[k] + part.radii[k])
            assert np.all(np.diff(block) > 0)

    def test_positivity(self):
        S = compress(0.9, 1e-4, 1e2, 18, 9)
        assert np.all(S.a > 0)
        assert np.all(S.b > 0)

    def test_rates_do_not_depend_on_offset(self):
        a1 = compress(0.5, 1e-3, 20.0, 8, 5).a
        a2 = compress(0.5, 1e-7, 20.0, 8, 5).a
        assert np.array_equal(a1, a2)

    def test_scale_covariance(self):
        # evaluating the sum equals delta^(alpha-1) times the offset-1 sum at t/delta,
        # and the rates rescale by 1/delta
        rng = np.random.default_rng(42)
        for _ in range(5):
            alpha = rng.uniform(0.05, 0.95)
            T = 10.0 ** rng.uniform(0.0, 3.0)
            delta = T * 10.0 ** (-rng.uniform(2.0, 6.0))
            K = int(rng.integers(0, 13))
            J = int(rng.integers(1, 13))
            S = compress(alpha, delta, T, K, J)
            S0 = compress(alpha, 1.0, T / delta, K, J)
            np.testing.assert_allclose(S.a, S0.a / delta, rtol=1e-12)
            for t in (0.0, delta, 7.3 * delta, T / 3.0, T - delta):
                expected = delta ** (alpha - 1.0) * eval_sum(S0, t / delta)
                assert eval_sum(S, t) == pytest.approx(expected, rel=1e-12)

    def test_initial_value_matches_certificate(self):
        # the value at 0 approximates the kernel at delta within the estimate
        for alpha, K, J in [(0.2, 16, 4), (0.5, 18, 6), (0.8, 20, 8)]:
            S = compress(alpha, 1e-3, 10.0, K, J)
            est = estimate_error(alpha, 1e-3, 10.0, K, J)
            w_delta = kernel_direct(alpha, 1e-3)
            assert abs(eval_sum(S, 0.0) - w_delta) <= est.total * w_delta

    def test_domain(self):
        with pytest.raises(ValueError):
            compress(0.0, 1e-3, 1.0, 2, 2)
        with pytest.raises(ValueError):
            compress(1.0, 1e-3, 1.0, 2, 2)
        with pytest.raises(ValueError):
            compress(0.5, 0.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            compress(0.5, 2.0, 1.0, 2, 2)
        with pytest.raises(ValueError):
            compress(0.5, 1e-3, 1.0, 2, 0)
        with pytest.raises(ValueError):
            compress(0.5, 1e-3, 1.0, 2, 65)
        with pytest.raises(ValueError):
            compress(0.5, 1e-3, 1.0, 201, 2)

    def test_overdeep_partition_rejected(self):
        # far beyond the truncation requirement the fastest damping factors
        # underflow float64; the error message points back at selection
        with pytest.raises(ValueError, match="underflow"):
            compress(0.5, 1e-4, 1e2, 60, 4)
        # the largest still-representable depth works
        S = compress(0.5, 1e-4, 1e2, 29, 4)
        assert np.all(S.b > 0.0)


class TestEvalSum:
    def test_at_zero_is_coefficient_sum(self):
        S = compress(0.4, 1e-2, 5.0, 6, 4)
        assert eval_sum(S, 0.0) == math.fsum(S.b)

    def test_positive_decreasing_vanishing(self):
        S = compress(0.7, 1e-2, 5.0, 6, 4)
        ts = np.linspace(0.0, 40.0, 300)
        vals = np.array([eval_sum(S, t) for t in ts])
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) < 0.0)
        assert eval_sum(S, 1e6) < 1e-12 * vals[0]

    def test_domain(self):
        S = compress(0.5, 1e-2, 5.0, 2, 2)
        with pytest.raises(ValueError):
            eval_sum(S, -1e-3)


class TestEstimators:
    def test_quadrature_term_j1(self):
        # (17 + 12 sqrt 2)^-1, 60-digit value
        assert quadrature_term(1) == pytest.approx(0.02943725152285941438, rel=1e-14)
        assert quadrature_term(2) == pytest.approx(0.001733103554440177822, rel=1e-14)

    def test_truncation_term_limits(self):
        for alpha in (0.1, 0.5, 0.9):
            assert truncation_term(alpha, 0.0, 5) == 1.0
        # 60-digit regularized upper gamma at 1e-6 * 2^24
        assert truncation_term(0.5, 1e-6, 24) == pytest.approx(
            6.9297294400481629067e-9, rel=1e-12)

    def test_estimate_error_composition(self):
        est = estimate_error(0.5, 1e-4, 1e2, 24, 7)
        assert est.eta == pytest.approx(1e-6, rel=1e-15)
        assert est.a_j == quadrature_term(7)
        assert est.b_k == truncation_term(0.5, est.eta, 24)
        assert est.total == est.a_j + est.b_k

    def test_domain(self):
        with pytest.raises(ValueError):
            estimate_error(0.5, 1e-4, 1e2, 201, 7)
        with pytest.raises(ValueError):
            estimate_error(0.5, 1e-4, 1e2, 10, 0)


class TestSelectParameters:
    def test_loose_tolerance_needs_one_node(self):
        K, J = select_parameters(0.5, 1e-4, 1e2, 0.5)
        assert J == 1  # already A_1 ~ 0.0294 <= 0.25
        assert quadrature_term(2) <= 0.25  # two nodes suffice a fortiori
        assert truncation_term(0.5, 1e-6, K) <= 0.25

    def test_monotone_in_tolerance(self):
        prev_K = prev_J = 0
        for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            K, J = select_parameters(0.3, 1e-5, 50.0, eps)
            assert K >= prev_K and J >= prev_J
            prev_K, prev_J = K, J

    @pytest.mark.parametrize("alpha,delta,T,eps", [
        (0.5, 1e-4, 1e2, 1e-8),
        (0.1, 1e-3, 10.0, 1e-6),
        (0.9, 1e-6, 1e3, 1e-10),
    ])
    def test_post_hoc_certificate(self, alpha, delta, T, eps):
        K, J = select_parameters(alpha, delta, T, eps)
        assert estimate_error(alpha, delta, T, K, J).total <= eps

    def test_infeasible(self):
        # for an offset 70 decades below the horizon the truncation term is
        # still ~1 at the K = 200 cap
        with pytest.raises(InfeasibleToleranceError):
            select_parameters(0.5, 1e-70, 1.0, 1e-8)

    def test_domain(self):
        with pytest.raises(ValueError):
            select_parameters(0.5, 1e-4, 1e2, 1e-15)
        with pytest.raises(ValueError):
            select_parameters(0.5, 1e-4, 1e2, 0.6)
        with pytest.raises(ValueError):
            select_parameters(0.5, 2.0, 1.0, 1e-6)


class TestRelativeErrorScan:
    def test_grid_and_maximum(self):
        S = compress(0.5, 1e-4, 1e2, 16, 4)
        max_err, curve = relative_error_scan(S)
        ts, errs = curve[:, 0], curve[:, 1]
        assert max_err == errs.max()
        assert ts[0] == 1e-4
        assert ts[-1] == pytest.approx(1e2, rel=1e-15)
        assert np.all(np.diff(ts) > 0)
        # six decades at one hundred points each, shared endpoints merged
        assert len(ts) == 6 * 100 - 5

    def test_node_increment_shrinks_error(self):
        # adding one node per interval gains at least a factor 20 while the
        # truncation floor stays negligible (theory: ~34)
        m5, _ = relative_error_scan(compress(0.5, 1e-4, 1e2, 25, 5))
        m6, _ = relative_error_scan(compress(0.5, 1e-4, 1e2, 25, 6))
        assert m5 / m6 >= 20.0

    def test_certified(self):
        S = compress(0.25, 1e-4, 1e2, 20, 6)
        est = estimate_error(0.25, 1e-4, 1e2, 20, 6)
        max_err, _ = relative_error_scan(S)
        assert max_err <= 10.0 * est.a_j + est.b_k


class TestSerialization:
    def test_round_trip(self):
        S = compress(0.35, 1e-3, 25.0, 7, 5)
        text = dump_terms(S)
        back = load_terms(text)
        assert back.alpha == S.alpha and back.delta == S.delta and back.T == S.T
        assert back.K == S.K and back.J == S.J
        assert np.array_equal(back.a, S.a)
        assert np.array_equal(back.b, S.b)

    def test_row_count_and_format(self):
        S = compress(0.5, 1e-2, 2.0, 1, 3)
        rows = [ln for ln in dump_terms(S).splitlines() if not ln.startswith("#")]
        assert len(rows) == 6
        k, j, a, b = rows[0].split()
        assert (int(k), int(j)) == (0, 1)
        assert float(a) == S.a[0] and float(b) == S.b[0]

    def test_malformed(self):
        with pytest.raises(ValueError):
            load_terms("# alpha 0.5\n1 1 2.0\n")
        with pytest.raises(ValueError):
            load_terms("0 1 2.0 3.0\n")  # metadata missing
