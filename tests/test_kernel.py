import math

import mpmath as mp
import numpy as np
import pytest

from fracsum.kernel import (
    _inverse_gamma_ld,
    _rule_extended,
    _scan_baseline,
    _sine_factor_ld,
    ExponentialSum,
    InfeasibleToleranceError,
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


def ld_to_mpf(x) -> mp.mpf:
    """A long double as an mpf, exact at 40 digits or more."""
    n, d = x.as_integer_ratio()
    return mp.mpf(n) / d


def interval_bounds(K, T):
    """Literal rate bounds of interval k: (0, 1/T) for k = 0, (2^(k-1)/T, 2^k/T) after."""
    return [(0.0 if k == 0 else 2.0 ** (k - 1) / T, 2.0 ** k / T) for k in range(K + 1)]


class TestPartition:
    # the dyadic geometry of the rates compress builds, against interval_bounds
    def test_single_interval(self):
        S = compress(0.5, 1e-3, 10.0, 0, 6)
        assert np.all(S.a > 0.0) and np.all(S.a < 0.1)

    def test_three_intervals(self):
        S = compress(0.5, 1e-3, 10.0, 2, 4)
        blocks = S.a.reshape(3, 4)
        for block, (lo, hi) in zip(blocks, [(0.0, 0.1), (0.1, 0.2), (0.2, 0.4)]):
            assert np.all(block > lo) and np.all(block < hi)

    @pytest.mark.parametrize("K,T", [(0, 1.0), (3, 10.0), (11, 0.37), (24, 1e2), (200, 1e-3)])
    def test_invariants(self, K, T):
        J = 3
        S = compress(0.4, T * 2.0 ** -(K + 1), T, K, J)
        blocks = S.a.reshape(K + 1, J)
        for block, (lo, hi) in zip(blocks, interval_bounds(K, T)):
            assert np.all(block > lo) and np.all(block < hi)
        # dyadic doubling: every interval past the first two has exactly twice
        # the rates of the one before, which the error scan relies on
        if K >= 2:
            np.testing.assert_array_equal(blocks[2:], 2.0 * blocks[1:-1])

    def test_domain(self):
        for K, T in [(-1, 1.0), (201, 1.0), (2.5, 1.0), (3, math.inf), (3, 0.0)]:
            with pytest.raises(ValueError):
                compress(0.5, 1e-3, T, K, 4)
            with pytest.raises(ValueError):
                estimate_error(0.5, 1e-3, T, K, 4)


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
        for k, (lo, hi) in enumerate(interval_bounds(K, 50.0)):
            block = S.a[k * J:(k + 1) * J]
            assert np.all(block > lo)
            assert np.all(block < hi)
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

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 0.99])
    @pytest.mark.parametrize("K,J", [(0, 1), (1, 3), (2, 4), (24, 12)])
    def test_matches_40_digit_composition(self, alpha, K, J):
        # every rate and coefficient within one float64 ulp of the formulas
        # composed at 40 digits from the same long-double rules
        delta, T = 1e-4, 1e2
        S = compress(alpha, delta, T, K, J)
        with mp.workdps(40):
            al, d = mp.mpf(alpha), mp.mpf(delta)
            sine = mp.sin(mp.pi * al) / mp.pi
            r0 = 1 / (2 * mp.mpf(T))
            xs0, ws0 = _rule_extended(J, -alpha)
            rates = [r0 * (ld_to_mpf(x) + 1) for x in xs0]
            coeffs = [sine * mp.exp(-d * a) * r0 ** (1 - al) * ld_to_mpf(w)
                      for a, w in zip(rates, ws0)]
            xs, ws = _rule_extended(J, 0.0)
            for k in range(1, K + 1):
                r = mp.ldexp(r0, k - 1)
                for x, w in zip(xs, ws):
                    a = r * (ld_to_mpf(x) + 3)
                    rates.append(a)
                    coeffs.append(sine * mp.exp(-d * a) * a ** -al * r * ld_to_mpf(w))
            for got, ref in [(S.a, rates), (S.b, coeffs)]:
                ref = np.array([float(v) for v in ref])
                assert np.all(np.abs(got - ref) <= np.spacing(ref)), (got, ref)

    def test_sine_factor(self):
        # within 4 2^-64 relative of sin(pi alpha)/pi at 40 digits, at the
        # ends of (0, 1), on both sides of the reflection at 1/2 and at
        # seeded points
        rng = np.random.default_rng(2024)
        alphas = [1e-300, 1e-8, 0.25, 0.5 - 2.0 ** -53, 0.5, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53]
        alphas += rng.uniform(0.0, 1.0, 200).tolist()
        for alpha in alphas:
            with mp.workdps(40):
                ref = mp.sin(mp.pi * mp.mpf(alpha)) / mp.pi
                err = abs(ld_to_mpf(_sine_factor_ld(alpha)) - ref) / ref
            assert err <= 4 * 2.0 ** -64, (alpha, float(err) * 2.0 ** 64)

    def test_inverse_gamma(self):
        # bit for bit the 25-digit rounding of 1/Gamma(alpha) from 30-digit
        # mpmath, read as long double, at the ends of (0, 1) and at seeded points
        rng = np.random.default_rng(2026)
        alphas = [1e-300, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]
        alphas += rng.uniform(0.0, 1.0, 200).tolist()
        for alpha in alphas:
            with mp.workdps(30):
                ref = np.longdouble(mp.nstr(1 / mp.gamma(mp.mpf(alpha)), 25))
            assert _inverse_gamma_ld(alpha) == ref, alpha

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
        with pytest.raises(ValueError):
            eval_sum(S, math.nan)
        assert eval_sum(S, math.inf) == 0.0


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
        assert est.a_j == quadrature_term(7)
        assert est.b_k == truncation_term(0.5, 1e-4 / 1e2, 24)
        assert est.total == est.a_j + est.b_k

    def test_domain(self):
        with pytest.raises(ValueError):
            estimate_error(0.5, 1e-4, 1e2, 201, 7)
        with pytest.raises(ValueError):
            estimate_error(0.5, 1e-4, 1e2, 10, 0)
        for J in (-2, 0, 2.5):
            with pytest.raises(ValueError, match="node count J"):
                quadrature_term(J)
        for K in (-3, 2.0):
            with pytest.raises(ValueError, match="interval index K"):
                truncation_term(0.5, 0.01, K)


class TestSelectParameters:
    def test_loose_tolerance_takes_two_nodes(self):
        K, J = select_parameters(0.5, 1e-4, 1e2, 0.5)
        assert J == 2  # A_1 ~ 0.0294 <= 0.25 already, but one node is never taken
        assert truncation_term(0.5, 1e-6, K) <= 0.25

    def test_loose_tolerance_is_certified(self):
        # with one node a loose selection measured 0.061 against a total of
        # 0.043 at (0.04, 1e-6, 1.0, 0.06); from two nodes on the measured
        # error stays below the total (at most 0.9951 of it in 1900 seeded draws)
        rng = np.random.default_rng(26)
        cases = [(0.04, 1e-6, 1.0, 0.06)]
        for _ in range(8):
            T = 10.0 ** rng.uniform(-2.0, 3.0)
            cases.append((rng.uniform(0.01, 0.99), T * 10.0 ** rng.uniform(-10.0, -0.3), T,
                          rng.uniform(0.06, 0.5)))
        for alpha, delta, T, eps in cases:
            K, J = select_parameters(alpha, delta, T, eps)
            M, _ = relative_error_scan(compress(alpha, delta, T, K, J))
            total = estimate_error(alpha, delta, T, K, J).total
            assert M <= total <= eps, (alpha, delta, T, eps, K, J, M, total)

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

    def test_infinite_horizon_rejected(self):
        # an infinite horizon makes delta/T = 0, which no K can truncate
        with pytest.raises(ValueError, match="horizon must be finite"):
            select_parameters(0.5, 1e-4, math.inf, 1e-8)


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

    @pytest.mark.parametrize("delta, T", [(5e-8, 0.05), (3e-7, 0.30000000000000004)])
    def test_grid_ends_at_horizon(self, delta, T):
        # the sixth decade boundary rounds just below T; the grid must still
        # end in one full decade, not add a piece an ulp wide
        _, curve = relative_error_scan(compress(0.5, delta, T, 4, 3))
        ts = curve[:, 0]
        assert len(ts) == 6 * 100 - 5
        assert ts[0] == delta and ts[-1] == T
        assert np.all(ts[1:] / ts[:-1] > 1.02)

    def test_baseline_cache_bounded(self):
        # one window more than the bound evicts instead of growing; a
        # repeated window hits, and what it returns is read-only
        _scan_baseline.cache_clear()
        bound = _scan_baseline.cache_info().maxsize
        for i in range(bound + 1):
            _scan_baseline(0.1 + 0.8 * i / bound, 1e-2, 1.0)
        assert _scan_baseline.cache_info().currsize <= bound
        hits = _scan_baseline.cache_info().hits
        arrays = _scan_baseline(0.9, 1e-2, 1.0)
        assert _scan_baseline.cache_info().hits == hits + 1
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        _scan_baseline.cache_clear()


def _non_doubled_sum() -> ExponentialSum:
    """A hand-built sum whose rates are nowhere exactly doubled."""
    S = compress(0.5, 1e-4, 1e2, 20, 8)
    a = S.a * np.repeat(1.0 + 0.01 * np.arange(S.K + 1), S.J)
    assert not np.any(a[S.J:] == 2.0 * a[:-S.J])
    return ExponentialSum(alpha=S.alpha, delta=S.delta, T=S.T, K=S.K, J=S.J, a=a, b=S.b)


def _out_of_root_range_sum() -> ExponentialSum:
    """A hand-built sum of doubled intervals whose top one reaches a s > 11000.

    Eleven intervals, each of rates twice the one before and coefficients 1e-3,
    are stacked on a built sum at delta = 1.  The first 64 grid points reach
    t - delta = 10^(63/99) - 1, about 3.3, where the top rates pass 11000.
    """
    S = compress(0.5, 1.0, 1e2, 8, 4)
    top = S.a[-S.J:]
    a = np.concatenate([S.a] + [top * 2.0 ** m for m in range(1, 12)])
    b = np.concatenate([S.b, np.full(11 * S.J, 1e-3)])
    assert a.max() * (10.0 ** (63 / 99) - 1.0) > 11000.0 > a[-2 * S.J:-S.J].max() * 3.4
    return ExponentialSum(alpha=S.alpha, delta=S.delta, T=S.T, K=S.K + 11, J=S.J, a=a, b=b)


def _mp_relative_error(S: ExponentialSum, t: float):
    """Relative error of the sum at t, in 50-digit arithmetic."""
    with mp.workdps(50):
        t = mp.mpf(t)
        alpha = mp.mpf(S.alpha)
        shift = t - mp.mpf(S.delta)
        w = t ** (alpha - 1) / mp.gamma(alpha)
        total = mp.fsum(mp.mpf(b) * mp.exp(-mp.mpf(a) * shift)
                        for a, b in zip(S.a.tolist(), S.b.tolist()))
        return abs(w - total) / w


@pytest.mark.parametrize("S", [
    pytest.param(compress(0.99, 1e-4, 1e2, 25, 12), id="alpha0.99"),
    pytest.param(compress(0.01, 1e-4, 1e2, 25, 12), id="alpha0.01"),
    pytest.param(compress(0.3, 1e-6, 1e2, 28, 12), id="alpha0.3-delta1e-6"),
    pytest.param(compress(0.5, 1e-6, 1e2, 31, 12), id="suffix-dropped"),
    pytest.param(_non_doubled_sum(), id="non-doubled"),
    pytest.param(_out_of_root_range_sum(), id="beyond-root-range"),
])
def test_scan_matches_mpmath(S):
    # exponentials taken as square roots down the doubled intervals, each
    # within about 3 2^-64 relative, and the intervals a block drops, each
    # below 2^-80 of the kernel, keep the scan within about 1e-18 of a
    # 50-digit recomputation, plus the float64 rounding of the result
    _, curve = relative_error_scan(S)
    assert np.all(np.isfinite(curve))
    for t, rel in curve[::7]:
        ref = float(_mp_relative_error(S, t))
        assert abs(rel - ref) <= 2e-18 + 2.3e-16 * ref, (t, rel, ref)


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

    def test_missing_row(self):
        text = dump_terms(compress(0.5, 1e-2, 2.0, 1, 4))
        with pytest.raises(ValueError, match="expected 8 rows, found 7"):
            load_terms(text.rstrip("\n").rsplit("\n", 1)[0])

    _META = "# alpha {}\n# delta {}\n# T 2\n# K 0\n# J {}\n"

    @pytest.mark.parametrize("text,match", [
        (_META.format("nan", 0.01, 1) + "0 1 0.3 0.5\n", "order"),
        (_META.format(0.5, 2, 1) + "0 1 0.3 0.5\n", "horizon"),
        (_META.format(0.5, 0.01, 0), "node count J"),
        (_META.format(0.5, 0.01, 1) + "0 1 -0.3 0.5\n", "rates and coefficients"),
        (_META.format(0.5, 0.01, 1) + "0 1 0.3 nan\n", "rates and coefficients"),
    ], ids=["nan-order", "offset-at-horizon", "no-nodes", "negative-rate", "nan-coefficient"])
    def test_rejects_what_compress_cannot_produce(self, text, match):
        # a table that loads must scan and evaluate like a compressed kernel
        assert load_terms(self._META.format(0.5, 0.01, 1) + "0 1 0.3 0.5\n").terms == 1
        with pytest.raises(ValueError, match=match):
            load_terms(text)
