import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import roots_jacobi

from fracsum.quadrature import (
    _polish,
    _recurrence,
    _require_extended_precision,
    _rule_extended,
    contour_bound,
    gauss_jacobi_rule,
    optimal_ell,
)

# The library builds rules for (1+x)^b, the Jacobi weight (1-x)^a (1+x)^b at
# a = 0; the oracles below take the general pair.
AB_GRID = [(0.0, 0.0), (0.0, -0.5), (0.0, -0.9), (0.0, 2.5), (0.0, 10.0)]


def quad_apply(nodes, weights, m: int) -> float:
    return math.fsum(weights * nodes ** m)


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
        nodes, weights = gauss_jacobi_rule(1, 0.0)
        assert nodes[0] == 0.0
        assert weights[0] == 2.0

    def test_two_point_uniform(self):
        nodes, weights = gauss_jacobi_rule(2, 0.0)
        ref = 0.5773502691896257645  # 1/sqrt(3), 60-digit eigen solve
        np.testing.assert_allclose(nodes, [-ref, ref], rtol=1e-15)
        np.testing.assert_allclose(weights, [1.0, 1.0], rtol=1e-15)

    def test_one_point_singular_weight(self):
        # moment solve by hand: node -1/3, weight 2 sqrt 2
        nodes, weights = gauss_jacobi_rule(1, -0.5)
        assert nodes[0] == pytest.approx(-1.0 / 3.0, rel=1e-15)
        assert weights[0] == pytest.approx(2.8284271247461900976, rel=1e-15)

    def test_three_point_singular_weight(self):
        # 60-digit Golub-Welsch reference
        nodes, weights = gauss_jacobi_rule(3, -0.5)
        np.testing.assert_allclose(
            nodes,
            [-0.8861217680659852935, -0.1256042944978121164, 0.7389987898365246827],
            rtol=1e-14)
        np.testing.assert_allclose(
            weights,
            [1.323460464592113453, 1.020387818775459309, 0.4845788413786173362],
            rtol=1e-14)

    @pytest.mark.parametrize("n,a,b,wtol", [(4, 0.0, 0.0, 5e-13),
                                            (7, 0.0, 2.5, 5e-13),
                                            (20, 0.0, -0.5, 5e-13),
                                            # scipy's own weights lose ~1e-12
                                            # at the near-singular endpoint
                                            (12, 0.0, -0.99, 2e-11)])
    def test_against_independent_library(self, n, a, b, wtol):
        nodes, weights = gauss_jacobi_rule(n, b)
        ref_nodes, ref_weights = roots_jacobi(n, a, b)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=5e-14)
        np.testing.assert_allclose(weights, ref_weights, rtol=wtol)

    @pytest.mark.parametrize("a,b", AB_GRID)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 30])
    def test_polynomial_exactness(self, n, a, b, moment_oracle):
        nodes, weights = gauss_jacobi_rule(n, b)
        moments = moment_oracle(a, b, 2 * n - 1)
        for m in range(2 * n):
            got = quad_apply(nodes, weights, m)
            # zero moments (symmetric weights, odd m) are checked against the
            # attainable scale sum w |x|^m instead of a vanishing denominator
            scale = max(abs(moments[m]), 1e-3 * math.fsum(weights * np.abs(nodes) ** m))
            assert abs(got - moments[m]) <= 1e-12 * scale, \
                f"moment {m} off: {got} vs {moments[m]}"

    @pytest.mark.parametrize("a,b", AB_GRID)
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 16])
    def test_interlacing(self, n, a, b):
        coarse = gauss_jacobi_rule(n, b)[0]
        fine = gauss_jacobi_rule(n + 1, b)[0]
        for i in range(n):
            assert fine[i] < coarse[i] < fine[i + 1]

    # a = b = 0 is the only symmetric weight (1+x)^b
    @pytest.mark.parametrize("a", [0.0])
    @pytest.mark.parametrize("n", [2, 5, 11, 16])
    def test_symmetry(self, n, a):
        nodes, weights = gauss_jacobi_rule(n, a)
        np.testing.assert_allclose(nodes, -nodes[::-1], rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, weights[::-1], rtol=1e-13)

    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_weight_basics(self, a, b, moment_oracle):
        for n in (1, 6, 24, 64):
            nodes, weights = gauss_jacobi_rule(n, b)
            assert np.all(weights > 0.0)
            assert np.all(np.diff(nodes) > 0.0)
            assert nodes[0] > -1.0 and nodes[-1] < 1.0
            mu0 = moment_oracle(a, b, 0)[0]
            assert math.fsum(weights) == pytest.approx(mu0, rel=1e-12)

    @pytest.mark.parametrize("n,a,b", [(7, 0.0, 0.0), (13, 0.0, 10.0), (16, 0.0, -0.5),
                                       (20, 0.0, 2.5), (30, 0.0, -0.999),
                                       (64, 0.0, -0.999), (1, 0.0, -0.3)]
                             # the first-interval rules compress builds, at
                             # short and full binary expansions of the order
                             + [(J, 0.0, -alpha) for alpha in (0.05, 0.95, math.sqrt(0.5))
                                for J in range(3, 11)])
    def test_correctly_rounded(self, n, a, b):
        # the long-double rule is the rounded 60-digit rule; a node that is 0
        # (odd symmetric rules) only has to vanish below 1e-40
        nodes, weights = _rule_extended(n, b)
        ref_nodes, ref_weights = reference_rule(n, a, b)
        zero = ref_nodes == 0
        assert np.array_equal(nodes[~zero], ref_nodes[~zero])
        assert np.all(np.abs(nodes[zero]) < 1e-40)
        assert np.array_equal(weights, ref_weights)

    def test_polish_gives_up(self):
        # a seed far outside [-1, 1] cannot converge in the step budget
        with pytest.raises(RuntimeError, match="did not converge"):
            _polish(*_recurrence(3, 0.0), 100.0)

    def test_thread_safety(self):
        # the integer polish takes no lock: 16 cold rules built from 4 threads
        # must equal the same rules built one after another in a fresh cache
        keys = [(n, -0.05 * i - 0.013) for i, n in enumerate(range(3, 19))]
        _rule_extended.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(_rule_extended, *key) for key in keys]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        _rule_extended.cache_clear()
        for key, (nodes, weights) in zip(keys, threaded):
            ref_nodes, ref_weights = _rule_extended(*key)
            assert np.array_equal(nodes, ref_nodes), key
            assert np.array_equal(weights, ref_weights), key

    def test_caches_bounded(self):
        # one order more than the bound evicts instead of growing
        bound = _rule_extended.cache_info().maxsize
        for i in range(bound + 1):
            _rule_extended(1, -0.5 * i / bound - 0.1)
        assert _rule_extended.cache_info().currsize <= bound
        _rule_extended.cache_clear()

    def test_domain(self):
        for bad in [(0, 0.0), (65, 0.0), (-2, 0.0)]:
            with pytest.raises(ValueError):
                gauss_jacobi_rule(*bad)
        for b in (-1.0, -1.3, 11.0, math.nan):
            with pytest.raises(ValueError, match="weight exponent"):
                gauss_jacobi_rule(4, b)
        with pytest.raises(ValueError):
            gauss_jacobi_rule(2.5, 0.0)


class TestLongDoublePrecision:
    def test_double_precision_long_double_raises(self):
        # numpy.longdouble is a double with MSVC on Windows and on macOS arm64
        with pytest.raises(RuntimeError, match="53-bit significand"):
            _require_extended_precision(np.finfo(np.float64))

    def test_extended_and_quad_precision_pass(self):
        _require_extended_precision(np.finfo(np.longdouble))
        for nmant in (63, 112):
            _require_extended_precision(SimpleNamespace(nmant=nmant))


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
        for J in (-1, 0, 2.5, math.nan, True):
            with pytest.raises(ValueError, match="node count"):
                contour_bound(J, 2.0)
