import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from fracsum.specialfn import (
    log_gamma,
    mittag_leffler,
    regularized_upper_gamma,
)

# Reference values computed with 60-digit arithmetic (series / gamma calls in
# mpmath) before the implementation was written.
LOG_GAMMA_TABLE = [
    (0.01, 4.5994798780420217225),
    (0.5, 0.57236494292470008707),
    (5.0, 3.1780538303479456196),
    (10.0, 12.801827480081469611),
    (200.0, 857.93366982585743682),
]

UPPER_GAMMA_TABLE = [
    (0.1, 0.5, 0.5574682821473723258),
    (0.1, 3.0, 0.014891224816681060707),
    (0.1, 40.0, 1.5028882159018142705e-19),
    (0.5, 1.0, 0.2788055852806619765),
    (0.9, 0.5, 0.59372316512709242039),
    (0.9, 3.0, 0.043463369157010766138),
    (0.9, 40.0, 2.9305969951104790787e-18),
    (2.5, 0.5, 1.2795775586565121397),
    (2.5, 3.0, 0.40706917587130299843),
    (2.5, 40.0, 1.1155592055681683658e-15),
    (20.0, 0.5, 1.21645100408832e17),
    (20.0, 3.0, 1.2164510039871791108e17),
    (20.0, 40.0, 2.1446383697776178432e13),
    (50.0, 3.0, 6.0828186403426756087e62),
    (50.0, 40.0, 5.654983185797163337e62),
]

ML_TABLE = [
    (0.5, -1.0 + 0j, 0.42758357615580700441 + 0j),
    (0.5, -3.0 + 0j, 0.17900115118138995042 + 0j),
    (0.5, -20.0 + 0j, 0.028174348741051319319 + 0j),
    (0.5, 20.0 + 0j, 1.0442939379528287901e174 + 0j),
    (0.2, -1.5 + 0j, 0.37097697838398594137 + 0j),
    (0.35, -8.0 + 0j, 0.085007414846603465479 + 0j),
    (0.8, 2.0 + 0j, 13.415748887819016952 + 0j),
    (0.9, -5.0 + 0j, 0.034431324804098423905 + 0j),
    (0.3, -0.7 + 0j, 0.54882313496484682766 + 0j),
    (0.1, -1.2589254117941673 + 0j, 0.42825628228967158187 + 0j),
    (0.7, 3j, -0.089378808595975447137 + 0.063156248709351747563j),
    (0.8, 3.623898318388478j, -0.034885197760033914016 - 0.13059735470867477704j),
]


# A zero of E_1/2(z) = exp(z^2) erfc(-z), from mpmath.findroot at 30 digits.
ML_HALF_ZERO = 1.35481012811200624889985054089 - 1.99146684283387957728215784262j


def series_feasible(alpha, z):
    # the largest series term is about exp(|z|^(1/alpha)): 43 digits at most
    return abs(z) ** (1 / alpha) <= 100.0


def series_reference(alpha, z):
    """E_alpha(z) from the defining series in mpmath, 40 digits beyond the
    largest term, which cancellation wipes out."""
    k_peak = abs(z) ** (1 / alpha) / alpha
    peak = max(k * math.log10(abs(z)) - math.lgamma(alpha * k + 1) / math.log(10)
               for k in range(int(2 * k_peak) + 2)) if z else 0.0
    with mp.workdps(40 + int(peak)):
        a, zm = mp.mpf(alpha), mp.mpc(z)
        s, t, k = mp.mpc(0), mp.mpc(1), 0
        while True:
            term = t * mp.rgamma(a * k + 1)
            s += term
            if k > k_peak and abs(term) < mp.mpf(10) ** -50 * abs(s):
                return complex(s)
            t *= zm
            k += 1


def contour_reference(alpha, z):
    """E_alpha(z) where |arg z| >= alpha pi, so the integrand has no pole: the
    Bromwich integral on the parabola s = (1 + iu)^2 by 30-digit mpmath.quad."""
    assert abs(cmath.phase(z)) >= alpha * math.pi
    with mp.workdps(30):
        a, zm = mp.mpf(alpha), mp.mpc(z)

        def integrand(u):
            w = 1 + 1j * u
            s = w * w
            return mp.exp(s) * s ** (a - 1) / (s ** a - zm) * w

        # |e^s| = e^(1 - u^2) is below e^-99 past |u| = 10
        return complex(mp.quad(integrand, mp.linspace(-10, 10, 5)) / mp.pi)


class TestLogGamma:
    def test_integers(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)

    @pytest.mark.parametrize("x,expected", LOG_GAMMA_TABLE)
    def test_reference_values(self, x, expected):
        assert abs(log_gamma(x) - expected) <= 1e-13

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestUpperIncompleteGamma:
    # the regularized form Q(s, x) = Gamma(s, x) / Gamma(s)
    def test_full_integral_ratio_is_one(self):
        for s in [0.1, 0.35, 0.5, 0.9, 2.0, 17.5, 50.0]:
            assert regularized_upper_gamma(s, 0.0) == 1.0

    def test_exponential_case(self):
        # order one reduces to a bare exponential
        assert regularized_upper_gamma(1.0, 2.0) == pytest.approx(
            0.13533528323661269189, rel=1e-12)

    @pytest.mark.parametrize("s,x,expected", UPPER_GAMMA_TABLE)
    def test_reference_values(self, s, x, expected):
        value = regularized_upper_gamma(s, x) * math.gamma(s)
        assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9, 5.0])
    def test_nonincreasing_in_x(self, s):
        xs = np.linspace(0.0, 30.0, 400)
        vals = np.array([regularized_upper_gamma(s, x) for x in xs])
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all(np.diff(vals[:200]) < 0.0)

    @pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_shift_recurrence(self, s, x):
        # Q(s+1, x) = Q(s, x) + x^s e^-x / Gamma(s+1)
        lhs = regularized_upper_gamma(s + 1.0, x)
        rhs = regularized_upper_gamma(s, x) + x ** s * math.exp(-x) / math.gamma(s + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            regularized_upper_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(0.5, -0.1)
        with pytest.raises(ValueError):
            regularized_upper_gamma(60.0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(0.5, -1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(0.5, math.nan)
        assert regularized_upper_gamma(0.5, math.inf) == 0.0


class TestMittagLeffler:
    def test_at_zero(self):
        for alpha in [0.1, 0.5, 0.77, 1.0]:
            assert mittag_leffler(alpha, 0.0) == 1.0 + 0j

    def test_order_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0) == pytest.approx(math.e, rel=1e-14)
        z = -2.3 + 0.7j
        assert mittag_leffler(1.0, z) == pytest.approx(cmath.exp(z), rel=1e-14)

    @pytest.mark.parametrize("alpha,z,expected", ML_TABLE)
    def test_reference_values(self, alpha, z, expected):
        got = mittag_leffler(alpha, z)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_real_positive_increasing(self, alpha):
        # growth is doubly exponential in 1/alpha; keep t small enough that
        # the values stay inside float64 range
        ts = np.linspace(0.05, 2.0, 40)
        vals = mittag_leffler(alpha, ts.astype(complex))
        assert np.all(vals.imag == 0.0)
        assert np.all(vals.real > 0.0)
        assert np.all(np.diff(vals.real) > 0.0)

    def test_truncation_stability(self):
        # summing 20 extra terms past the accepted truncation moves nothing
        alpha, z = 0.6, -2.2
        with mp.workdps(40):
            gams = [mp.gamma(mp.mpf("0.6") * k + 1) for k in range(200)]
            partial = []
            s = mp.mpf(0)
            for k in range(200):
                s += mp.mpf(z) ** k / gams[k]
                partial.append(s)
            n_accept = next(k for k in range(60, 200)
                            if abs(partial[k] - partial[k - 1]) < 1e-25)
            drift = abs(partial[n_accept + 20] - partial[n_accept]) / abs(partial[n_accept])
            assert drift <= 1e-12
            assert abs(mittag_leffler(alpha, z) - complex(partial[n_accept])) \
                <= 1e-10 * abs(partial[n_accept])

    def test_array_input(self):
        zs = np.array([-1.0, -2.0, 0.0], dtype=complex)
        vals = mittag_leffler(0.5, zs)
        assert vals.shape == (3,)
        assert vals[2] == 1.0 + 0j
        assert vals[0] == pytest.approx(0.42758357615580700441, rel=1e-10)

    def test_cancelling_point_is_not_cast(self):
        # the series of this point cancels from terms near e^900; the contour
        # sum has no such terms and must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mittag_leffler(0.5, -30.0)
        # E_1/2(-x) is the Faddeeva function at ix
        assert got == pytest.approx(special.wofz(30j), rel=1e-10)

    # the costliest points of the benchmark's Mittag-Leffler grids for the
    # arbitrary-precision series fallback that the contour replaced
    @pytest.mark.parametrize("alpha,z", [
        (0.307, -2.76 + 0j),
        (0.302, -4.23 + 0j),
        (0.5, -3.27 + 6.53j),
        (0.8, -4j * 3 ** 0.8),
        (0.7, 3 * 4 ** 0.7 + 0j),
    ])
    def test_fallback_matches_series(self, alpha, z):
        expected = series_reference(alpha, z)
        assert abs(mittag_leffler(alpha, z) - expected) <= 1e-13 * abs(expected)

    # the series terms here overflow extended precision, so the series
    # evaluator rejected them; the contour sum computes them
    @pytest.mark.parametrize("alpha,z", [(0.39, -40.0), (0.37, -40.0), (0.39, 40j)])
    def test_overflowing_terms_rejected(self, alpha, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mittag_leffler(alpha, z)
        expected = contour_reference(alpha, z)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    # E_1/2(z) ~ 2 exp(z^2): e^1600 and e^714
    @pytest.mark.parametrize("z", [40.0, 27 * cmath.exp(0.1j)])
    def test_value_beyond_float64_rejected(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="float64 range"):
                mittag_leffler(0.5, z)

    # E_1/2(z) ~ 2 exp(z^2) just inside float64 range: the residue and its
    # error estimate must not overflow
    @pytest.mark.parametrize("z", [26.55, 26.6 + 0.01j, math.sqrt(709.0)])
    def test_value_near_float64_limit(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mittag_leffler(0.5, z)
        expected = special.wofz(-1j * z)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.2, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 41.0)
        with pytest.raises(ValueError, match="argument z"):
            mittag_leffler(0.5, math.nan)
        # a tiny order at large argument is inside the domain: the series
        # needs about 1e33 terms there, the contour sum does not
        expected = contour_reference(0.05, -39.0)
        assert abs(mittag_leffler(0.05, -39.0) - expected) <= 1e-10 * abs(expected)

    def test_thread_safety(self):
        # the evaluator keeps no state; hammer it from several threads and
        # compare against serial
        from concurrent.futures import ThreadPoolExecutor

        points = [(0.3 + 0.07 * i, complex(-3.0 - 0.5 * i, 0.3 * i)) for i in range(10)]
        serial = [mittag_leffler(a, z) for a, z in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: mittag_leffler(*p), points * 4))
        for i, got in enumerate(threaded):
            assert got == serial[i % 10]

    def test_random_disc(self):
        # seeded points of the disc |z| <= 40 with alpha in [0.05, 1]: each is
        # within 1e-10 of the series where the series is feasible, or raises
        # ValueError; none is inf or nan.  Besides values past float64 range,
        # few raise
        rng = np.random.default_rng(2015)
        compared = unresolved = 0
        for _ in range(600):
            alpha = float(rng.uniform(0.05, 1.0))
            z = 40 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            try:
                got = mittag_leffler(alpha, z)
            except ValueError as err:
                unresolved += "float64 range" not in str(err)
                continue
            assert cmath.isfinite(got), (alpha, z)
            if series_feasible(alpha, z):
                compared += 1
                expected = series_reference(alpha, z)
                assert abs(got - expected) <= 1e-10 * abs(expected), (alpha, z)
        assert compared >= 150
        assert unresolved <= 6

    # next to a zero of E_1/2, where the value cancels to nothing
    @pytest.mark.parametrize("offset", [1e-2, 1e-3j, -1e-4, 1e-6j, 1e-9])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_near_zero_resolved_or_raises(self, offset, conjugate):
        z = ML_HALF_ZERO + offset
        z = z.conjugate() if conjugate else z
        try:
            got = mittag_leffler(0.5, z)
        except ValueError:
            assert abs(offset) < 1e-3  # the farther points must resolve
            return
        expected = special.wofz(-1j * z)
        assert abs(got - expected) <= 1e-10 * abs(expected)

    # E_alpha(-30) for alpha near 1 is e^-30 plus about (1 - alpha)/30
    @pytest.mark.parametrize("alpha", [1 - 1e-8, 1 - 1e-4, 1 - 1e-2])
    @pytest.mark.parametrize("z", [-30.0, -30.0 + 1j])
    def test_order_near_one_resolved_or_raises(self, alpha, z):
        try:
            got = mittag_leffler(alpha, z)
        except ValueError:
            return
        expected = series_reference(alpha, z)
        assert abs(got - expected) <= 1e-10 * abs(expected)

