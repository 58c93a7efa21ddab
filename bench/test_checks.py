"""Each benchmark check passes a correct output and fails a corrupted one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fracsum  # noqa: E402

import checks  # noqa: E402
from references import (  # noqa: E402
    mittag_leffler_half,
    mittag_leffler_reference,
    mittag_leffler_series,
)


def _scale_largest_coefficient(S):
    b = S.b.copy()
    b[np.argmax(b)] *= 1.0 + 1e-6
    return dataclasses.replace(S, b=b)


def test_references_agree_with_each_other():
    zs = np.array([-3.0, -1 + 2j, 2.5, -6 - 1j])
    series = np.array([mittag_leffler_series(0.5, complex(z)) for z in zs])
    assert np.allclose(series, mittag_leffler_half(zs), rtol=1e-13, atol=0.0)
    # E_1(z) = exp(z)
    assert abs(mittag_leffler_series(1.0, -4.0) - np.exp(-4.0)) <= 1e-15 * np.exp(-4.0)


def test_compress_check():
    alpha, delta, T, eps = 0.4, 1e-4, 10.0, 1e-12
    K, J = fracsum.select_parameters(alpha, delta, T, eps)
    S = fracsum.compress(alpha, delta, T, K, J)
    est = fracsum.estimate_error(alpha, delta, T, K, J)
    ts = (delta, 0.1, T)
    assert checks.compress_ok(alpha, delta, T, eps, ts, K, J, S, est)
    bad = _scale_largest_coefficient(S)
    assert not checks.compress_ok(alpha, delta, T, eps, ts, K, J, bad, est)
    assert not checks.compress_ok(alpha, delta, T, eps, ts, K + 1, J, S, est)


def test_scan_check():
    S = fracsum.compress(0.4, 1e-4, 100.0, 24, 8)
    est = fracsum.estimate_error(0.4, 1e-4, 100.0, 24, 8)
    M, curve = fracsum.relative_error_scan(S)
    fracs = (0.3, 0.7)
    assert checks.scan_ok(S, est, M, curve, fracs)
    assert not checks.scan_ok(_scale_largest_coefficient(S), est, M, curve, fracs)
    assert not checks.scan_ok(S, est, 0.5 * M, curve, fracs)


def _values(traj):
    s = traj.states
    return s[:, 0] if s.shape[1] == 1 else s[:, 0] + 1j * s[:, 1]


@pytest.mark.parametrize("alpha, lam", [(0.5, -1.0), (0.5, -1 + 2j)])
def test_linear_check(alpha, lam):
    problem = fracsum.mittag_leffler_problem(alpha, lam, 2.0)
    traj = fracsum.solve(problem, fracsum.SolverConfig(h=0.01, eps_kernel=1e-8))
    n = len(traj.times)
    window = np.arange(n // 4, n)
    ref = mittag_leffler_half(lam * np.sqrt(traj.times[window]))
    values = _values(traj)
    assert checks.linear_ok(values, window, ref)
    shifted = values.copy()
    shifted[window[len(window) // 2]] += 2.0 * checks.LINEAR_TOL
    assert not checks.linear_ok(shifted, window, ref)


def test_vdp_check():
    problem = fracsum.van_der_pol_problem(0.8, 1.0, 2.0, 0.0, 1.0)
    coarse = fracsum.solve(problem, fracsum.SolverConfig(h=0.01, eps_kernel=1e-8))
    fine = fracsum.solve(problem, fracsum.SolverConfig(h=0.005, eps_kernel=1e-8))
    assert checks.vdp_ok(coarse.states, fine.states)
    shifted = coarse.states.copy()
    shifted[40, 1] += 2.0 * checks.VDP_TOL
    assert not checks.vdp_ok(shifted, fine.states)


@pytest.mark.parametrize("alpha, lam", [(0.5, -1 + 2j), (0.7, -1.5)])
def test_mlf_check(alpha, lam):
    times = np.linspace(0.0, 5.0, 11)
    values = fracsum.mlf_exact_solution(alpha, lam, times)
    index = np.array([0, 4, 10])
    ref = mittag_leffler_reference(alpha, lam * times[index] ** alpha)
    assert checks.mlf_ok(values, index, ref)
    shifted = values.copy()
    shifted[4] *= 1.0 + 1e-8
    assert not checks.mlf_ok(shifted, index, ref)
