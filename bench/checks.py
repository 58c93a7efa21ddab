"""Correctness checks applied to every output the benchmark times.

Each check returns True for a correct output.  The references come from
references.py, which never calls into fracsum; the Van der Pol check compares
against a halved-step run, which the caller computes outside the timed region.
"""

from __future__ import annotations

import numpy as np

from references import kernel_relative_error

# Calibration band between the certified total and the measured error, as in
# the acceptance suite.
ERROR_BAND = 10.0

# A scan value must match the mpmath recomputation to this absolute floor plus
# relative share.  The scan works in 80-bit arithmetic on P <= 400 positive
# terms, so its own error is near 1e-18 absolute.
SCAN_ABS_TOL = 1e-15
SCAN_REL_TOL = 1e-6

# Stated accuracy of the linear solves: absolute error on the window
# t >= T/4, past the start-up transient of the product rule.
LINEAR_TOL = 5e-4

# Stated accuracy of the Van der Pol solves: largest difference from the
# halved-step run at the shared times.
VDP_TOL = 5e-3

# Documented relative accuracy of mittag_leffler.
MLF_RTOL = 1e-10


def compress_ok(alpha, delta, T, eps, sample_ts, K, J, S, est) -> bool:
    """P = (K+1) J terms, positive rates and coefficients, a certificate
    within eps, and measured relative error within the band at sample_ts."""
    P = (K + 1) * J
    if S.terms != P or np.shape(S.a) != (P,) or np.shape(S.b) != (P,):
        return False
    if not (np.all(S.a > 0.0) and np.all(S.b > 0.0)):
        return False
    if not est.total <= eps:
        return False
    return all(kernel_relative_error(alpha, S.a, S.b, delta, t) <= ERROR_BAND * eps
               for t in sample_ts)


def scan_points(n_points: int, rel, sample_fracs) -> list[int]:
    """Grid indices a scan check recomputes: t = delta, the maximum, and
    the seeded fractions of the grid."""
    picks = {0, int(np.argmax(rel))}
    picks.update(min(int(f * n_points), n_points - 1) for f in sample_fracs)
    return sorted(picks)


def scan_ok(S, est, M, curve, sample_fracs) -> bool:
    """The scan covers [delta, T], its maximum is the curve's, sampled values
    agree with mpmath, and the maximum stays within the band of the
    certified total."""
    ts, rel = curve[:, 0], curve[:, 1]
    if len(ts) < 2 or not np.all(np.diff(ts) > 0.0):
        return False
    if not (np.isclose(ts[0], S.delta, rtol=1e-12, atol=0.0)
            and np.isclose(ts[-1], S.T, rtol=1e-12, atol=0.0)):
        return False
    if M != rel.max():
        return False
    for i in scan_points(len(ts), rel, sample_fracs):
        ref = kernel_relative_error(S.alpha, S.a, S.b, S.delta, ts[i])
        if not abs(ref - rel[i]) <= SCAN_ABS_TOL + SCAN_REL_TOL * ref:
            return False
    return M <= ERROR_BAND * est.total


def linear_ok(values, index, reference) -> bool:
    """Solver values at the window indices are within LINEAR_TOL of the exact
    solution there."""
    got = np.asarray(values)[index]
    return bool(np.all(np.abs(got - reference) <= LINEAR_TOL))


def vdp_ok(states, halved_states) -> bool:
    """Every state agrees with the halved-step run at the shared times."""
    fine = halved_states[::2]
    n = min(len(states), len(fine))
    if n < len(states) - 1:
        return False
    return bool(np.all(np.abs(states[:n] - fine[:n]) <= VDP_TOL))


def mlf_ok(values, index, reference) -> bool:
    """Values at index are within the documented relative error."""
    got = np.asarray(values)[index]
    return bool(np.all(np.abs(got - reference) <= MLF_RTOL * np.abs(reference)))
