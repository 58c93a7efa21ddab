"""Compress the fractional-integral kernel into a handful of exponentials.

The kernel w(t) = t^(alpha-1)/Gamma(alpha) decays like a power law, so a
history integral against it normally needs the entire past of the integrand.
Shifted a small offset delta away from its singularity, however, w is
extremely well approximated on [delta, T] by a short sum of decaying
exponentials - and convolution against exponentials needs only O(1) state.

This script builds such a sum, prints its terms, and compares it against the
exact kernel across ten orders of magnitude in t.
"""

import numpy as np

from fracsum import (
    compress,
    estimate_error,
    eval_sum,
    kernel_direct,
    select_parameters,
)

alpha = 0.5      # fractional order
delta = 1e-4     # offset from the kernel singularity
T = 1e2          # horizon on which the approximation is certified
eps = 1e-8       # target relative accuracy

# Pick the smallest partition depth K and per-interval node count J whose
# error estimators meet the target, then build the sum.
K, J = select_parameters(alpha, delta, T, eps)
S = compress(alpha, delta, T, K, J)
est = estimate_error(alpha, delta, T, K, J)

print(f"alpha={alpha}, delta={delta:g}, T={T:g}, target eps={eps:g}")
print(f"selected K={K}, J={J}  ->  P=(K+1)*J={S.terms} exponential terms")
print(f"estimators: quadrature A_J={est.a_j:.3e}, truncation B_K={est.b_k:.3e}, "
      f"total={est.total:.3e}")
print()

# The first few terms: slow decay rates with small coefficients...
print("slowest three terms (rate, coefficient):")
for p in range(3):
    print(f"  a={S.a[p]:12.6e}   b={S.b[p]:12.6e}")
# ...up to rates of order 2^K/T that capture the kernel near the offset.
print("fastest three terms (rate, coefficient):")
for p in range(S.terms - 3, S.terms):
    print(f"  a={S.a[p]:12.6e}   b={S.b[p]:12.6e}")
print()

# Compare against the exact kernel on a log grid over [delta, T].
print(f"{'t':>12}  {'exact kernel':>14}  {'exponential sum':>16}  {'rel error':>10}")
for t in np.geomspace(delta, T, 11):
    w = kernel_direct(alpha, t)
    s = eval_sum(S, t - delta)
    print(f"{t:12.4e}  {w:14.6e}  {s:16.6e}  {abs(w - s) / w:10.2e}")

print()
print(f"every relative error stays below the certified total {est.total:.3e} "
      "(up to a small constant)")
