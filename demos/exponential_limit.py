"""The exponential marginal in the infinite-mean boundary case.

Take Pareto(alpha) gaps with alpha < 1 and a response that matches the
gap tail exactly, h = c * P(xi > .).  Then E X(t) = 1 for every t (a
renewal identity, not an asymptotic), and the rescaled shot noise
converges to a standard exponential.  We watch the first four moments
drift toward 1, 2, 6, 24 as t grows.

The shot at S_0 = 0 adds h(t) to every path, so X(t) >= h(t), with an
atom of mass P(S_1 > t) = t^(-alpha) at h(t).  The distance to Exp(1)
therefore cannot fall below about t^(-alpha) at horizon t, whatever the
sample size.
"""

import math

import numpy as np

from renewalshot.laws import Pareto, ParetoTailMatch
from renewalshot.shotnoise import D4, LimitSpec
from renewalshot.verify import simulate_scaled_matrix

alpha = 0.5
spec = LimitSpec(Pareto(alpha, 1.0), ParetoTailMatch(alpha, 1.0, 1.0))
assert spec.regime == D4        # infinite mean: alpha < 1, beta = alpha

n = 20000
print("alpha = beta = %.2f, tail-matched response, n = %d" % (alpha, n))
print("            mean      m2        m3        m4")
for t in (1e2, 1e3, 1e4):
    m = simulate_scaled_matrix(spec, (1.0,), t, n, 11, max_shots=1e9)
    x = m[:, 0]
    print("t = %5.0f  %8.4f  %8.4f  %8.4f  %8.4f"
          % (t, x.mean(), np.mean(x**2), np.mean(x**3), np.mean(x**4)))
print("Exp(1)     %8.4f  %8.4f  %8.4f  %8.4f"
      % tuple(float(math.factorial(k)) for k in (1, 2, 3, 4)))
print()
print("The mean is pinned at 1 by construction; the higher moments")
print("approach k! from below, slowly, as the horizon grows.")
