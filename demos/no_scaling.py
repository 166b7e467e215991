"""When the shot noise needs no scaling at all.

If the response h is directly Riemann integrable, X(t) converges in
distribution without any normalisation, and values of the limit at
well-separated times are independent copies of the stationary variable
X*.  This script checks both claims on an exponential kernel.
"""

import numpy as np
from scipy import stats

from renewalshot import limits, shotnoise, verify
from renewalshot.laws import ExpDecay, Exponential
from renewalshot.shotnoise import NOSCALE_DRI, LimitSpec
from renewalshot.streams import substream

spec = LimitSpec(Exponential(1.0), ExpDecay(1.0))
assert spec.regime == NOSCALE_DRI   # ExpDecay is directly Riemann integrable
n = 5000

m = verify.simulate_scaled_matrix(spec, (1.0, 3.0), 500.0, n, 21,
                                  max_shots=1e9)
trunc = shotnoise.default_x_star_truncation(spec)
ref = np.array([limits.sample_X_star(spec.law, spec.h, trunc,
                                     substream(21, 2, 8, r))
                for r in range(n)])

print("Exp(1) gaps, h(t) = e^-t, horizon 500, n = %d" % n)
for j, u in enumerate((1.0, 3.0)):
    d, p = stats.ks_2samp(m[:, j], ref)
    print("X(%4.0f) vs X*:  KS D = %.4f, p = %.3f" % (u * 500, d, p))
rho = np.corrcoef(m[:, 0], m[:, 1])[0, 1]
print("corr(X(500), X(1500)) = %.4f  (3/sqrt(n) = %.4f)"
      % (rho, 3 / np.sqrt(n)))
print()
print("Same marginal at both times, and no detectable correlation:")
print("the process forgets its past on the scale of the kernel, so far")
print("apart it behaves like independent draws of X*.")
