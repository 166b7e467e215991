"""Central limit behaviour of the renewal counting process.

For a renewal process with mean mu and variance sigma^2 per gap,
(N(t) - t/mu) / sqrt(sigma^2 t / mu^3) converges to a standard normal.
This script draws the counting process at a few horizons and prints how
the empirical quantiles close in on the Gaussian ones.
"""

import numpy as np
from scipy.stats import norm

from renewalshot import renewal
from renewalshot.laws import Gamma

law = Gamma(2.0, 1.0)          # mu = 2, sigma^2 = 2
mu, var = 2.0, 2.0
n = 4000
probes = (0.1, 0.25, 0.5, 0.75, 0.9)

print("gamma(2,1) gaps, zero-delayed, n = %d replicates per horizon" % n)
print("horizon   " + "".join("   q%02d" % int(100 * p) for p in probes)
      + "   max err")
# one path per replicate, drawn to the last horizon and counted at each
horizons = (10.0, 100.0, 1000.0)
counts = renewal.counts_at(law, horizons, renewal.ZERO_DELAYED, 2024, (3, 1),
                           range(n))
for t, count in zip(horizons, counts.T):
    z = (count - t / mu) / np.sqrt(var * t / mu**3)
    q = np.quantile(z, probes)
    err = np.max(np.abs(q - norm.ppf(probes)))
    print("t=%6.0f " % t + "".join(" %6.3f" % v for v in q)
          + "    %.3f" % err)

print("normal    " + "".join(" %6.3f" % norm.ppf(p) for p in probes))
print()
print("At t=10 the lattice of integer counts and the zero-delayed bias")
print("are both visible; by t=1000 the quantiles sit on the Gaussian")
print("ones up to the lattice spacing 1/sqrt(var t / mu^3) ~ 0.06.")
