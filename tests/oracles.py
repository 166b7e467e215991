"""Independent per-path and closed-form oracles that only the tests use.

The package computes every statistic in batches; these are the plain
one-path, one-formula forms the tests check it against.  This module
holds no tests (pytest collects only `test_*.py`); the test modules
import it by name, which pytest's default import mode allows by putting
`tests/` on the path.
"""

import math

import numpy as np
from scipy import special

from renewalshot.limits import (_check_inverse_case, covariance_inverse_case,
                                moments_inverse_case)
from renewalshot.renewal import RenewalPath


def _check_t(path: RenewalPath, t: float):
    if not (0 <= t <= path.horizon):
        raise ValueError(f"t={t} outside generated horizon [0, {path.horizon}]")


def count(path: RenewalPath, t: float) -> int:
    """N(t) = #{k : S_k <= t}."""
    _check_t(path, t)
    return int(np.searchsorted(path.arrivals, t, side="right"))


def undershoot(path: RenewalPath, t: float) -> float:
    """Z(t) = t - S_{N(t)-1}, the age of the last shot before t."""
    n = count(path, t)
    if n == 0:
        raise ValueError("no arrival at or before t on this path")
    return t - float(path.arrivals[n - 1])


def count_increment(path: RenewalPath, s: float, t: float) -> int:
    """N(t) - N(s-), the number of arrivals in the closed interval [s, t]."""
    if s > t:
        raise ValueError("need s <= t")
    _check_t(path, t)
    _check_t(path, s)
    hi = np.searchsorted(path.arrivals, t, side="right")
    lo = np.searchsorted(path.arrivals, s, side="left")
    return int(hi - lo)


def char_function(alpha: float, z):
    """The characteristic function of stable.sample_stable's law on a real
    grid: exp{-|z|^alpha Gamma(1-alpha) (cos(pi alpha/2)
    + i sin(pi alpha/2) sign z)}, and exp(-z^2/2) at alpha = 2."""
    z = np.asarray(z, dtype=float)
    if alpha == 2:
        return np.exp(-0.5 * z**2) + 0j
    g = special.gamma(1.0 - alpha)
    expo = -np.abs(z) ** alpha * g * (math.cos(math.pi * alpha / 2)
                                      + 1j * math.sin(math.pi * alpha / 2)
                                      * np.sign(z))
    return np.exp(expo)


def increment_dependence_gap(alpha: float, beta: float,
                             t1: float, t2: float, t3: float) -> float:
    """B - A: cross moment of consecutive increments of the
    inverse-subordinator functional minus the product of their means.
    Nonzero gap certifies dependent increments."""
    _check_inverse_case(alpha, beta)
    if not 0 < t1 < t2 < t3:
        raise ValueError("need 0 < t1 < t2 < t3")
    gamma = special.gamma
    m1 = gamma(1.0 - beta) / (gamma(1.0 - alpha) * gamma(1.0 + alpha - beta))
    ab = alpha - beta
    a_term = m1 * m1 * (t2**ab - t1**ab) * (t3**ab - t2**ab)
    b_term = (covariance_inverse_case(alpha, beta, t2, t3)
              - moments_inverse_case(alpha, beta, t2, 2)
              - covariance_inverse_case(alpha, beta, t1, t3)
              + covariance_inverse_case(alpha, beta, t1, t2))
    return b_term - a_term
