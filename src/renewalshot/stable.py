"""Totally skewed alpha-stable samplers and the closed-form absolute moment.

Parametrization bridge (single source of truth for this module): the
characteristic function

    exp{ -|z|^alpha Gamma(1-alpha) (cos(pi alpha/2) + i sin(pi alpha/2) sign z) }

is rewritten in the standard one-parametrization as

    exp{ -sigma^alpha |z|^alpha (1 - i * skew * tan(pi alpha/2) sign z) }

with skew = -1 (spectrally negative) and
sigma^alpha = Gamma(1-alpha) cos(pi alpha/2), which is positive for
1 < alpha < 2 (product of two negatives).  Only the tests evaluate the
characteristic function, as the oracle of sample_stable.
"""

from __future__ import annotations

import math

import numpy as np


def _gamma(x):
    # imported here: under scipy 1.17 scipy.special is three quarters of
    # the start-up time, and set-up never evaluates it
    from scipy.special import gamma
    return gamma(x)


def stable_scale(alpha: float) -> float:
    """sigma = (Gamma(1-alpha) cos(pi alpha/2))^{1/alpha} for 1 < alpha < 2."""
    if not 1 < alpha < 2:
        raise ValueError("scale constant defined for 1 < alpha < 2")
    return (_gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)) ** (1.0 / alpha)


def sample_stable(alpha: float, stream: np.random.Generator, size=None):
    """One variate (or an array) of the law given by the paper's
    characteristic function; alpha = 2 routes to a unit-variance Gaussian.
    For 1 < alpha < 2: sigma times the Chambers-Mallows-Stuck draw of
    S(alpha, -1, 1, 0)."""
    if alpha == 2:
        return stream.standard_normal(size)
    if not 1 < alpha < 2:
        raise ValueError("Levy-motion laws need alpha in (1, 2]")
    u = math.pi * (stream.random(size) - 0.5)
    w = stream.standard_exponential(size)
    t = -math.tan(math.pi * alpha / 2.0)
    b = math.atan(t) / alpha
    s = (1.0 + t * t) ** (1.0 / (2.0 * alpha))
    num = np.sin(alpha * (u + b)) / np.cos(u) ** (1.0 / alpha)
    rest = (np.cos(u - alpha * (u + b)) / w) ** ((1.0 - alpha) / alpha)
    return stable_scale(alpha) * (s * num * rest)


def kanter(alpha: float, u, w):
    """Kanter's transform (A(u)/w)^{(1-alpha)/alpha} of uniforms u on
    (0, pi) and standard exponentials w, elementwise: a standard positive
    stable draw for each pair."""
    a_u = (np.sin(alpha * u) ** alpha * np.sin((1.0 - alpha) * u) ** (1.0 - alpha)
           / np.sin(u)) ** (1.0 / (1.0 - alpha))
    return (a_u / w) ** ((1.0 - alpha) / alpha)


def sample_positive_stable(alpha: float, stream: np.random.Generator, size=None):
    """Standard positive stable S with E exp(-s S) = exp(-s^alpha), via
    Kanter's representation, 0 < alpha < 1: `size` uniforms, then `size`
    exponentials."""
    if not 0 < alpha < 1:
        raise ValueError("one-sided stable needs alpha in (0, 1)")
    u = math.pi * stream.random(size)
    return kanter(alpha, u, stream.standard_exponential(size))


def subordinator_scale(alpha: float, dt: float) -> float:
    """(Gamma(1-alpha) dt)^{1/alpha}: the subordinator's increment over dt
    is this times a standard positive stable."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return (_gamma(1.0 - alpha) * dt) ** (1.0 / alpha)


def sample_subordinator_increment(alpha: float, dt: float,
                                  stream: np.random.Generator, size=None):
    """Increment of the subordinator with -log E exp(-t D(1)) = Gamma(1-alpha) t^alpha."""
    return (subordinator_scale(alpha, dt)
            * sample_positive_stable(alpha, stream, size))


def abs_moment(alpha: float, r: float) -> float:
    """E|W|^r for the spectrally skewed stable W, r < alpha.

    alpha = 2 is the Gaussian branch, E|W|^r = 2^{r/2} Gamma((r+1)/2)/sqrt(pi).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    if not 0 < alpha <= 2:
        raise ValueError("alpha must lie in (0, 2]")
    if alpha == 1:
        raise ValueError("alpha = 1 is unsupported")
    if alpha == 2:
        return 2.0 ** (r / 2.0) * _gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)
    if r >= alpha:
        raise ValueError("moment of order r >= alpha is infinite")
    return (2.0 * _gamma(r + 1.0) / (math.pi * r) * math.sin(r * math.pi / 2.0)
            * _gamma(1.0 - r / alpha) * abs(_gamma(1.0 - alpha)) ** (r / alpha)
            * math.cos(math.pi * r / 2.0 - math.pi * r / alpha))
