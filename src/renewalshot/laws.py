"""Parametric increment laws and response functions.

The family set is closed on purpose: every analytic quantity the limit
theorems need (mean, variance, tail index and scale, integrals of the
response) is carried as exact metadata, so no asymptotic side
condition is ever "checked" numerically at runtime.

All supported increment laws are strictly positive and non-lattice.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np


def _family(cls):
    """cls as a frozen dataclass whose parameters are stored as floats
    before its __post_init__ checks them, so that Pareto(2, 1) is
    Pareto(2.0, 1.0), repr included."""
    check = cls.__post_init__

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        check(self)

    cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)


# ---------------------------------------------------------------------------
# increment laws
# ---------------------------------------------------------------------------

class IncrementLaw(ABC):
    """Positive, non-lattice law of the inter-arrival time."""

    #: (0, inf] tail index of P(xi > t); inf for light tails
    tail_index: float

    #: x_m in P(xi > t) ~ (x_m/t)^tail_index; defined only where the tail
    #: index is finite
    tail_scale: float

    @property
    @abstractmethod
    def mean(self) -> float: ...

    @property
    @abstractmethod
    def variance(self) -> float: ...

    @abstractmethod
    def tail_prob(self, t): ...

    @abstractmethod
    def draw(self, rng: np.random.Generator, size=None, out=None):
        """The stream draw behind sample (uniforms or standard gammas),
        into out if given."""

    @abstractmethod
    def transform(self, x):
        """Gaps from values of draw, elementwise: a buffer of many paths'
        draws goes through one call and gives the same gaps as one call
        per path."""

    def sample(self, rng: np.random.Generator, size=None):
        return self.transform(self.draw(rng, size))

    @abstractmethod
    def stationary_cdf(self, t): ...

    @abstractmethod
    def stationary_delay(self, rng: np.random.Generator, size=None): ...

    def _require_finite_mean(self):
        if not math.isfinite(self.mean):
            raise ValueError("law has infinite mean; no stationary version exists")


@_family
class Exponential(IncrementLaw):
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")

    tail_index = math.inf

    @property
    def mean(self):
        return 1.0 / self.rate

    @property
    def variance(self):
        return 1.0 / self.rate**2

    def tail_prob(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def draw(self, rng, size=None, out=None):
        return rng.random(size, out=out)

    def transform(self, u):
        return -np.log1p(-u) / self.rate

    def stationary_cdf(self, t):
        return -np.expm1(-self.rate * np.asarray(t, dtype=float))

    def stationary_delay(self, rng, size=None):
        # memorylessness: F* = F
        return self.sample(rng, size)


@_family
class Uniform(IncrementLaw):
    a: float
    b: float

    def __post_init__(self):
        if not 0 <= self.a < self.b < math.inf:
            raise ValueError("need 0 <= a < b < inf")

    tail_index = math.inf

    @property
    def mean(self):
        return 0.5 * (self.a + self.b)

    @property
    def variance(self):
        return (self.b - self.a) ** 2 / 12.0

    def tail_prob(self, t):
        t = np.asarray(t, dtype=float)
        return np.clip((self.b - t) / (self.b - self.a), 0.0, 1.0)

    def draw(self, rng, size=None, out=None):
        return rng.random(size, out=out)

    def transform(self, u):
        return self.a + (self.b - self.a) * u

    def stationary_cdf(self, t):
        # mu^{-1} (min(t, a) + d - d^2 / (2 (b - a))) with d = clip(t, a, b) - a
        a, b, mu = self.a, self.b, self.mean
        t = np.asarray(t, dtype=float)
        d = np.clip(t, a, b) - a
        return np.minimum((np.minimum(t, a) + d * (1.0 - 0.5 * d / (b - a))) / mu, 1.0)

    def stationary_delay(self, rng, size=None):
        a, b, mu = self.a, self.b, self.mean
        u = rng.random(size)
        tri = b - np.sqrt((b - a) * (a + b) * (1.0 - u))
        return np.where(u <= a / mu, u * mu, tri)


@_family
class Gamma(IncrementLaw):
    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise ValueError("shape and rate must be positive and finite")

    tail_index = math.inf

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def variance(self):
        return self.shape / self.rate**2

    def tail_prob(self, t):
        # imported here: under scipy 1.17 scipy.special is three quarters
        # of the start-up time, and set-up never evaluates it
        from scipy.special import gammaincc
        return gammaincc(self.shape, self.rate * np.asarray(t, dtype=float))

    def draw(self, rng, size=None, out=None):
        return rng.standard_gamma(self.shape, size, out=out)

    def transform(self, x):
        return x / self.rate

    def stationary_cdf(self, t):
        # integral of the survival function in closed form:
        #   int_0^t Q(k, r x) dx = t Q(k, r t) + (k/r) P(k+1, r t),
        # so 1 - F = Q(k+1, r t) - (r t/k) Q(k, r t); computing 1 - F and
        # clipping it at 0 keeps F monotone where the tail rounds away
        from scipy.special import gammaincc     # as in tail_prob
        k, r = self.shape, self.rate
        x = r * np.asarray(t, dtype=float)
        tail = gammaincc(k + 1, x) - (x / k) * gammaincc(k, x)
        return 1.0 - np.maximum(tail, 0.0)

    def stationary_delay(self, rng, size=None):
        # U times the size-biased law Gamma(k+1, r)
        k, r = self.shape, self.rate
        return rng.random(size) * rng.standard_gamma(k + 1, size) / r


@_family
class Pareto(IncrementLaw):
    """P(xi > t) = (x_m/t)^alpha for t >= x_m, 1 below x_m."""

    alpha: float
    xm: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.xm < math.inf):
            raise ValueError("tail index and scale must be positive and "
                             "finite")

    @property
    def tail_index(self):
        return self.alpha

    @property
    def tail_scale(self):
        return self.xm

    @property
    def mean(self):
        a = self.alpha
        return a * self.xm / (a - 1.0) if a > 1 else math.inf

    @property
    def variance(self):
        a = self.alpha
        if a <= 2:
            return math.inf
        return self.xm**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def tail_prob(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            s = (self.xm / t) ** self.alpha
        return np.where(t < self.xm, 1.0, s)

    def draw(self, rng, size=None, out=None):
        return rng.random(size, out=out)

    def transform(self, u):
        return self.xm * (1.0 - u) ** (-1.0 / self.alpha)

    def stationary_cdf(self, t):
        self._require_finite_mean()
        a, xm, mu = self.alpha, self.xm, self.mean
        t = np.asarray(t, dtype=float)
        # past x_m the tail adds x_m (1 - (x_m/t)^(a-1)) / (a - 1) >= 0
        extra = -xm * np.expm1((1.0 - a) * np.log(np.maximum(t, xm) / xm)) / (a - 1.0)
        return np.minimum((np.minimum(t, xm) + extra) / mu, 1.0)

    def stationary_delay(self, rng, size=None):
        self._require_finite_mean()
        a, xm, mu = self.alpha, self.xm, self.mean
        u = rng.random(size)
        tail = xm * (a * (1.0 - u)) ** (1.0 / (1.0 - a))
        return np.where(u <= xm / mu, u * mu, tail)


# ---------------------------------------------------------------------------
# response functions
# ---------------------------------------------------------------------------

class ResponseFunction(ABC):
    """Deterministic shot response h, nonnegative and locally bounded."""

    #: regular-variation index beta with h(t) ~ t^{-beta} ell_h(t), or None
    #: for responses that decay faster than any power
    rv_index: float | None

    # The flags follow from rv_index, exactly for this closed family: every
    # regularly varying member is eventually monotone and its slowly
    # varying part is a constant, so h is integrable (and, being monotone,
    # d.R.i.) iff beta > 1 and h^2 iff beta > 1/2; every other member is
    # bounded, piecewise continuous and has a light tail.
    @property
    def integrable(self) -> bool:
        return self.rv_index is None or self.rv_index > 1

    dri = integrable

    @property
    def square_integrable(self) -> bool:
        return self.rv_index is None or self.rv_index > 0.5

    @abstractmethod
    def eval(self, t): ...

    @abstractmethod
    def integral(self, T: float) -> float:
        """Exact int_0^T h(y) dy via the family antiderivative."""


@_family
class PowerDecay(ResponseFunction):
    """h(t) = (t + c0)^{-beta}."""

    beta: float
    c0: float = 1.0

    def __post_init__(self):
        if not (0 <= self.beta < math.inf and 0 < self.c0 < math.inf):
            raise ValueError("need 0 <= beta < inf and 0 < c0 < inf")

    @property
    def rv_index(self):
        return self.beta

    def eval(self, t):
        # for scalar t, x is a numpy scalar and **= rebinds it; else the
        # power is taken in place in the buffer of the sum
        x = np.asarray(t, dtype=float) + self.c0
        x **= -self.beta
        return x

    def integral(self, T):
        b, c0 = self.beta, self.c0
        if b == 1:
            return math.log((T + c0) / c0)
        return ((T + c0) ** (1.0 - b) - c0 ** (1.0 - b)) / (1.0 - b)


@_family
class ExpDecay(ResponseFunction):
    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("decay rate must be positive and finite")

    rv_index = None

    def eval(self, t):
        return np.exp(-self.lam * np.asarray(t, dtype=float))

    def integral(self, T):
        return -math.expm1(-self.lam * T) / self.lam


@_family
class Window(ResponseFunction):
    """Half-open indicator 1_{[a,b)}."""

    a: float
    b: float

    def __post_init__(self):
        if not 0 <= self.a < self.b < math.inf:
            raise ValueError("need 0 <= a < b < inf")

    rv_index = None

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return ((t >= self.a) & (t < self.b)).astype(float)

    def integral(self, T):
        return max(0.0, min(T, self.b) - self.a)


@_family
class Constant(ResponseFunction):
    v: float

    def __post_init__(self):
        if not 0 < self.v < math.inf:
            raise ValueError("constant must be positive and finite")

    rv_index = 0.0

    def eval(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.v)

    def integral(self, T):
        return self.v * T


@_family
class ParetoTailMatch(ResponseFunction):
    """h(t) = c * min(1, (x_m/t)^alpha), exactly c * P(xi > t) for the
    matching Pareto law."""

    alpha: float
    xm: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.alpha, self.xm, self.c)):
            raise ValueError("parameters must be positive and finite")

    @property
    def rv_index(self):
        return self.alpha

    def eval(self, t):
        # x_m / max(t, x_m) is 1 below x_m and never divides by 0; the
        # divide, the power and the scale work in one buffer.  For scalar
        # t, x is a numpy scalar: the divide makes a new one and **= and
        # *= rebind it, so it keeps numpy's scalar power
        x = np.maximum(np.asarray(t, dtype=float), self.xm)
        x = np.divide(self.xm, x, out=x if x.ndim else None)
        x **= self.alpha
        x *= self.c
        return x

    def integral(self, T):
        a, xm, c = self.alpha, self.xm, self.c
        head = c * min(T, xm)
        if T <= xm:
            return head
        if a == 1:
            return head + c * xm * math.log(T / xm)
        return head + c * xm**a * (T ** (1.0 - a) - xm ** (1.0 - a)) / (1.0 - a)
