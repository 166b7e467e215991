"""Shot noise evaluation and the regime table.

The regimes mirror the limit-theorem landscape: no-scaling regimes (direct
and centered), Gaussian regimes A1/A2, the stable regime A3 (finite mean,
heavy tail) and the infinite-mean regime D4 whose limit is a fractionally
integrated inverse stable subordinator.  Each regime is one `Regime` entry
of `REGIMES` (hypotheses, normalizer, statistic, limit law, moments, Hurst
index); adding a regime means adding one entry there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from . import limits
from .laws import Constant, IncrementLaw, Pareto, ResponseFunction, Window
from .renewal import RenewalPath
from .streams import substream, substreams

NOSCALE_DRI = "NOSCALE_DRI"
NOSCALE_CENTERED = "NOSCALE_CENTERED"
A1 = "A1"
A2 = "A2"
A3 = "A3"
D4 = "D4"


class InadmissibleSpec(ValueError):
    """Raised when (regime, alpha, beta, law, h) violate a theorem hypothesis."""


@dataclass(frozen=True)
class LimitSpec:
    regime: str
    alpha: float
    beta: float
    law: IncrementLaw
    h: ResponseFunction

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise InadmissibleSpec(f"unknown regime {self.regime!r}")
        regime = REGIMES[self.regime]
        hypotheses = regime.admits
        if regime.g is not None:
            hypotheses = (_H_VISIBLE,) + hypotheses + (_H_DECLARED_BETA,)
        for holds, why in hypotheses:
            if not holds(self):
                raise InadmissibleSpec(why.format(s=self))


def evaluate(path: RenewalPath, h: ResponseFunction, t: float) -> float:
    """X(t) = sum over arrivals S_k <= t of h(t - S_k).

    Summation runs over ages in ascending order (numpy pairwise summation).
    """
    if not (0 <= t <= path.horizon):
        raise ValueError(f"t={t} beyond generated horizon {path.horizon}")
    n = np.searchsorted(path.arrivals, t, side="right")
    if n == 0:
        return 0.0
    ages = t - path.arrivals[n - 1::-1]
    return float(np.sum(h.eval(ages)))


def solve_c(law: IncrementLaw, t: float) -> float:
    """Normalizer c(t) with t * ell(c) / c^alpha -> 1.

    Constant ell: closed form (ell0 * t)^{1/alpha}.  Logarithmic ell
    (Pareto, alpha = 2): the upper root of c^2 = t * ell(c), by bisection
    to relative tolerance 1e-10.
    """
    if not isinstance(law, Pareto):
        raise ValueError("normalizer defined for Pareto laws only")
    if t <= 0:
        raise ValueError("t must be positive")
    a, xm = law.alpha, law.xm
    if law.slow_varying == "constant":
        return (xm**a * t) ** (1.0 / a)
    # c^2 = 2 t xm^2 ln(c/xm); roots exist only for t >= e
    phi = lambda c: c * c - t * 2.0 * xm * xm * math.log(c / xm)
    c_min = xm * math.sqrt(t)          # minimizer of phi
    if phi(c_min) > 0:
        raise ValueError(f"t={t} too small: c^2 = t*ell(c) has no root")
    hi = c_min
    while phi(hi) <= 0:
        hi *= 2.0
    lo = c_min
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scaling_g(spec: LimitSpec, t: float) -> float:
    """The counting-process normalizer g(t) of the scaled regimes."""
    if t <= 0:
        raise ValueError("t must be positive")
    g = REGIMES[spec.regime].g
    if g is None:
        raise InadmissibleSpec(f"regime {spec.regime} has no scaling function")
    return g(spec, t)


# below about this many entries per row, one masked gather over a whole
# buffer of paths costs less than a Python slice per row (measured: D4
# buffers 130-190 wide gain, A1 rows 2448 and 21415 wide lose)
_GATHER_WIDTH = 1024


def shot_noise(paths, h: ResponseFunction, times) -> np.ndarray:
    """X(tau) on each path (row of the 2-D array `paths`: its sorted
    arrival epochs, which may go on past tau, as the +inf-padded rows of
    `renewal.epoch_rows` do) at each tau of times (column).  The ages of
    all paths, each row cut at tau, go through one h.eval per tau, each
    path's in ascending order, and each X is np.sum (pairwise) over its
    own slice, so it equals `evaluate` bit for bit (np.add.reduce is
    np.sum without its Python wrapper).  Short rows are gathered by one
    mask over the reversed buffer, long rows by a slice each; both give
    the same ages in the same order."""
    paths = np.asarray(paths)
    out = np.empty((len(paths), len(times)))
    back = (np.ascontiguousarray(paths[:, ::-1])
            if paths.shape[1] < _GATHER_WIDTH else None)
    for j, tau in enumerate(times):
        if back is not None:
            used = back <= tau
            ages = tau - back[used]
            lengths = np.count_nonzero(used, axis=1).tolist()
        else:
            used = [a[:a.searchsorted(tau, side="right")][::-1] for a in paths]
            ages = tau - np.concatenate(used)
            lengths = [len(a) for a in used]
        vals = h.eval(ages)
        cut = np.cumsum([0] + lengths).tolist()
        out[:, j] = [np.add.reduce(vals[a:b]) for a, b in zip(cut, cut[1:])]
    return out


def batch_statistic(spec: LimitSpec, paths, u_grid, t: float) -> np.ndarray:
    """The theorem statistic on each path (row of `paths`; see shot_noise)
    at each u of the grid (column); every path must be generated up to
    u_max * t."""
    u = np.asarray(u_grid, dtype=float)
    if np.any(np.diff(u) <= 0) or np.any(u <= 0):
        raise ValueError("u-grid must be increasing and positive")
    if t <= 0:
        raise ValueError("t must be positive")
    return REGIMES[spec.regime].statistic(spec, paths, u, t)


def scaled_statistic(spec: LimitSpec, path: RenewalPath,
                     u_grid, t: float) -> np.ndarray:
    """The theorem statistic at each u of the grid, on one shared path."""
    if np.max(u_grid) * t > path.horizon:
        raise ValueError("u_max * t exceeds the generated horizon")
    return batch_statistic(spec, path.arrivals[None], u_grid, t)[0]


def default_x_star_truncation(spec: LimitSpec, tol: float = 1e-9) -> float:
    """Level T where the X* truncation bound is at most tol (T < 1e6 allowing).
    The bound needs an integrable response; for any other the level must
    be given as x_star_truncation."""
    law, h = spec.law, spec.h
    if not h.integrable:
        raise ValueError(f"response {h!r} is not integrable, so there is no "
                         "default X* truncation level; set x_star_truncation")
    T = 10.0 * law.mean
    while limits.x_star_tail_bound(law, h, T) > tol and T < 1e6:
        T *= 2.0
    return T


# ---------------------------------------------------------------------------
# the regime table
# ---------------------------------------------------------------------------

# hypotheses: (condition on the spec, message formatted with s=spec); every
# scaled regime (g is not None) also needs the first and the last of these
_H_VISIBLE = (lambda s: not isinstance(s.h, Window),
              "Window response vanishes at large t; scaled regimes need "
              "h > 0 eventually")
_H_DECLARED_BETA = (lambda s: s.h.rv_index is None or s.h.rv_index == s.beta,
                    "response decays with index {s.h.rv_index}, spec declares "
                    "beta = {s.beta}")
_GAUSSIAN_HYPOTHESES = (
    (lambda s: s.alpha == 2, "{s.regime} requires alpha = 2"),
    (lambda s: 0 <= s.beta < 0.5,
     "{s.regime} requires beta in [0, 1/2), got {s.beta}"),
)


def _matching_pareto(spec):
    return isinstance(spec.law, Pareto) and spec.law.alpha == spec.alpha


def _plain(spec, paths, u, t):
    """X(ut) itself."""
    return shot_noise(paths, spec.h, u * t)


def _centered(spec, paths, u, t, h=None):
    """X(ut) - mu^{-1} int_0^{ut} h, with h = spec.h unless given."""
    h = spec.h if h is None else h
    times = u * t
    return shot_noise(paths, h, times) - [h.integral(tau) / spec.law.mean
                                          for tau in times]


def _tail_scaled(spec, paths, u, t):
    """P(xi > t)/h(t) * X(ut)."""
    ht = float(spec.h.eval(t))
    pt = float(spec.law.tail_prob(t))
    return _plain(spec, paths, u, t) * (pt / ht)


_UNIT = Constant(1.0)


def _g_scaled(spec, paths, u, t):
    """(X(ut) - mu^{-1} int_0^{ut} h) / (g(t) h(t))."""
    h, ht = spec.h, float(spec.h.eval(t))
    if isinstance(h, Constant):
        # the constant cancels algebraically; compute with h == 1 so the
        # result is bit-identical for every value of the constant
        h, ht = _UNIT, 1.0
    return _centered(spec, paths, u, t, h) / (scaling_g(spec, t) * ht)


def _gaussian_variance(spec, u):
    b = spec.beta
    return u ** (1.0 - 2.0 * b) / (1.0 - 2.0 * b) if b > 0 else u


def _gaussian_cdf(spec, u):
    sd = math.sqrt(_gaussian_variance(spec, u))
    return lambda q: special.ndtr(q / sd)


def _d4_cdf(spec, u):
    if spec.alpha != spec.beta:
        return None
    # beta = alpha: Hurst index 0, every marginal is Exp(1)
    return lambda q: -np.expm1(-np.maximum(q, 0.0))


def _gaussian_reference(spec, u_grid, n, seed, key, scenario):
    """Independent normal columns, one block from one stream."""
    sd = np.sqrt([_gaussian_variance(spec, u) for u in u_grid])
    return substream(seed, *key).normal(0.0, sd, (n, len(u_grid)))


def _x_star_reference(sample, spec, u_grid, n, seed, key, scenario):
    """Independent X* columns; draw (i, j) from stream (seed, *key, j, i)."""
    trunc = scenario.x_star_truncation or default_x_star_truncation(spec)
    return np.column_stack([
        [sample(spec.law, spec.h, trunc, rng)
         for rng in substreams(seed, key + (j,), range(n))]
        for j in range(len(u_grid))])


def _inverse_subordinator_reference(spec, u_grid, n, seed, key, scenario):
    """Row i: one draw of the jump epochs from stream (seed, *key, i),
    summed at every u of the grid."""
    return np.array([limits.inverse_frac_integral(
        spec.alpha, spec.beta, u_grid, scenario.reference_mesh_d, rng)
        for rng in substreams(seed, key, range(n))])


def _gaussian_moment(spec, u, k):
    if k % 2 == 1:
        return 0.0
    return _gaussian_variance(spec, u) ** (k // 2) * math.prod(range(1, k, 2))


def _zero_mean(spec, u, k):
    if k == 1:
        return 0.0
    raise ValueError(f"no finite or closed-form moment of order {k}")


def _x_star_mean(spec, u, k):
    if k != 1:
        raise ValueError("no closed-form higher moments for X*")
    big = max(1e9, 1e4 * spec.law.mean)
    return spec.h.integral(big) / spec.law.mean


def _levy_hurst(spec):
    return 1.0 / spec.alpha - spec.beta


@dataclass(frozen=True)
class Regime:
    """One row of the limit-theorem table; every callable takes the
    LimitSpec first.  Callables reach `limits` through the module, so
    wrapping a `limits` function (for tracing, say) reaches them too.
    A `reference` row is a joint draw of (Y(u_1), ..., Y(u_k)) only where
    the sampler makes it one: D4 (one jump-epoch draw per row) and the
    no-scaling limits (independent at distinct u).  A1-A3 columns have the
    right marginals but are drawn independently."""

    admits: tuple               # hypotheses: (spec -> bool, message) pairs
    g: Callable | None          # (spec, t) -> g(t); None: no scaling
    statistic: Callable         # (spec, paths, u, t) -> statistic
                                # per path (row) and u (column)
    exact: Callable             # (spec, u) -> CDF of Y(u), or None
    reference: Callable         # (spec, u_grid, n, seed, key, scenario)
                                # -> (n, len(u_grid)) draws of Y
    moment: Callable            # (spec, u, k) -> E Y(u)^k; else ValueError
    hurst: Callable | None      # (spec) -> H; None: stationary limit


REGIMES = {
    NOSCALE_DRI: Regime(
        admits=((lambda s: s.h.dri,
                 "NOSCALE_DRI needs a directly Riemann integrable response"),
                (lambda s: math.isfinite(s.law.mean),
                 "no-scaling limit needs a finite mean")),
        g=None, statistic=_plain, exact=lambda spec, u: None,
        reference=lambda *args: _x_star_reference(limits.sample_X_star,
                                                  *args),
        moment=_x_star_mean, hurst=None),
    NOSCALE_CENTERED: Regime(
        admits=((lambda s: math.isfinite(s.law.variance),
                 "centered no-scaling regime (C1) needs finite variance"),
                (lambda s: not s.h.integrable and s.h.square_integrable,
                 "centered regime needs a non-integrable, square-integrable "
                 "response")),
        g=None, statistic=_centered, exact=lambda spec, u: None,
        reference=lambda *args: _x_star_reference(
            limits.sample_X_star_centered, *args),
        moment=_zero_mean, hurst=None),
    A1: Regime(
        admits=_GAUSSIAN_HYPOTHESES + (
            (lambda s: math.isfinite(s.law.variance),
             "A1 requires a finite-variance law"),),
        g=lambda spec, t: math.sqrt(
            spec.law.variance * spec.law.mean ** (-3) * t),
        statistic=_g_scaled, exact=_gaussian_cdf, reference=_gaussian_reference,
        moment=_gaussian_moment, hurst=_levy_hurst),
    A2: Regime(
        admits=_GAUSSIAN_HYPOTHESES + (
            (lambda s: not math.isfinite(s.law.variance),
             "A2 requires infinite variance"),
            (lambda s: isinstance(s.law, Pareto) and s.law.alpha == 2,
             "A2 normalizer needs the Pareto tail-index-2 law")),
        g=lambda spec, t: spec.law.mean ** (-1.5) * solve_c(spec.law, t),
        statistic=_g_scaled, exact=_gaussian_cdf, reference=_gaussian_reference,
        moment=_gaussian_moment, hurst=_levy_hurst),
    A3: Regime(
        admits=((lambda s: 1 < s.alpha < 2, "A3 requires alpha in (1, 2)"),
                (lambda s: 0 <= s.beta < 1.0 / s.alpha,
                 "A3 requires beta in the interval (0,1/alpha); got {s.beta}"),
                (_matching_pareto, "A3 requires the matching Pareto law")),
        g=lambda spec, t: (spec.law.mean ** (-1.0 - 1.0 / spec.alpha)
                           * solve_c(spec.law, t)),
        statistic=_g_scaled, exact=lambda spec, u: None,
        reference=lambda spec, u, n, seed, key, scn:
            limits.marginal_sample_finite_mean(
                spec.alpha, spec.beta, np.asarray(u), substream(seed, *key),
                (n, len(u))),
        moment=_zero_mean, hurst=_levy_hurst),
    D4: Regime(
        admits=((lambda s: 0 < s.alpha < 1, "D4 requires alpha in (0, 1)"),
                (lambda s: 0 <= s.beta <= s.alpha,
                 "D4 requires beta in [0, alpha]; got {s.beta}"),
                (_matching_pareto, "D4 requires an infinite-mean Pareto law")),
        g=lambda spec, t: 1.0 / float(spec.law.tail_prob(t)),
        statistic=_tail_scaled, exact=_d4_cdf,
        reference=_inverse_subordinator_reference,
        moment=lambda spec, u, k: limits.moments_inverse_case(
            spec.alpha, spec.beta, u, k),
        hurst=lambda spec: spec.alpha - spec.beta),
}
