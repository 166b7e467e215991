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
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import limits, renewal
from .laws import Constant, IncrementLaw, ResponseFunction
from .renewal import RenewalPath, ResourceCapExceeded
from .streams import DOMAIN_REFERENCE, substream, substreams

NOSCALE_DRI = "NOSCALE_DRI"
NOSCALE_CENTERED = "NOSCALE_CENTERED"
A1 = "A1"
A2 = "A2"
A3 = "A3"
D4 = "D4"

# every limit-law draw comes from a stream (seed, *REFERENCE_KEY, ...)
REFERENCE_KEY = (DOMAIN_REFERENCE, 1, 0)


class InadmissibleSpec(ValueError):
    """Raised when a scenario violates a theorem hypothesis."""


@dataclass(frozen=True)
class LimitSpec:
    """A gap law and a response.  The regime is the one REGIMES row whose
    hypotheses all hold (see Regime); alpha and beta follow from them."""

    law: IncrementLaw
    h: ResponseFunction
    regime: str = field(init=False)

    @property
    def alpha(self) -> float:
        """The index of the stable law whose domain of attraction holds the
        gap law: its tail index, capped at 2 (the Gaussian case)."""
        return float(min(self.law.tail_index, 2.0))

    @property
    def beta(self) -> float | None:
        """-beta is the regular-variation index of h; None for a response
        that is not regularly varying (ExpDecay, Window)."""
        rv = self.h.rv_index
        return None if rv is None else float(rv)

    def __post_init__(self):
        failed = []
        for name, row in REGIMES.items():
            why = next((w for ok, w in row.admits if not ok(self)), None)
            if why is None:
                return object.__setattr__(self, "regime", name)
            failed.append(f"{name} {why.format(s=self)}")
        raise InadmissibleSpec(f"no regime admits {self.law!r} with "
                               f"{self.h!r}: " + "; ".join(failed))


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
    """Normalizer c(t) of a law with tail index a and tail scale x_m,
    P(xi > t) ~ (x_m/t)^a.

    a != 2: t P(xi > c) = 1, the closed form c = (x_m^a t)^{1/a}.  a = 2:
    c^2 = t E[xi^2 1{xi <= c}] with the truncated second moment
    2 x_m^2 ln(c/x_m) (exact for Pareto), its upper root by bisection to
    relative tolerance 1e-10.
    """
    if not math.isfinite(law.tail_index):
        raise ValueError("normalizer needs a finite tail index")
    if t <= 0:
        raise ValueError("t must be positive")
    a, xm = law.tail_index, law.tail_scale
    if a != 2:
        return (xm**a * t) ** (1.0 / a)
    # c^2 = 2 t xm^2 ln(c/xm); roots exist only for t >= e
    phi = lambda c: c * c - t * 2.0 * xm * xm * math.log(c / xm)
    c_min = xm * math.sqrt(t)          # minimizer of phi
    if phi(c_min) > 0:
        raise ValueError(f"t={t} too small: phi(c) = 0 has no root")
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


# numpy's pairwise-summation block (PW_BLOCKSIZE in its loops_utils.h)
_PAIRWISE_BLOCK = 128


def shot_noise(paths, h: ResponseFunction, times) -> np.ndarray:
    """X(tau) on each path (row of the 2-D array `paths`: its sorted
    arrival epochs, which may go on past tau, as the +inf-padded rows of
    `renewal.epoch_rows` do) at each tau of `times`, a 1-D array or a 2-D
    one with a rung of a t-ladder per row, as (len(paths),) + shape of
    times.  Each path's ages, cut at tau and in ascending order, go
    through h.eval, and each X sums its own slice as np.sum does, so it
    equals `evaluate` bit for bit.  Short rows are gathered by one mask
    over the reversed buffer per rung, and the ages of every row and tau
    go through one h.eval, summed by _row_sums.  A long row finds every
    tau's cut by one searchsorted and then, per tau, writes the ages of a
    reversed view of the row into one workspace per call and sums their
    h.eval by np.add.reduce: one h.eval per tau, as on a shared 2-core VM
    PowerDecay's (x + 1)**-0.25 cost 10.7 ns per age on 35,000 ages, all
    three taus of an A1 row, and 4.5 ns on 20,000."""
    paths = np.asarray(paths)
    taus = np.asarray(times, dtype=float)
    shape = (len(paths),) + taus.shape
    if paths.shape[1] >= renewal._GATHER_WIDTH:
        flat = taus.ravel()
        out = np.zeros((len(paths), len(flat)))
        work = np.empty(paths.shape[1])
        for row, x in zip(paths, out):
            cuts = row.searchsorted(flat, side="right").tolist()
            for j, (tau, k) in enumerate(zip(flat.tolist(), cuts)):
                if k:               # else no epoch <= tau, and X is 0
                    ages = np.subtract(tau, row[k - 1::-1], out=work[:k])
                    x[j] = np.add.reduce(h.eval(ages))
        return out.reshape(shape)
    # the columns of a buffer past the last epoch <= a rung's largest tau
    # of any row hold none of its ages (min over rows is sorted as the rows
    # are): cut per rung, so an early rung's mask leaves out the columns
    # only a later one reaches (on a shared 2-core VM, one mask over all
    # six taus of a D4 ladder took its statistic over 2000 paths to 2e4
    # from 24 to 28 ms)
    firsts = paths.min(axis=0)
    ages, counts = [], []
    for rung in np.atleast_2d(taus):
        cols = firsts.searchsorted(rung.max(), side="right")
        back = paths[:, :cols][:, ::-1]
        used = back <= rung[:, None, None]
        ages.append((rung[:, None, None] - back)[used])
        counts.append(np.count_nonzero(used, axis=2))
    sums = _row_sums(h.eval(np.concatenate(ages)),
                     np.concatenate(counts).ravel())
    return sums.reshape(-1, len(paths)).T.copy().reshape(shape)


def _row_sums(vals: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.add.reduce (np.sum, pairwise) over consecutive slices of vals of
    the given lengths, bit for bit.  numpy sums a row of at most
    _PAIRWISE_BLOCK values in one pass: 8 lanes over its first n - n % 8
    values, their pair tree, then its last n % 8 values in order.  So each
    slice shorter than the block is one row of a grid of -0.0, which adds
    exactly nothing, L + 7 wide (L the largest n - n % 8, at most 120):
    its first n - n % 8 values from column 0 and its last n % 8 from
    column L, and one np.add.reduce over the rows (each contiguous, so
    summed by one pairwise call) gives each its slice's bits; a longer
    slice has its own np.add.reduce."""
    out = np.empty(len(lengths))
    end = np.cumsum(lengths).tolist()
    short = lengths < _PAIRWISE_BLOCK
    for i in np.flatnonzero(~short).tolist():
        out[i] = np.add.reduce(vals[end[i] - lengths[i]:end[i]])
    if not short.all():
        vals = vals[np.repeat(short, lengths)]
    n = lengths[short, None]
    lanes = n - n % 8
    L = lanes.max(initial=0)
    col = np.arange(L + 7)
    grid = np.full((len(n), L + 7), -0.0)
    grid[(col < lanes) | (col >= L) & (col < L + n % 8)] = vals
    out[short] = np.add.reduce(grid, axis=1)
    return out


def check_grid(grid, name: str) -> np.ndarray:
    """`grid` (a u-grid, a t-ladder, or (t,) for one t) as a float array;
    InadmissibleSpec unless it is non-empty, finite, positive and strictly
    increasing."""
    g = np.asarray(grid, dtype=float)
    if not (g.ndim == 1 and len(g) and np.all(np.isfinite(g)) and g[0] > 0
            and np.all(np.diff(g) > 0)):
        raise InadmissibleSpec(f"{name} must be positive, finite and "
                               "strictly increasing")
    return g


def scaled_statistic(spec: LimitSpec, path: RenewalPath,
                     u_grid, t: float) -> np.ndarray:
    """The theorem statistic at each u of the grid (see check_grid), on
    one shared path generated up to u_max * t."""
    check_grid((t,), "t")
    u = check_grid(u_grid, "u-grid")
    if u[-1] * t > path.horizon:
        raise ValueError("u_max * t exceeds the generated horizon")
    return REGIMES[spec.regime].statistic(spec, u, (t,))(
        path.arrivals[None])[0, 0]


def default_x_star_truncation(spec: LimitSpec) -> float:
    """Level T where the X* truncation bound is at most 1e-9: 10 mu
    doubled until it is.  A ValueError once T passes 1e6 with the bound
    still above 1e-9 (always for a non-integrable response, whose bound is
    inf): the level must then be given as x_star_truncation."""
    law, h = spec.law, spec.h
    T = 10.0 * law.mean
    while (bound := limits.x_star_tail_bound(law, h, T)) > 1e-9:
        if T >= 1e6:
            raise ValueError(
                f"the X* truncation bound of {h!r} is {bound:.3g} at "
                f"T = {T:g}, above 1e-09, so there is no default X* "
                "truncation level; set x_star_truncation")
        T *= 2.0
    return T


# ---------------------------------------------------------------------------
# the regime table
# ---------------------------------------------------------------------------

# hypotheses: (condition on the spec, message formatted with s=spec that
# follows the row's name); every scaled regime (g is not None) lists
# _H_REGULARLY_VARYING first, so that no later hypothesis meets beta None
_H_REGULARLY_VARYING = (lambda s: s.beta is not None,
                        "needs a regularly varying response")
_GAUSSIAN_BETA = (lambda s: 0 <= s.beta < 0.5,
                  "requires beta in [0, 1/2), got {s.beta}")


def _plain(spec, u, ts):
    """X(ut) itself."""
    times = np.multiply.outer(ts, u)
    return lambda paths: shot_noise(paths, spec.h, times)


def _centered(spec, u, ts, h=None):
    """X(ut) - mu^{-1} int_0^{ut} h, with h = spec.h unless given."""
    h = spec.h if h is None else h
    times = np.multiply.outer(ts, u)
    mean = np.array([[h.integral(tau) / spec.law.mean for tau in rung]
                     for rung in times])
    return lambda paths: shot_noise(paths, h, times) - mean


def _tail_scaled(spec, u, ts):
    """P(xi > t)/h(t) * X(ut)."""
    plain = _plain(spec, u, ts)
    scale = np.array([[float(spec.law.tail_prob(t)) / float(spec.h.eval(t))]
                      for t in ts])
    return lambda paths: plain(paths) * scale


_UNIT = Constant(1.0)


def _g_scaled(spec, u, ts):
    """(X(ut) - mu^{-1} int_0^{ut} h) / (g(t) h(t))."""
    # a constant cancels algebraically; compute with h == 1 so the result
    # is bit-identical for every value of the constant
    h = _UNIT if isinstance(spec.h, Constant) else spec.h
    centered = _centered(spec, u, ts, h)
    scale = np.array([[scaling_g(spec, t) * float(h.eval(t))] for t in ts])
    return lambda paths: centered(paths) / scale


def _gaussian_variance(spec, u):
    b = spec.beta
    return u ** (1.0 - 2.0 * b) / (1.0 - 2.0 * b) if b > 0 else u


def _gaussian_cdf(spec, u):
    # imported here: under scipy 1.17 scipy.special is three quarters of
    # the start-up time, and set-up never evaluates it
    from scipy.special import ndtr
    sd = math.sqrt(_gaussian_variance(spec, u))
    return lambda q: ndtr(q / sd)


def _d4_cdf(spec, u):
    if spec.alpha != spec.beta:
        return None
    # beta = alpha: Hurst index 0, every marginal is Exp(1)
    return lambda q: -np.expm1(-np.maximum(q, 0.0))


def _x_star_rows(spec, T, columns, seed, rows):
    """Rows `rows` of the X* columns truncated at T: draw (i, j) is the
    sum of h over the epochs <= T, in order, of the stationary path of
    stream (seed, *REFERENCE_KEY, j, i), so it equals limits.sample_X_star
    on that stream bit for bit; for a non-integrable h (the centered
    regime) minus mu^{-1} int_0^T h."""
    law, h = spec.law, spec.h
    out = np.empty((len(rows), columns))
    for j in range(columns):
        sums = []
        for paths in renewal.epoch_batches(law, T, renewal.STATIONARY, seed,
                                           REFERENCE_KEY + (j,), rows):
            used = paths <= T
            sums.append(_row_sums(h.eval(paths[used]),
                                  np.count_nonzero(used, axis=1)))
        out[:, j] = np.concatenate(sums)
    if not h.integrable:
        out -= h.integral(T) / law.mean
    return out


def _x_star_reference(scn, map_rows):
    """Independent X* columns (see _x_star_rows), T the scenario's
    x_star_truncation or its default, under the scenario's shot cap; the
    map's work is the shots of its n * columns paths."""
    spec, n, columns = scn.spec, scn.replicates, len(scn.u_grid)
    T = (default_x_star_truncation(spec) if scn.x_star_truncation is None
         else scn.x_star_truncation)
    shots = renewal.check_shot_cap(spec.law, T, n * columns, scn.max_shots)
    return map_rows(partial(_x_star_rows, spec, T, columns, scn.seed), n,
                    shots)


def _inverse_subordinator_rows(spec, u_grid, mesh_d, seed, rows):
    """Row i of rows: one draw of the jump epochs from stream
    (seed, *REFERENCE_KEY, i), summed at every u of the grid."""
    stream = substreams(seed, REFERENCE_KEY, rows)
    return np.array([limits.inverse_frac_integral(
        spec.alpha, spec.beta, u_grid, mesh_d, stream(i))
        for i in range(len(rows))])


def _inverse_subordinator_reference(scn, map_rows):
    """The rows of _inverse_subordinator_rows; the map's work, under the
    shot cap, is the jump epochs of each row's first piece."""
    spec, n, mesh_d = scn.spec, scn.replicates, scn.reference_mesh_d
    jumps = n * limits.expected_jumps(spec.alpha, max(scn.u_grid), mesh_d)
    if jumps > scn.max_shots:
        raise ResourceCapExceeded(
            f"estimated jump epoch count exceeds cap {scn.max_shots:g}")
    return map_rows(partial(_inverse_subordinator_rows, spec, scn.u_grid,
                            mesh_d, scn.seed), n, jumps=jumps)


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
    return spec.h.integral(math.inf) / spec.law.mean


def _levy_hurst(spec):
    return 1.0 / spec.alpha - spec.beta


@dataclass(frozen=True)
class Regime:
    """One row of the limit-theorem table, the regime of each (law, h)
    that all its `admits` hold for; no two rows admit one pair.  Every
    callable takes the LimitSpec first, but `reference`, which takes the
    verify.Scenario that holds it, the u-grid and the size, seed and knobs
    of the draw.  `statistic(spec, u, ts)` computes the rung constants
    (mu^{-1} int_0^{ut} h and g(t) h(t) or P(xi > t)/h(t)) once and
    returns the function that applies them to each buffer of paths.
    Callables reach `limits` through the module, so wrapping a `limits`
    function (for tracing, say) reaches them too.
    A row has an `exact` CDF at every u or a `reference` sampler (A1 and
    A2, whose marginals are normal, have none).  A `reference` row is a
    joint draw of (Y(u_1), ..., Y(u_k)) only where the sampler makes it
    one: D4 (one jump-epoch draw per row) and the no-scaling limits
    (independent at distinct u); A3's columns are drawn independently.
    The D4 and no-scaling samplers draw each row from its own streams
    and hand their rows to map_rows(fn, n, epochs=0, jumps=0), which
    returns fn's rows for [0, n) from calls of fn on ranges of rows
    (verify's run pool); the map's expected renewal-path epochs and D4
    jump epochs give its expected seconds, which decide whether the rows
    are worth splitting; A3's one-stream block cannot be split."""

    admits: tuple               # hypotheses: (spec -> bool, message) pairs
    g: Callable | None          # (spec, t) -> g(t); None: no scaling
    statistic: Callable         # (spec, u, ts) -> the function of a
                                # buffer `paths` giving the statistic per
                                # path, rung t of ts and u, as
                                # (len(paths), len(ts), len(u))
    exact: Callable             # (spec, u) -> CDF of Y(u), or None
    reference: Callable | None  # (scenario, map_rows) ->
                                # (replicates, len(u_grid)) draws of Y on
                                # the scenario's u-grid from the streams
                                # (seed, *REFERENCE_KEY, ...); None: exact
    moment: Callable            # (spec, u, k) -> E Y(u)^k; else ValueError
    hurst: Callable | None      # (spec) -> H; None: stationary limit


REGIMES = {
    NOSCALE_DRI: Regime(
        admits=((lambda s: s.h.dri,
                 "needs a directly Riemann integrable response"),
                (lambda s: math.isfinite(s.law.mean), "needs a finite mean")),
        g=None, statistic=_plain, exact=lambda spec, u: None,
        reference=_x_star_reference,
        moment=_x_star_mean, hurst=None),
    NOSCALE_CENTERED: Regime(
        admits=((lambda s: math.isfinite(s.law.variance),
                 "needs finite variance"),
                (lambda s: not s.h.integrable and s.h.square_integrable,
                 "needs a non-integrable, square-integrable response")),
        g=None, statistic=_centered, exact=lambda spec, u: None,
        reference=_x_star_reference,
        moment=_zero_mean, hurst=None),
    A1: Regime(
        admits=(_H_REGULARLY_VARYING,
                (lambda s: math.isfinite(s.law.variance),
                 "requires a finite-variance law"),
                _GAUSSIAN_BETA),
        g=lambda spec, t: math.sqrt(
            spec.law.variance * spec.law.mean ** (-3) * t),
        statistic=_g_scaled, exact=_gaussian_cdf, reference=None,
        moment=_gaussian_moment, hurst=_levy_hurst),
    A2: Regime(
        admits=(_H_REGULARLY_VARYING,
                (lambda s: not math.isfinite(s.law.variance),
                 "requires infinite variance"),
                (lambda s: s.alpha == 2, "requires alpha = 2, got {s.alpha}"),
                _GAUSSIAN_BETA),
        g=lambda spec, t: spec.law.mean ** (-1.5) * solve_c(spec.law, t),
        statistic=_g_scaled, exact=_gaussian_cdf, reference=None,
        moment=_gaussian_moment, hurst=_levy_hurst),
    A3: Regime(
        admits=(_H_REGULARLY_VARYING,
                (lambda s: 1 < s.alpha < 2,
                 "requires alpha in (1, 2), got {s.alpha}"),
                (lambda s: 0 <= s.beta < 1.0 / s.alpha,
                 "requires beta in [0, 1/alpha), got {s.beta}")),
        g=lambda spec, t: (spec.law.mean ** (-1.0 - 1.0 / spec.alpha)
                           * solve_c(spec.law, t)),
        statistic=_g_scaled, exact=lambda spec, u: None,
        reference=lambda scn, map_rows: limits.marginal_sample_finite_mean(
            scn.spec.alpha, scn.spec.beta, np.asarray(scn.u_grid),
            substream(scn.seed, *REFERENCE_KEY),
            (scn.replicates, len(scn.u_grid))),
        moment=_zero_mean, hurst=_levy_hurst),
    D4: Regime(
        admits=(_H_REGULARLY_VARYING,
                (lambda s: 0 < s.alpha < 1,
                 "requires alpha in (0, 1), got {s.alpha}"),
                (lambda s: 0 <= s.beta <= s.alpha,
                 "requires beta in [0, alpha], got {s.beta}")),
        g=lambda spec, t: 1.0 / float(spec.law.tail_prob(t)),
        statistic=_tail_scaled, exact=_d4_cdf,
        reference=_inverse_subordinator_reference,
        moment=lambda spec, u, k: limits.moments_inverse_case(
            spec.alpha, spec.beta, u, k),
        hurst=lambda spec: spec.alpha - spec.beta),
}
