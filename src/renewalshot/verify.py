"""Statistical tests and scenario runners.

Every limit theorem becomes a pass/fail Monte Carlo experiment: simulate
the scaled shot noise statistic on a ladder of horizons, compare against
the limit law (exact where a closed form exists, self-simulated where
not), and report one record per (t, u, test).

Determinism: replicates and reference batches draw from counter-based
substreams keyed by (seed, domain, key...), so reports are byte-identical
for a fixed (scenario, seed) regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Callable, NamedTuple

import numpy as np
from scipy import special, stats

from . import limits, renewal, shotnoise
from .shotnoise import REGIMES, LimitSpec, InadmissibleSpec
from .stable import abs_moment
from .streams import (DOMAIN_AUX, DOMAIN_REFERENCE, DOMAIN_REPLICATE,
                      substream, substreams)

KS_MARGINAL = "KS_MARGINAL"
MOMENTS = "MOMENTS"
JOINT_PAIRWISE_INDEPENDENCE = "JOINT_PAIRWISE_INDEPENDENCE"
TIME_REVERSAL = "TIME_REVERSAL"
SELF_SIMILARITY = "SELF_SIMILARITY"
STATIONARITY_LOGTIME = "STATIONARITY_LOGTIME"
MEAN_ABS_N = "MEAN_ABS_N"


class ResourceCapExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# elementary tests
# ---------------------------------------------------------------------------

def ks_two_sample(x, y):
    """Sup-distance of the two ECDFs and the asymptotic Kolmogorov p-value
    at effective size nm/(n+m)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise ValueError("samples must be nonempty")
    res = stats.ks_2samp(x, y, method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_one_sample(x, cdf):
    """Sup-distance of the ECDF against an exact CDF callable."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("sample must be nonempty")
    c = np.asarray(cdf(x), dtype=float)
    i = np.arange(n)
    d = max(np.max(c - i / n), np.max((i + 1) / n - c))
    p = float(special.kolmogorov(d * math.sqrt(n)))
    return float(d), p


def ks_one_sample_normal(x, mean, variance):
    if variance <= 0:
        raise ValueError("variance must be positive")
    sd = math.sqrt(variance)
    return ks_one_sample(x, lambda q: special.ndtr((q - mean) / sd))


def _sectioned_z(v, reference):
    """z-score of the mean of v against a reference, with the standard
    error estimated by sectioning into 20 batches (robust to heavy tails)."""
    nb = 20
    usable = (len(v) // nb) * nb
    if usable == 0:
        raise ValueError("sample too small for sectioning")
    batches = v[:usable].reshape(nb, -1).mean(axis=1)
    est = batches.mean()
    se = batches.std(ddof=1) / math.sqrt(nb)
    if se == 0.0:
        return 0.0 if est == reference else math.inf
    return float((est - reference) / se)


def moment_test(x, k, reference):
    """Sectioned z-score of the empirical k-th moment against a reference."""
    if k < 1:
        raise ValueError("k must be >= 1")
    v = np.asarray(x, dtype=float) ** k
    if not np.all(np.isfinite(v)):
        return math.inf
    return _sectioned_z(v, reference)


def covariance_z(a, b, reference):
    """Sectioned z-score of the empirical covariance of centered pairs
    against a reference value."""
    prod = np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    return _sectioned_z(prod, reference)


def energy_distance_test(x, y, n_perm=199, seed=0, max_n=2000):
    """Two-sample energy-distance test for multivariate samples with a
    permutation p-value.  Samples larger than max_n per group are
    deterministically subsampled to keep the distance matrix tractable."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    rng = substream(seed, DOMAIN_AUX, 7001)
    if len(x) > max_n:
        x = x[rng.choice(len(x), max_n, replace=False)]
    if len(y) > max_n:
        y = y[rng.choice(len(y), max_n, replace=False)]
    n, m = len(x), len(y)
    pooled = np.vstack([x, y])
    d = np.sqrt(((pooled[:, None, :] - pooled[None, :, :]) ** 2).sum(-1))
    total = d.sum()

    def estat(idx_x):
        # block sums of d from one product with the indicator z of group x
        z = np.zeros(n + m)
        z[idx_x] = 1.0
        dz = d @ z
        s_xx = z @ dz
        s_xy = dz.sum() - s_xx
        s_yy = total - 2.0 * s_xy - s_xx
        return 2.0 * s_xy / (n * m) - s_xx / (n * n) - s_yy / (m * m)

    obs = estat(np.arange(n))
    hits = 0
    for _ in range(n_perm):
        if estat(rng.permutation(n + m)[:n]) >= obs:
            hits += 1
    p = (1.0 + hits) / (n_perm + 1.0)
    return float(obs), float(p)


def copula_independence_test(x, y, n_perm=199, seed=0, max_n=2000, grid=20):
    """Distance between the empirical copula of (x, y) and the product
    copula, with a permutation p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = substream(seed, DOMAIN_AUX, 7002)
    if len(x) > max_n:
        keep = rng.choice(len(x), max_n, replace=False)
        x, y = x[keep], y[keep]
    n = len(x)
    qs = np.linspace(0.05, 0.95, grid)

    def cop_dist(u, v):
        cu = u[:, None] <= qs[None, :]
        cv = v[:, None] <= qs[None, :]
        c = (cu[:, :, None] & cv[:, None, :]).mean(axis=0)
        return np.abs(c - qs[:, None] * qs[None, :]).max()

    u = stats.rankdata(x) / (n + 1.0)
    v = stats.rankdata(y) / (n + 1.0)
    obs = cop_dist(u, v)
    hits = 0
    for _ in range(n_perm):
        if cop_dist(u, rng.permutation(v)) >= obs:
            hits += 1
    p = (1.0 + hits) / (n_perm + 1.0)
    return float(obs), float(p)


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    spec: LimitSpec
    u_grid: tuple
    t_ladder: tuple
    replicates: int
    seed: int
    plans: tuple = (KS_MARGINAL,)
    significance: float = 0.01
    max_shots: float = 1e8
    threads: int = 1
    # knobs for self-simulated references
    x_star_truncation: float | None = None
    reference_mesh_d: float = 1e-3

    def __post_init__(self):
        if self.replicates < 100:
            raise InadmissibleSpec("need at least 100 replicates")
        t = tuple(self.t_ladder)
        if not t or t[0] <= 0 or any(b <= a for a, b in zip(t, t[1:])):
            raise InadmissibleSpec("t-ladder must be positive and strictly "
                                   "increasing")
        u = tuple(self.u_grid)
        if not u or u[0] <= 0 or any(b <= a for a, b in zip(u, u[1:])):
            raise InadmissibleSpec("u-grid must be positive and increasing")
        for p in self.plans:
            plan, arg = _parse_plan(p)
            if not plan.admits(self.spec, arg):
                raise InadmissibleSpec(f"plan {p!r} does not apply to this "
                                       f"{self.spec.regime} spec")
            if len(u) < plan.min_points:
                raise InadmissibleSpec(f"plan {p!r} compares grid points and "
                                       f"needs at least {plan.min_points}")

    def echo(self) -> dict:
        d = asdict(self)
        d["spec"] = {
            "regime": self.spec.regime,
            "alpha": self.spec.alpha,
            "beta": self.spec.beta,
            "law": repr(self.spec.law),
            "response": repr(self.spec.h),
        }
        return d


@dataclass
class TestRecord:
    t: float
    u: float
    test: str
    statistic: float
    reference: float
    p_value: float | None
    z_score: float | None
    passed: bool


@dataclass
class TestReport:
    scenario: dict
    seed: int
    records: list = field(default_factory=list)
    # (t, u) -> sorted sample quantiles, for external plotting
    plot_data: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "records": [asdict(r) for r in self.records],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def write_csv(self, fileobj) -> None:
        w = csv.writer(fileobj, lineterminator="\n")
        w.writerow(["t", "u", "test", "statistic", "reference",
                    "p_value", "z_score", "passed"])
        for r in self.records:
            w.writerow([r.t, r.u, r.test, repr(r.statistic), repr(r.reference),
                        "" if r.p_value is None else repr(r.p_value),
                        "" if r.z_score is None else repr(r.z_score),
                        int(r.passed)])

    def write_plot_data(self, fileobj) -> None:
        w = csv.writer(fileobj, lineterminator="\n")
        w.writerow(["t", "u", "prob", "quantile"])
        probs = np.linspace(0.0, 1.0, 101)
        for (t, u), q in sorted(self.plot_data.items()):
            for p, qv in zip(probs, q):
                w.writerow([t, u, round(float(p), 2), repr(float(qv))])


# ---------------------------------------------------------------------------
# simulation of the scaled statistic
# ---------------------------------------------------------------------------

def _simulate_chunk(args):
    """Rows lo..hi-1: each replicate's path from its own substream, the
    statistic for a buffer of paths at a time."""
    spec, u_grid, t, seed, lo, hi = args
    out = np.empty((hi - lo, len(u_grid)))
    for at, rows in renewal.epoch_batches(
            spec.law, max(u_grid) * t, renewal.ZERO_DELAYED,
            substreams(seed, (DOMAIN_REPLICATE,), range(lo, hi)), hi - lo):
        out[at:at + len(rows)] = shotnoise.batch_statistic(spec, rows,
                                                           u_grid, t)
    return lo, out


def simulate_scaled_matrix(spec: LimitSpec, u_grid, t: float, n: int,
                           seed: int, threads: int = 1,
                           max_shots: float = 1e8) -> np.ndarray:
    """(n, len(u_grid)) matrix of the scaled statistic, one zero-delayed
    path per replicate shared across the u-grid."""
    u_grid = tuple(float(u) for u in u_grid)
    if n * renewal.expected_count(spec.law, max(u_grid) * t) > max_shots:
        raise ResourceCapExceeded(
            f"estimated shot count exceeds cap {max_shots:g}")
    if threads <= 1:
        return _simulate_chunk((spec, u_grid, t, seed, 0, n))[1]
    bounds = np.linspace(0, n, threads * 4 + 1).astype(int)
    jobs = [(spec, u_grid, t, seed, int(a), int(b))
            for a, b in zip(bounds, bounds[1:]) if b > a]
    out = np.empty((n, len(u_grid)))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        for lo, chunk in ex.map(_simulate_chunk, jobs):
            out[lo:lo + len(chunk)] = chunk
    return out


# ---------------------------------------------------------------------------
# plan runners: (scenario, t, samples or None, MOMENTS k or None, records,
# references: the limit-law draws of this run_scenario call, by plan)
# ---------------------------------------------------------------------------

def _limit_reference_sample(scn: Scenario, key: tuple, u_grid):
    """(replicates, len(u_grid)) draws of the limit law, column j of
    Y(u_j), from the streams under (seed, DOMAIN_REFERENCE, *key).  The
    key (plan, batch) names the draw: KS_MARGINAL 1, SELF_SIMILARITY 2,
    STATIONARITY_LOGTIME 3.  Rows are joint draws only where the regime's
    sampler makes them so (see `shotnoise.Regime`)."""
    return REGIMES[scn.spec.regime].reference(
        scn.spec, tuple(u_grid), scn.replicates, scn.seed,
        (DOMAIN_REFERENCE,) + key, scn)


def _run_ks_marginal(scn, t, samples, arg, records, references):
    spec = scn.spec
    cdfs = [REGIMES[spec.regime].exact(spec, u) for u in scn.u_grid]
    if any(cdf is None for cdf in cdfs) and KS_MARGINAL not in references:
        # one draw of the whole grid serves every rung
        references[KS_MARGINAL] = _limit_reference_sample(
            scn, (1, 0), scn.u_grid)
    for j, (u, cdf) in enumerate(zip(scn.u_grid, cdfs)):
        col = samples[:, j]
        if cdf is not None:
            d, p = ks_one_sample(col, cdf)
        else:
            d, p = ks_two_sample(col, references[KS_MARGINAL][:, j])
        records.append(TestRecord(t, u, KS_MARGINAL, d, 0.0, p, None,
                                  p > scn.significance))


def _run_moments(scn, t, samples, arg, records, references):
    moment = REGIMES[scn.spec.regime].moment
    for j, u in enumerate(scn.u_grid):
        for k in range(1, arg + 1):
            ref = float(moment(scn.spec, u, k))
            z = moment_test(samples[:, j], k, ref)
            est = float(np.mean(samples[:, j] ** k))
            records.append(TestRecord(t, u, f"{MOMENTS}:k={k}", est, ref,
                                      None, z, abs(z) < 3.0))


def _run_pairwise_independence(scn, t, samples, arg, records, references):
    n = len(samples)
    for i in range(len(scn.u_grid)):
        for j in range(i + 1, len(scn.u_grid)):
            a, b = samples[:, i], samples[:, j]
            rho = float(np.corrcoef(a, b)[0, 1])
            ok_rho = abs(rho) < 3.0 / math.sqrt(n)
            records.append(TestRecord(
                t, scn.u_grid[j], f"CORRELATION:u={scn.u_grid[i]}", rho, 0.0,
                None, rho * math.sqrt(n), ok_rho))
            d, p = copula_independence_test(a, b, seed=scn.seed)
            records.append(TestRecord(
                t, scn.u_grid[j], f"COPULA_PRODUCT:u={scn.u_grid[i]}", d, 0.0,
                p, None, p > scn.significance))


# (s, horizon): N(horizon) - N(horizon - s) against N(s)
_REVERSAL_PAIRS = ((3.0, 50.0), (5.0, 50.0), (10.0, 50.0))


def _run_time_reversal(scn, t, samples, arg, records, references):
    law = scn.spec.law
    n = scn.replicates
    for idx, (s, horizon) in enumerate(_REVERSAL_PAIRS):
        rev = np.empty(n, dtype=np.intp)
        for at, rows in renewal.epoch_batches(
                law, horizon, renewal.STATIONARY,
                substreams(scn.seed, (DOMAIN_AUX, 100 + idx), range(n)), n):
            rev[at:at + len(rows)] = (
                np.count_nonzero(rows <= horizon, axis=1)
                - np.count_nonzero(rows < horizon - s, axis=1))
        fwd = renewal.counts_at(law, s, renewal.STATIONARY, substreams(
            scn.seed, (DOMAIN_AUX, 200 + idx), range(n)), n)
        d, p = ks_two_sample(rev, fwd)
        records.append(TestRecord(horizon, s, TIME_REVERSAL, d, 0.0, p, None,
                                  p > scn.significance))


def _run_self_similarity(scn, t, samples, arg, records, references):
    """Check the limit law's Hurst scaling between the smallest and largest
    grid points using independent reference batches."""
    u_lo, u_hi = scn.u_grid[0], scn.u_grid[-1]
    hurst = REGIMES[scn.spec.regime].hurst(scn.spec)
    a = _limit_reference_sample(scn, (2, 0), (u_lo,))[:, 0]
    b = _limit_reference_sample(scn, (2, 1), (u_hi,))[:, 0]
    d, p = ks_two_sample(a * (u_hi / u_lo) ** hurst, b)
    records.append(TestRecord(t, u_hi, SELF_SIMILARITY, d, hurst, p, None,
                              p > scn.significance))


# log-time lags s of the covariance pairs (e^w, e^(w+s))
_LOGTIME_LAGS = (0.0, math.log(2.0))


def _run_stationarity_logtime(scn, t, samples, arg, records, references):
    v = 0.5                                  # log-time shift for the lag pair
    u_pts = sorted({1.0} | {math.exp(s) for s in _LOGTIME_LAGS}
                   | {math.exp(v)} | {math.exp(v + s) for s in _LOGTIME_LAGS})
    ys = _limit_reference_sample(scn, (3, 0), u_pts)
    col = {u: ys[:, j] for j, u in enumerate(u_pts)}
    for s in _LOGTIME_LAGS:
        ref = float(limits.stationary_covariance(scn.spec.alpha, s))
        for w in (0, v):                     # pairs (e^w, e^(w+s))
            z = covariance_z(col[math.exp(w)] - 1.0,
                             col[math.exp(w + s)] - 1.0, ref)
            records.append(TestRecord(t, s, f"{STATIONARITY_LOGTIME}:lag{w}",
                                      ref, ref, None, z, abs(z) < 3.0))


def _run_mean_abs_n(scn, t, samples, arg, records, references):
    spec = scn.spec
    law = spec.law
    n = scn.replicates
    g = shotnoise.scaling_g(spec, t)
    dev = np.abs(renewal.counts_at(law, t, renewal.ZERO_DELAYED, substreams(
        scn.seed, (DOMAIN_AUX, 500), range(n)), n) - t / law.mean)
    est = dev.mean() / g
    ref = abs_moment(spec.alpha, 1.0)
    rel = est / ref - 1.0
    z = moment_test(dev / g, 1, ref)
    records.append(TestRecord(t, 1.0, MEAN_ABS_N, float(est), float(ref),
                              None, z, bool(abs(rel) < 0.05)))


# ---------------------------------------------------------------------------
# plan registry
# ---------------------------------------------------------------------------

class Plan(NamedTuple):
    runner: Callable        # (scenario, t, samples, arg, records,
                            #  references)
    every_rung: bool        # False: run on the first rung of the t-ladder only
    needs_samples: bool     # reads the simulated matrix of the rung
    admits: Callable        # (spec, MOMENTS k or None) -> bool, checked
                            # by Scenario
    min_points: int = 1     # u-grid points the plan needs


def _closed_form_moments(spec, k):
    # every order the runner tests must have a reference (a ValueError of
    # Regime.moment says it has none)
    try:
        for order in range(1, k + 1):
            REGIMES[spec.regime].moment(spec, 1.0, order)
    except ValueError:
        return False
    return True


def _hurst_zero(spec, _):
    # a self-similar limit with H = 0 is stationary in log time (Lamperti);
    # in the table only D4 with beta = alpha, the inverse-subordinator
    # functional the runner simulates, has H = 0
    hurst = REGIMES[spec.regime].hurst
    return hurst is not None and hurst(spec) == 0.0


PLANS = {
    KS_MARGINAL: Plan(_run_ks_marginal, True, True, lambda spec, _: True),
    MOMENTS: Plan(_run_moments, True, True, _closed_form_moments),
    # i.i.d. copies: only the no-scaling limits
    JOINT_PAIRWISE_INDEPENDENCE: Plan(
        _run_pairwise_independence, True, True,
        lambda spec, _: REGIMES[spec.regime].g is None, min_points=2),
    # stationary renewal paths need a finite mean
    TIME_REVERSAL: Plan(_run_time_reversal, False, False,
                        lambda spec, _: math.isfinite(spec.law.mean)),
    SELF_SIMILARITY: Plan(
        _run_self_similarity, False, False,
        lambda spec, _: REGIMES[spec.regime].hurst is not None,
        min_points=2),
    STATIONARITY_LOGTIME: Plan(_run_stationarity_logtime, False, False,
                               _hurst_zero),
    # the stable limit of the counting process: finite-mean scaled regimes
    MEAN_ABS_N: Plan(_run_mean_abs_n, True, False,
                     lambda spec, _: (REGIMES[spec.regime].g is not None
                                      and math.isfinite(spec.law.mean))),
}
PLAN_NAMES = tuple(PLANS)


def _parse_plan(p):
    """The Plan of a plan string NAME or MOMENTS:k, and k (2 for a plain
    MOMENTS) or None."""
    name, colon, arg = p.partition(":")
    plan = PLANS.get(name)
    if plan is None:
        raise InadmissibleSpec(f"unknown test plan {p!r}")
    if colon and not (name == MOMENTS and arg.isdecimal()
                      and int(arg) >= 1):
        raise InadmissibleSpec(f"plan {p!r}: only {MOMENTS} takes an "
                               "argument, an integer k >= 1")
    if name == MOMENTS:
        return plan, int(arg) if colon else 2
    return plan, None


def run_scenario(s: Scenario) -> TestReport:
    """Run every plan of the scenario on each rung of the t-ladder."""
    report = TestReport(scenario=s.echo(), seed=s.seed)
    plans = [_parse_plan(p) for p in s.plans]
    needs_samples = any(plan.needs_samples for plan, _ in plans)
    references = {}
    for t in s.t_ladder:
        samples = None
        if needs_samples:
            samples = simulate_scaled_matrix(s.spec, s.u_grid, t,
                                             s.replicates, s.seed,
                                             s.threads, s.max_shots)
            for j, u in enumerate(s.u_grid):
                report.plot_data[(t, u)] = np.quantile(
                    samples[:, j], np.linspace(0.0, 1.0, 101))
        for plan, arg in plans:
            if plan.every_rung or t == s.t_ladder[0]:
                plan.runner(s, t, samples, arg, report.records, references)
    return report
