"""Statistical tests and scenario runners.

Every limit theorem becomes a pass/fail Monte Carlo experiment: simulate
the scaled shot noise statistic on a ladder of horizons, compare against
the limit law (exact where a closed form exists, self-simulated where
not), and report one record per (t, u, test).

Determinism: replicates and reference batches draw from counter-based
substreams keyed by (seed, domain, index), so reports are byte-identical
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
    reversal_pairs: tuple = ((3.0, 50.0), (5.0, 50.0), (10.0, 50.0))
    logtime_lags: tuple = (0.0, math.log(2.0))

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
            plan = PLANS.get(p.split(":")[0])
            if plan is None:
                raise InadmissibleSpec(f"unknown test plan {p!r}")
            if not plan.admits(self.spec):
                raise InadmissibleSpec(f"plan {p!r} does not apply to this "
                                       f"{self.spec.regime} spec")

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

# epochs per sub-batch of replicates: the statistic's vector passes over
# one sub-batch then stay cache-sized whatever the replicate count
_SUB_BATCH_EPOCHS = 2**13


def _simulate_chunk(args):
    """Rows lo..hi-1: each replicate's path from its own substream, the
    statistic for a sub-batch of paths at a time."""
    spec, u_grid, t, seed, lo, hi = args
    out = np.empty((hi - lo, len(u_grid)))
    horizon = max(u_grid) * t
    rows, epochs, done = [], 0, 0
    for rng in substreams(seed, (DOMAIN_REPLICATE,), range(lo, hi)):
        path = renewal.sample_path(spec.law, horizon, renewal.ZERO_DELAYED,
                                   rng)
        rows.append(path.arrivals)
        epochs += len(path)
        if epochs >= _SUB_BATCH_EPOCHS or done + len(rows) == hi - lo:
            out[done:done + len(rows)] = shotnoise.batch_statistic(
                spec, rows, u_grid, t)
            done += len(rows)
            rows, epochs = [], 0
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
# plan runners: (scenario, t, samples or None, plan argument, records,
# references: the KS reference draws of this run_scenario call, by u)
# ---------------------------------------------------------------------------

def _limit_reference_sample(spec: LimitSpec, u: float, n: int, seed: int,
                            scenario: Scenario):
    """Draws from the limit law of the scaled statistic at time point u.
    Returns None when the regime gives the exact law instead."""
    rng = substream(seed, DOMAIN_REFERENCE, int(u * 2**20) & 0x7FFFFFFF)
    regime = REGIMES[spec.regime]
    if regime.exact(spec, u) is not None:
        return None
    return regime.reference(spec, u, n, rng, scenario)


def _run_ks_marginal(scn, t, samples, arg, records, references):
    spec = scn.spec
    for j, u in enumerate(scn.u_grid):
        col = samples[:, j]
        exact = REGIMES[spec.regime].exact(spec, u)
        if exact is not None:
            d, p = ks_one_sample(col, exact.cdf)
        else:
            # the reference stream is keyed by (seed, u) alone, so every
            # rung would draw the same array
            if u not in references:
                references[u] = _limit_reference_sample(spec, u, len(col),
                                                        scn.seed, scn)
            d, p = ks_two_sample(col, references[u])
        records.append(TestRecord(t, u, KS_MARGINAL, d, 0.0, p, None,
                                  p > scn.significance))


def _run_moments(scn, t, samples, arg, records, references):
    moment = REGIMES[scn.spec.regime].moment
    for j, u in enumerate(scn.u_grid):
        for k in range(1, int(arg or 2) + 1):
            try:
                ref = float(moment(scn.spec, u, k))
            except ValueError:
                continue
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


def _run_time_reversal(scn, t, samples, arg, records, references):
    law = scn.spec.law
    n = scn.replicates
    for idx, (s, horizon) in enumerate(scn.reversal_pairs):
        fwd = np.empty(n, dtype=int)
        rev = np.empty(n, dtype=int)
        pairs = zip(substreams(scn.seed, (DOMAIN_AUX, 100 + idx), range(n)),
                    substreams(scn.seed, (DOMAIN_AUX, 200 + idx), range(n)))
        for r, (rng, rng2) in enumerate(pairs):
            path = renewal.sample_path(law, horizon, renewal.STATIONARY, rng)
            rev[r] = renewal.count_increment(path, horizon - s, horizon)
            path2 = renewal.sample_path(law, s, renewal.STATIONARY, rng2)
            fwd[r] = renewal.count(path2, s)
        d, p = ks_two_sample(rev, fwd)
        records.append(TestRecord(horizon, s, TIME_REVERSAL, d, 0.0, p, None,
                                  p > scn.significance))


def _run_self_similarity(scn, t, samples, arg, records, references):
    """Check the limit law's Hurst scaling between the smallest and largest
    grid points using independent reference batches."""
    spec = scn.spec
    if len(scn.u_grid) < 2:
        return
    u_lo, u_hi = scn.u_grid[0], scn.u_grid[-1]
    n = scn.replicates
    regime = REGIMES[spec.regime]
    hurst = regime.hurst(spec)
    a = _limit_reference_sample(spec, u_lo, n, scn.seed + 1, scn)
    b = _limit_reference_sample(spec, u_hi, n, scn.seed + 2, scn)
    if a is None or b is None:
        a = regime.exact(spec, u_lo).sample(
            substream(scn.seed, DOMAIN_AUX, 301), n)
        b = regime.exact(spec, u_hi).sample(
            substream(scn.seed, DOMAIN_AUX, 302), n)
    d, p = ks_two_sample(a * (u_hi / u_lo) ** hurst, b)
    records.append(TestRecord(t, u_hi, SELF_SIMILARITY, d, hurst, p, None,
                              p > scn.significance))


def _run_stationarity_logtime(scn, t, samples, arg, records, references):
    a = scn.spec.alpha
    n = scn.replicates
    v = 0.5                                  # log-time shift for the lag pair
    lags = scn.logtime_lags
    u_pts = sorted({1.0} | {math.exp(s) for s in lags}
                   | {math.exp(v)} | {math.exp(v + s) for s in lags})
    ys = np.array([limits.inverse_frac_integral(
        a, a, u_pts, scn.reference_mesh_d, rng)
        for rng in substreams(scn.seed, (DOMAIN_AUX, 400), range(n))])
    col = {u: ys[:, j] for j, u in enumerate(u_pts)}
    for s in lags:
        ref = float(limits.stationary_covariance(a, s))
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
    dev = np.empty(n)
    for r, rng in enumerate(substreams(scn.seed, (DOMAIN_AUX, 500), range(n))):
        dev[r] = abs(renewal.count_at(law, t, renewal.ZERO_DELAYED, rng)
                     - t / law.mean)
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
    admits: Callable        # (spec) -> bool, checked by Scenario


def _hurst_zero(spec):
    # a self-similar limit with H = 0 is stationary in log time (Lamperti);
    # in the table only D4 with beta = alpha, the inverse-subordinator
    # functional the runner simulates, has H = 0
    hurst = REGIMES[spec.regime].hurst
    return hurst is not None and hurst(spec) == 0.0


PLANS = {
    KS_MARGINAL: Plan(_run_ks_marginal, True, True, lambda spec: True),
    MOMENTS: Plan(_run_moments, True, True, lambda spec: True),
    # i.i.d. copies: only the no-scaling limits
    JOINT_PAIRWISE_INDEPENDENCE: Plan(
        _run_pairwise_independence, True, True,
        lambda spec: REGIMES[spec.regime].g is None),
    # stationary renewal paths need a finite mean
    TIME_REVERSAL: Plan(_run_time_reversal, False, False,
                        lambda spec: math.isfinite(spec.law.mean)),
    SELF_SIMILARITY: Plan(
        _run_self_similarity, False, False,
        lambda spec: REGIMES[spec.regime].hurst is not None),
    STATIONARITY_LOGTIME: Plan(_run_stationarity_logtime, False, False,
                               _hurst_zero),
    # the stable limit of the counting process: finite-mean scaled regimes
    MEAN_ABS_N: Plan(_run_mean_abs_n, True, False,
                     lambda spec: (REGIMES[spec.regime].g is not None
                                   and math.isfinite(spec.law.mean))),
}
PLAN_NAMES = tuple(PLANS)


def run_scenario(s: Scenario) -> TestReport:
    """Run every plan of the scenario on each rung of the t-ladder."""
    report = TestReport(scenario=s.echo(), seed=s.seed)
    plans = [(PLANS[name], arg)
             for name, _, arg in (p.partition(":") for p in s.plans)]
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
