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
import multiprocessing
import os
import sys
from dataclasses import dataclass, field, asdict
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import limits, renewal, shotnoise
from .renewal import ResourceCapExceeded
from .shotnoise import REGIMES, LimitSpec, InadmissibleSpec
from .stable import abs_moment
from .streams import DOMAIN_AUX, DOMAIN_REPLICATE, substream

KS_MARGINAL = "KS_MARGINAL"
MOMENTS = "MOMENTS"
JOINT_PAIRWISE_INDEPENDENCE = "JOINT_PAIRWISE_INDEPENDENCE"
TIME_REVERSAL = "TIME_REVERSAL"
SELF_SIMILARITY = "SELF_SIMILARITY"
STATIONARITY_LOGTIME = "STATIONARITY_LOGTIME"
MEAN_ABS_N = "MEAN_ABS_N"


# ---------------------------------------------------------------------------
# elementary tests
# ---------------------------------------------------------------------------

def ks_two_sample(x, y):
    """Smirnov's sup-distance of the two ECDFs and its asymptotic p-value,
    computed as scipy.stats.ks_2samp(x, y, method="asymp") computes them:
    the exact Kolmogorov-Smirnov survival function at the effective size
    round(nm/(n+m)), clipped to [0, 1]."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n, m = len(x), len(y)
    if n == 0 or m == 0:
        raise ValueError("samples must be nonempty")
    both = np.concatenate([x, y])
    if np.isnan(both).any():           # as scipy's nan_policy="propagate"
        return math.nan, math.nan
    diff = (np.searchsorted(x, both, side="right") / n
            - np.searchsorted(y, both, side="right") / m)
    d = float(max(diff.max(), -diff.min()))
    # imported here: scipy.stats doubles the start-up time of a run that
    # needs no two-sample test
    from scipy.stats import kstwo
    p = kstwo.sf(d, np.round(n * m / (n + m)))
    return d, float(np.clip(p, 0.0, 1.0))


def ks_one_sample(x, cdf):
    """Sup-distance of the ECDF against an exact CDF callable."""
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("sample must be nonempty")
    c = np.asarray(cdf(x), dtype=float)
    i = np.arange(n)
    d = max(np.max(c - i / n), np.max((i + 1) / n - c))
    # imported here: under scipy 1.17 scipy.special is three quarters of
    # the start-up time, and simulate and path-dump never evaluate it
    from scipy.special import kolmogorov
    p = float(kolmogorov(d * math.sqrt(n)))
    return float(d), p


def ks_one_sample_normal(x, mean, variance):
    if variance <= 0:
        raise ValueError("variance must be positive")
    from scipy.special import ndtr      # as in ks_one_sample
    sd = math.sqrt(variance)
    return ks_one_sample(x, lambda q: ndtr((q - mean) / sd))


def _sectioned_z(v, reference):
    """z-score of the mean of v against a reference, with the standard
    error estimated by sectioning every row of v into 20 consecutive
    batches (batch means; robust to heavy tails).  With n = 20 q + r
    rows, the first r batches hold q + 1 rows and the other 20 - r hold
    q, as np.array_split(v, 20) cuts them; each run of equal batches is
    one reshape, whose row means are the batch means bit for bit."""
    nb = 20
    if len(v) < nb:
        raise ValueError("sample too small for sectioning")
    q, r = divmod(len(v), nb)
    cut = r * (q + 1)
    batches = np.concatenate([v[:cut].reshape(r, q + 1).mean(axis=1),
                              v[cut:].reshape(nb - r, q).mean(axis=1)])
    gap = batches.mean() - reference
    se = batches.std(ddof=1) / math.sqrt(nb)
    if se == 0.0:                   # a sure miss, on the side of the mean
        return math.copysign(math.inf, gap) if gap else 0.0
    return float(gap / se)


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


def _permutation_test(observed, permuted):
    """The observed statistic and its permutation p-value
    (1 + hits)/(n_perm + 1), hits counting the n_perm permuted statistics
    that are >= it."""
    hits = np.count_nonzero(np.asarray(permuted) >= observed)
    return float(observed), float((1.0 + hits) / (len(permuted) + 1.0))


def energy_distance_test(x, y, n_perm=199, seed=0, max_n=2000):
    """Two-sample energy-distance test for multivariate samples with a
    permutation p-value.  Samples larger than max_n per group are
    deterministically subsampled to keep the distance matrix tractable.

    The distance matrix is summed column by column, which for fewer than
    8 columns is the sequential sum that .sum(-1) over an (N, N, k) array
    of squared differences does, bit for bit.  The statistic of a
    grouping with indicator z of group x needs only d z: the observed one
    comes from one matrix-vector product, the n_perm permuted ones from
    one product of their indicator matrix with d.  A permuted statistic
    computed so can differ in its last bits from one computed by its own
    matrix-vector product, so p can move only on a near-tie with the
    observed statistic."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    rng = substream(seed, DOMAIN_AUX, 7001)
    if len(x) > max_n:
        x = x[rng.choice(len(x), max_n, replace=False)]
    if len(y) > max_n:
        y = y[rng.choice(len(y), max_n, replace=False)]
    n, m = len(x), len(y)
    pooled = np.vstack([x, y])
    sq = np.zeros((n + m, n + m))
    diff = np.empty_like(sq)
    for col in pooled.T:
        np.subtract.outer(col, col, out=diff)
        sq += np.square(diff, out=diff)
    d = np.sqrt(sq, out=sq)
    total = d.sum()

    def estat(s_xx, s_x):
        # s_x = sum of d z, s_xx = z . d z: the block sums of d
        s_xy = s_x - s_xx
        s_yy = total - 2.0 * s_xy - s_xx
        return 2.0 * s_xy / (n * m) - s_xx / (n * n) - s_yy / (m * m)

    z = np.zeros(n + m)
    z[:n] = 1.0
    dz = d @ z
    observed = estat(z @ dz, dz.sum())
    zs = np.zeros((n_perm, n + m))
    for row in zs:
        row[rng.permutation(n + m)[:n]] = 1.0
    dzs = zs @ d
    return _permutation_test(
        observed, estat(np.einsum("ij,ij->i", zs, dzs), dzs.sum(axis=1)))


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
    from scipy import stats     # imported here, as in ks_two_sample
    u = stats.rankdata(x) / (n + 1.0)
    v = stats.rankdata(y) / (n + 1.0)
    # the indicators 1{u_i <= q_a} and 1{v_i <= q_b}: the copula at
    # (q_a, q_b) of a shuffle of v's rows counts their products, one matrix
    # product (exact in float64: integer sums far below 2^53)
    cu = (u[:, None] <= qs[None, :]).T.astype(float)
    cv = (v[:, None] <= qs[None, :]).astype(float)
    prod = qs[:, None] * qs[None, :]

    def cop_dist(rows):
        return np.abs((cu @ cv[rows]) / n - prod).max()

    # rng.permutation(n) draws the same shuffle as rng.permutation(v)
    return _permutation_test(cop_dist(np.arange(n)),
                             [cop_dist(rng.permutation(n))
                              for _ in range(n_perm)])


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
        if not 0 < self.significance < 1:
            raise ValueError("significance must lie in (0, 1)")
        if not 0 < self.max_shots < math.inf:
            raise ValueError("max_shots must be positive and finite")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        if not (self.x_star_truncation is None
                or 0 < self.x_star_truncation < math.inf):
            raise ValueError("x_star_truncation must be positive and finite")
        if not 0 < self.reference_mesh_d < math.inf:
            raise ValueError("reference_mesh_d must be positive and finite")
        if self.replicates < 100:
            raise ValueError("need at least 100 replicates")
        # stored as tuples of floats, as laws store their parameters: the
        # plans index them and the reports echo them
        for name in ("t_ladder", "u_grid"):
            grid = shotnoise.check_grid(getattr(self, name),
                                        name.replace("_", "-"))
            object.__setattr__(self, name, tuple(grid.tolist()))
        # a rung without g(t) (A2's c(t) needs t >= e) is refused before paths
        g = REGIMES[self.spec.regime].g
        for t in self.t_ladder if g else ():
            try:
                g(self.spec, t)
            except (ValueError, ArithmeticError) as exc:
                raise InadmissibleSpec(f"no g(t) at t = {t}: {exc}") from None
        names = [p.partition(":")[0] for p in self.plans]
        for i, p in enumerate(self.plans):
            plan, arg = _parse_plan(p)
            if names[i] in names[:i]:
                # each (t, u, test) has one record
                raise InadmissibleSpec(f"plan {names[i]} is named twice")
            why = next((w for ok, w in plan.admits if not ok(self, arg)), None)
            if why is not None:
                raise InadmissibleSpec(f"plan {p!r} does not apply to this "
                                       f"{self.spec.regime} spec: it "
                                       + why.format(s=self, k=arg))

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
            # a record's fields are numbers, strings and None: its own
            # attribute dict, not asdict's deep copy
            "records": [vars(r) for r in self.records],
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
        """One row t,u,prob,quantile per plotted quantile, as csv.writer
        writes them (no field needs quoting), one string per (t, u)."""
        fileobj.write("t,u,prob,quantile\n")
        probs = [f",{round(p, 2)!r},"
                 for p in np.linspace(0.0, 1.0, 101).tolist()]
        for (t, u), q in sorted(self.plot_data.items()):
            tu = f"{t},{u}"
            fileobj.write("".join(f"{tu}{p}{qv!r}\n"
                                  for p, qv in zip(probs, q.tolist())))


# ---------------------------------------------------------------------------
# simulation of the scaled statistic
# ---------------------------------------------------------------------------

# The fork-join's cost model.  A map's expected in-process seconds are
# rows * _ROW_S + epochs * _EPOCH_S + jumps * _JUMP_S: renewal-path
# epochs (engine, MEAN_ABS_N counts, X* paths) and D4 jump epochs (each a
# Kanter transform) have their own costs, and every row its own stream
# and Python calls.  With threads - 1 children a map saves (1 - 1/s) of
# its seconds W, s the workers' speed-up, and pays the fork-join's fixed
# cost P, so it forks from W = P / (1 - 1/s).  Measured on a shared
# 2-core VM, three timings of the ten maps of the benchmark's workloads
# (see README, Threads): the three costs fitted by least squares on the
# relative error of the in-process times; P = 10.5 ms, a fork-join of one
# child with a no-op map (median of the timings' medians of 15); s = 1.7,
# the median of W / (fork-join time - P) over the maps above 50 ms.
_ROW_S, _EPOCH_S, _JUMP_S = 27.5e-6, 30e-9, 250e-9
_FORK_MIN_S = 10.5e-3 / (1.0 - 1.0 / 1.7)
# fork is the start method whose cost the rule measures; elsewhere (spawn
# took 1.7 s per pool) every map runs in-process
_FORKS = sys.platform.startswith("linux")


def _work_share(fn, rows, send):
    """A child's share: fn(rows), or the exception it raised, sent back."""
    try:
        result = True, fn(rows)
    except BaseException as exc:        # re-raised in the parent
        result = False, exc
    send.send(result)


def _share_of(child, got):
    """The rows a child sent over `got`; its exception, re-raised; a
    RuntimeError naming its exit code when it died without a result."""
    try:
        ok, value = got.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"pool worker exited with code {child.exitcode} "
                           "before sending its rows") from None
    if not ok:
        raise value
    return value


class _Pool:
    """The row maps of one run.  Every loop of the run whose rows each
    draw from their own streams (so any split of the rows gives the same
    bits) maps its rows through `rows`, with its expected work.
    `ladder` is the run's t-ladder: a matrix drawn at one rung draws the
    later rungs too.  `kept` holds what the run draws once: the later
    rungs' matrices, which their own rung's call pops, and by plan name
    the draws that serve every rung (KS references, MEAN_ABS_N counts)."""

    def __init__(self, threads: int, ladder=()):
        self.threads = threads
        self.ladder = tuple(ladder)
        self.kept = {}

    def workers(self, n: int) -> int:
        """The processes a map of n rows that repays a fork runs on:
        min(threads, CPU count, n) where the pool forks, else 1."""
        return min(self.threads, os.cpu_count() or 1, n) if _FORKS else 1

    def rows(self, fn, n, epochs=0.0, jumps=0.0):
        """fn's rows for [0, n), in order, fn taking a range of rows.  A
        map whose expected seconds (see _FORK_MIN_S) repay a fork is cut
        into workers(n) consecutive shares: the main process computes
        the first, one forked child each of the others, sending its rows
        back over a pipe.  Any other map is one call fn(range(n)).  No
        child outlives the map: each is joined, and killed first when the
        map raises."""
        workers = self.workers(n)
        if (workers <= 1 or n * _ROW_S + epochs * _EPOCH_S + jumps * _JUMP_S
                < _FORK_MIN_S):
            return fn(range(n))
        cut = [n * k // workers for k in range(workers + 1)]
        ctx = multiprocessing.get_context("fork")
        children, done = [], False
        try:
            for a, b in zip(cut[1:], cut[2:]):
                got, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_work_share,
                                    args=(fn, range(a, b), send))
                child.start()
                children.append((child, got))
                # the child holds the only write end: EOF when it dies
                send.close()
            shares = [fn(range(cut[1]))]
            shares += [_share_of(child, got) for child, got in children]
            done = True
        finally:
            for child, got in children:
                if not done:
                    child.kill()
                child.join()
                got.close()
        return np.concatenate(shares)


def _simulate_chunk(spec, u_grid, ts, seed, rows):
    """The rows `rows` of the matrix of every rung t of ts, as
    (len(rows), len(ts), len(u_grid)): each replicate's path from its own
    substream, drawn once to u_max * ts[-1] (the path to u_max * t is its
    prefix), and one call of the regime's statistic per buffer of paths
    for every rung at once, so shot_noise sees every tau = u t of the
    ladder in one call; the statistic's rung constants are built once per
    share."""
    statistic = REGIMES[spec.regime].statistic(spec, u_grid, ts)
    return np.concatenate([
        statistic(paths)
        for paths in renewal.epoch_batches(
            spec.law, max(u_grid) * ts[-1], renewal.ZERO_DELAYED, seed,
            (DOMAIN_REPLICATE,), rows)])


def simulate_scaled_matrix(spec: LimitSpec, u_grid, t: float, n: int,
                           seed: int, threads: int = 1,
                           max_shots: float = 1e8, *,
                           pool: _Pool | None = None) -> np.ndarray:
    """(n, len(u_grid)) matrix of the scaled statistic, one zero-delayed
    path per replicate shared across the u-grid.  The rows map over
    `pool`, the pool of a run (run_scenario passes its own), else over
    a pool of `threads` for this call, the shot cap's estimate counting
    their epochs (see _Pool.rows).  The paths go on to the last rung of
    the pool's ladder, under the shot cap there: this call computes the
    matrices of the later rungs too and leaves them in the pool for their
    own calls.  n < 1 and a bad grid (see shotnoise.check_grid) are
    refused before the shot cap and the pool."""
    if n < 1:
        raise ValueError("need at least one replicate")
    shotnoise.check_grid((t,), "t")
    u_grid = tuple(shotnoise.check_grid(u_grid, "u-grid").tolist())
    if pool is None:
        pool = _Pool(threads)
    key = (t, spec, u_grid, n, seed)
    if key in pool.kept:
        return pool.kept.pop(key)
    ts = (t,) + tuple(r for r in pool.ladder if r > t)
    shots = renewal.check_shot_cap(spec.law, max(u_grid) * ts[-1], n,
                                   max_shots)
    m = pool.rows(partial(_simulate_chunk, spec, u_grid, ts, seed), n, shots)
    pool.kept.update(((r,) + key[1:], np.ascontiguousarray(m[:, i]))
                     for i, r in enumerate(ts[1:], 1))
    return np.ascontiguousarray(m[:, 0])


# ---------------------------------------------------------------------------
# plan runners: (scenario, t, samples or None, k or None, records, pool)
# ---------------------------------------------------------------------------

def _record(scn: Scenario, t, u, test, statistic, reference, p=None, z=None):
    """The record of one test, passed when p > the scenario's significance
    level for a test with a p-value and when |z| < 3 for one without."""
    passed = p > scn.significance if p is not None else abs(z) < 3.0
    return TestRecord(t, u, test, statistic, reference, p, z, bool(passed))


def _limit_reference_sample(scn: Scenario, pool):
    """KS_MARGINAL's (replicates, len(u_grid)) draws of the limit law,
    column j of Y(u_j), from the streams (seed, *shotnoise.REFERENCE_KEY,
    ...); `shotnoise.Regime` says which rows are joint draws."""
    return REGIMES[scn.spec.regime].reference(scn, pool.rows)


def _run_ks_marginal(scn, t, samples, arg, records, pool):
    spec = scn.spec
    cdfs = [REGIMES[spec.regime].exact(spec, u) for u in scn.u_grid]
    if any(cdf is None for cdf in cdfs) and KS_MARGINAL not in pool.kept:
        # one draw of the whole grid serves every rung
        pool.kept[KS_MARGINAL] = _limit_reference_sample(scn, pool)
    for j, (u, cdf) in enumerate(zip(scn.u_grid, cdfs)):
        col = samples[:, j]
        if cdf is not None:
            d, p = ks_one_sample(col, cdf)
        else:
            d, p = ks_two_sample(col, pool.kept[KS_MARGINAL][:, j])
        records.append(_record(scn, t, u, KS_MARGINAL, d, 0.0, p=p))


def _run_moments(scn, t, samples, arg, records, pool):
    moment = REGIMES[scn.spec.regime].moment
    for j, u in enumerate(scn.u_grid):
        for k in range(1, arg + 1):
            ref = float(moment(scn.spec, u, k))
            z = moment_test(samples[:, j], k, ref)
            est = float(np.mean(samples[:, j] ** k))
            records.append(_record(scn, t, u, f"{MOMENTS}:k={k}", est, ref,
                                   z=z))


def _run_pairwise_independence(scn, t, samples, arg, records, pool):
    n = len(samples)
    for i in range(len(scn.u_grid)):
        for j in range(i + 1, len(scn.u_grid)):
            a, b = samples[:, i], samples[:, j]
            rho = float(np.corrcoef(a, b)[0, 1])
            records.append(_record(
                scn, t, scn.u_grid[j], f"CORRELATION:u={scn.u_grid[i]}", rho,
                0.0, z=rho * math.sqrt(n)))
            d, p = copula_independence_test(a, b, seed=scn.seed)
            records.append(_record(
                scn, t, scn.u_grid[j], f"COPULA_PRODUCT:u={scn.u_grid[i]}", d,
                0.0, p=p))


# (s, horizon): N(horizon) - N(horizon - s) against N(s)
_REVERSAL_PAIRS = ((3.0, 50.0), (5.0, 50.0), (10.0, 50.0))


def _run_time_reversal(scn, t, samples, arg, records, pool):
    law = scn.spec.law
    n = scn.replicates
    # every loop of the plan draws n paths to at most this horizon
    renewal.check_shot_cap(law, max(h for _, h in _REVERSAL_PAIRS), n,
                           scn.max_shots)
    for idx, (s, horizon) in enumerate(_REVERSAL_PAIRS):
        # the arrivals in [horizon - s, horizon]: an epoch < horizon - s is
        # one <= the float just below it
        before, end = renewal.counts_at(
            law, (np.nextafter(horizon - s, -np.inf), horizon),
            renewal.STATIONARY, scn.seed, (DOMAIN_AUX, 100 + idx),
            range(n)).T
        fwd = renewal.counts_at(law, (s,), renewal.STATIONARY, scn.seed,
                                (DOMAIN_AUX, 200 + idx), range(n))[:, 0]
        d, p = ks_two_sample(end - before, fwd)
        records.append(_record(scn, horizon, s, TIME_REVERSAL, d, 0.0, p=p))


def _run_self_similarity(scn, t, samples, arg, records, pool):
    """KS of (u_hi/u_lo)^H Y_t(u_lo) on the rung's rows [0, n/2) against
    Y_t(u_hi) on rows [n/2, n); blind to a scale common to every u."""
    u_lo, u_hi = scn.u_grid[0], scn.u_grid[-1]
    hurst = REGIMES[scn.spec.regime].hurst(scn.spec)
    half = len(samples) // 2
    d, p = ks_two_sample(samples[:half, 0] * (u_hi / u_lo) ** hurst,
                         samples[half:, -1])
    records.append(_record(scn, t, u_hi, SELF_SIMILARITY, d, hurst, p=p))


def _run_stationarity_logtime(scn, t, samples, arg, records, pool):
    """The mean of (Y_t(u_i) - 1)(Y_t(u_j) - 1) on the rung's matrix
    against R(ln(u_j/u_i)), for each pair u_i <= u_j of the grid: pairs
    of one lag at different u test stationarity in log time."""
    centered = samples - 1.0
    for i, u_i in enumerate(scn.u_grid):
        for j in range(i, len(scn.u_grid)):
            a, b = centered[:, i], centered[:, j]
            ref = float(limits.stationary_covariance(
                scn.spec.alpha, math.log(scn.u_grid[j] / u_i)))
            records.append(_record(
                scn, t, scn.u_grid[j], f"{STATIONARITY_LOGTIME}:u={u_i}",
                float(np.mean(a * b)), ref, z=covariance_z(a, b, ref)))


def _run_mean_abs_n(scn, t, samples, arg, records, pool):
    spec = scn.spec
    law = spec.law
    n = scn.replicates
    if MEAN_ABS_N not in pool.kept:
        # the counts of every rung from one path per stream to the last t
        shots = renewal.check_shot_cap(law, scn.t_ladder[-1], n,
                                       scn.max_shots)
        pool.kept[MEAN_ABS_N] = pool.rows(partial(
            renewal.counts_at, law, scn.t_ladder, renewal.ZERO_DELAYED,
            scn.seed, (DOMAIN_AUX, 500)), n, shots)
    g = shotnoise.scaling_g(spec, t)
    dev = np.abs(pool.kept[MEAN_ABS_N][:, scn.t_ladder.index(t)]
                 - t / law.mean)
    est = dev.mean() / g
    ref = abs_moment(spec.alpha, 1.0)
    z = moment_test(dev / g, 1, ref)
    # passed on a 5% relative error, not by _record: there is no p-value
    records.append(TestRecord(t, 1.0, MEAN_ABS_N, float(est), float(ref),
                              None, z, bool(abs(est / ref - 1.0) < 0.05)))


# ---------------------------------------------------------------------------
# plan registry
# ---------------------------------------------------------------------------

class Plan(NamedTuple):
    runner: Callable        # (scenario, t, samples, arg, records, pool)
    every_rung: bool        # False: run on the first rung of the t-ladder only
    needs_samples: bool     # reads the simulated matrix of the rung
    admits: tuple           # hypotheses: ((scenario, k) -> bool, message)
    default_k: int | None = None  # k of a plain NAME; None: NAME:k refused


def _closed_form_moments(scn, k):
    # every order the runner tests must have a finite reference at every u
    # of the grid (a ValueError of Regime.moment says it has none; a large
    # order or u overflows a float).  For D4 this evaluates
    # limits.moments_inverse_case, so D4 MOMENTS admission loads
    # scipy.special: math.gamma differs from scipy.special.gamma in the
    # last bits, so a probe on it would not vouch for the reference
    moment = REGIMES[scn.spec.regime].moment
    try:
        return all(math.isfinite(moment(scn.spec, u, order))
                   for u in scn.u_grid for order in range(1, k + 1))
    except (ValueError, OverflowError):
        return False


_TWO_POINTS = (lambda scn, _: len(scn.u_grid) >= 2,
               "compares grid points and needs at least 2")
# stationary renewal paths need a finite mean
_FINITE_MEAN = (lambda scn, _: math.isfinite(scn.spec.law.mean),
                "needs a finite-mean law")
_SELF_SIMILAR = (lambda scn, _: REGIMES[scn.spec.regime].hurst is not None,
                 "needs a self-similar limit, which has a Hurst index")

PLANS = {
    KS_MARGINAL: Plan(_run_ks_marginal, True, True, ()),
    MOMENTS: Plan(_run_moments, True, True, (
        (_closed_form_moments, "needs a finite closed-form moment of each "
                               "order up to {k} at each u of {s.u_grid}"),),
        default_k=2),
    JOINT_PAIRWISE_INDEPENDENCE: Plan(_run_pairwise_independence, True, True, (
        (lambda scn, _: REGIMES[scn.spec.regime].g is None,
         "needs a no-scaling limit, whose values are i.i.d. copies"),
        _TWO_POINTS)),
    TIME_REVERSAL: Plan(_run_time_reversal, False, False, (_FINITE_MEAN,)),
    SELF_SIMILARITY: Plan(_run_self_similarity, False, True,
                          (_SELF_SIMILAR, _TWO_POINTS)),
    # a self-similar limit with H = 0 is stationary in log time (Lamperti);
    # in the table only D4 with beta = alpha has H = 0
    STATIONARITY_LOGTIME: Plan(_run_stationarity_logtime, True, True, (
        _SELF_SIMILAR,
        (lambda scn, _: REGIMES[scn.spec.regime].hurst(scn.spec) == 0.0,
         "needs Hurst index 0 (D4 with beta = alpha)"), _TWO_POINTS)),
    # the stable limit of the counting process: finite-mean scaled regimes
    MEAN_ABS_N: Plan(_run_mean_abs_n, True, False, (
        (lambda scn, _: REGIMES[scn.spec.regime].g is not None,
         "needs a scaled limit"), _FINITE_MEAN)),
}


def _parse_plan(p):
    """The Plan of a plan string NAME or NAME:k, and k (the plan's
    default_k for a plain NAME)."""
    name, colon, arg = p.partition(":")
    plan = PLANS.get(name)
    if plan is None:                    # a config error, not a hypothesis
        raise ValueError(f"unknown test plan {p!r}; the plans are "
                         + ", ".join(PLANS))
    if not colon:
        return plan, plan.default_k
    if plan.default_k is None:
        raise InadmissibleSpec(f"plan {p!r}: {name} takes no argument")
    if not (arg.isdecimal() and int(arg) >= 1):
        raise InadmissibleSpec(f"plan {p!r}: need an integer k >= 1")
    return plan, int(arg)


def run_scenario(s: Scenario) -> TestReport:
    """Run every plan of the scenario on each rung of the t-ladder, with
    one pool of s.threads for the whole run."""
    report = TestReport(scenario=s.echo(), seed=s.seed)
    plans = [_parse_plan(p) for p in s.plans]
    needs_samples = any(plan.needs_samples for plan, _ in plans)
    pool = _Pool(s.threads, s.t_ladder)
    for t in s.t_ladder:
        samples = None
        if needs_samples:
            samples = simulate_scaled_matrix(s.spec, s.u_grid, t,
                                             s.replicates, s.seed, s.threads,
                                             s.max_shots, pool=pool)
            quantiles = np.quantile(samples, np.linspace(0.0, 1.0, 101),
                                    axis=0)
            for u, q in zip(s.u_grid, quantiles.T):
                report.plot_data[(t, u)] = q
        for plan, arg in plans:
            if plan.every_rung or t == s.t_ladder[0]:
                plan.runner(s, t, samples, arg, report.records, pool)
    return report
