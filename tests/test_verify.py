"""Statistical machinery and the scenario runner."""

import dataclasses
import io
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from renewalshot.laws import (Constant, ExpDecay, Exponential, Gamma, Pareto,
                              ParetoTailMatch, PowerDecay)
from renewalshot.renewal import STATIONARY, ZERO_DELAYED, sample_path
from renewalshot.shotnoise import (D4, InadmissibleSpec, LimitSpec,
                                   scaled_statistic)
from renewalshot import limits, renewal, shotnoise, verify
from renewalshot.streams import (DOMAIN_AUX, DOMAIN_REFERENCE,
                                 DOMAIN_REPLICATE, substream)
from renewalshot.verify import (ResourceCapExceeded, Scenario,
                                copula_independence_test, covariance_z,
                                energy_distance_test, ks_one_sample_normal,
                                ks_two_sample, moment_test, run_scenario,
                                simulate_scaled_matrix)


def test_ks_two_sample_enumerated():
    d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d == 0.0 and p == pytest.approx(1.0)
    d, _ = ks_two_sample([0.0], [1.0])
    assert d == 1.0
    d, _ = ks_two_sample([1, 2, 3], [1.5, 2.5, 3.5])
    assert d == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        ks_two_sample([], [1.0])


@pytest.mark.parametrize("n, m, ties", [
    (1, 1, False), (1, 9, False), (9, 1, True), (7, 3, True), (60, 45, True),
    (400, 250, False), (2000, 2000, False), (2000, 1999, True)])
def test_ks_two_sample_is_scipys_asymptotic_test(n, m, ties):
    # statistic and p, bit for bit, as scipy.stats.ks_2samp computes them
    from scipy import stats
    rng = substream(41, 3, 4, n, m)
    x = rng.normal(0.0, 1.0, n)
    y = rng.normal(0.1, 1.0, m)
    if ties:
        x, y = np.round(x, 1), np.round(y, 1)
    for a, b in ((x, y), (y, x), (x, np.concatenate([y, [np.nan]]))):
        res = stats.ks_2samp(a, b, method="asymp")
        want = np.array([res.statistic, res.pvalue])
        assert np.array(ks_two_sample(a, b)).tobytes() == want.tobytes()


def test_ks_one_sample_normal_geometry():
    # exact quantiles at (i - 0.5)/n leave sup-distance exactly 0.5/n
    from scipy.special import ndtri
    n = 40
    x = ndtri((np.arange(n) + 0.5) / n)
    d, p = ks_one_sample_normal(x, 0.0, 1.0)
    assert d == pytest.approx(0.5 / n, rel=1e-9)
    with pytest.raises(ValueError):
        ks_one_sample_normal(x, 0.0, 0.0)


def test_moment_test_basics():
    assert moment_test(np.full(400, 2.0), 2, 4.0) == 0.0
    x = substream(41, 3, 0).exponential(1.0, 100000)
    assert abs(moment_test(x, 2, 2.0)) < 3
    bad = np.array([1.0, np.inf] * 200)
    assert moment_test(bad, 1, 1.0) == math.inf
    # zero spread: a sure miss keeps the sign of the mean's error (a mean
    # below the reference read +inf)
    assert moment_test(np.full(100, 1.0), 1, 2.0) == -math.inf
    assert moment_test(np.full(100, 1.0), 1, 0.5) == math.inf
    with pytest.raises(ValueError):
        moment_test(x, 0, 1.0)


def test_covariance_z():
    rng = substream(41, 3, 1)
    a = rng.normal(0, 1, 40000)
    b = 0.5 * a + math.sqrt(0.75) * rng.normal(0, 1, 40000)
    assert abs(covariance_z(a, b, 0.5)) < 3
    assert abs(covariance_z(a, b, 0.0)) > 5
    ones = np.ones(100)
    assert covariance_z(ones, -ones, 0.0) == -math.inf
    assert covariance_z(ones, ones, 0.0) == math.inf
    assert covariance_z(ones, ones, 1.0) == 0.0


def test_energy_distance_detects_and_calibrates():
    rng = substream(41, 3, 2)
    x = rng.normal(0, 1, (1500, 2))
    y = rng.normal(0, 1, (1500, 2))
    _, p_null = energy_distance_test(x, y, seed=1)
    assert p_null > 0.01
    _, p_alt = energy_distance_test(x, y + 0.4, seed=1)
    assert p_alt <= 0.01


def _energy_per_permutation(x, y, n_perm=199, seed=0, max_n=2000):
    """The oracle: energy_distance_test computed as it was, from the
    (N, N, k) squared differences summed by .sum(-1) and one
    matrix-vector product per grouping."""
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
        z = np.zeros(n + m)
        z[idx_x] = 1.0
        dz = d @ z
        s_xx = z @ dz
        s_xy = dz.sum() - s_xx
        s_yy = total - 2.0 * s_xy - s_xx
        return 2.0 * s_xy / (n * m) - s_xx / (n * n) - s_yy / (m * m)

    obs = estat(np.arange(n))
    hits = sum(estat(rng.permutation(n + m)[:n]) >= obs
               for _ in range(n_perm))
    return float(obs), float((1.0 + hits) / (n_perm + 1.0))


@pytest.mark.parametrize("k, n, m, shift, ties, max_n", [
    (1, 60, 45, 0.0, False, 2000),
    (2, 80, 130, 0.1, True, 2000),         # ties: values rounded to 0.1
    (3, 150, 90, 0.0, False, 100),         # x subsampled
    (2, 300, 260, 0.3, True, 200),         # both subsampled
    (3, 40, 40, 1.0, True, 2000),
])
def test_energy_test_equals_its_per_permutation_form(k, n, m, shift, ties,
                                                     max_n):
    rng = substream(47, 3, k)
    x = rng.normal(0.0, 1.0, (n, k))
    y = rng.normal(shift, 1.0, (m, k))
    if ties:
        x, y = np.round(x, 1), np.round(y, 1)
    stat, p = energy_distance_test(x, y, seed=5, max_n=max_n)
    want_stat, want_p = _energy_per_permutation(x, y, seed=5, max_n=max_n)
    assert stat.hex() == want_stat.hex() and p == want_p


def test_copula_independence():
    rng = substream(41, 3, 3)
    x = rng.normal(0, 1, 1500)
    y = rng.normal(0, 1, 1500)
    _, p_null = copula_independence_test(x, y, seed=1)
    assert p_null > 0.01
    _, p_dep = copula_independence_test(x, 0.6 * x + 0.8 * y, seed=1)
    assert p_dep <= 0.01


def _copula_cube(x, y, n_perm, seed, max_n, grid):
    """copula_independence_test with each copula as the mean of an
    (n, grid, grid) boolean cube of indicator products."""
    from scipy import stats
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
    hits = sum(cop_dist(u, rng.permutation(v)) >= obs for _ in range(n_perm))
    return float(obs), float((1.0 + hits) / (n_perm + 1.0))


@pytest.mark.parametrize("n, max_n, grid, ties", [
    (40, 2000, 20, True), (300, 2000, 20, False), (500, 350, 20, False),
    (200, 2000, 7, True)])
def test_copula_test_is_the_boolean_cube_form(n, max_n, grid, ties):
    rng = substream(41, 3, 5, n)
    x = rng.normal(0.0, 1.0, n)
    y = 0.3 * x + rng.normal(0.0, 1.0, n)
    if ties:
        x, y = np.round(x), np.round(y, 1)
    for seed in (1, 2):
        got = copula_independence_test(x, y, n_perm=49, seed=seed,
                                       max_n=max_n, grid=grid)
        assert got == _copula_cube(x, y, 49, seed, max_n, grid)


A1_SPEC = LimitSpec(Exponential(1.0), PowerDecay(0.25))
D4_SPEC = LimitSpec(Pareto(0.5, 1.0), PowerDecay(0.25))
DRI_SPEC = LimitSpec(Exponential(1.0), ExpDecay(1.0))
# D4 with beta = alpha: Hurst index 0
TAIL_MATCHED_SPEC = LimitSpec(Pareto(0.5, 1.0), ParetoTailMatch(0.5, 1.0, 1.0))
CENTERED_SPEC = LimitSpec(Exponential(1.0), PowerDecay(0.75))


def _a1_scenario(**kw):
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    base = dict(spec=spec, u_grid=(1.0,), t_ladder=(100.0,), replicates=300,
                seed=17, plans=("KS_MARGINAL",))
    base.update(kw)
    return Scenario(**base)


def test_scenario_validation():
    # too few replicates is a run setting out of range, not a violated
    # hypothesis
    with pytest.raises(ValueError, match="replicates") as err:
        _a1_scenario(replicates=50)
    assert not isinstance(err.value, InadmissibleSpec)
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(t_ladder=(100.0, 100.0))
    for ladder in ((), (0.0,), (-5.0, 10.0)):
        with pytest.raises(InadmissibleSpec, match="t-ladder"):
            _a1_scenario(t_ladder=ladder)
    with pytest.raises(InadmissibleSpec, match="t-ladder"):
        _a1_scenario(spec=D4_SPEC, t_ladder=(-5.0, 10.0))
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(u_grid=(2.0, 1.0))
    # an unknown plan name is a config error, as an unknown key is, not a
    # violated hypothesis
    with pytest.raises(ValueError, match="unknown test plan") as err:
        _a1_scenario(plans=("NO_SUCH_TEST",))
    assert not isinstance(err.value, InadmissibleSpec)
    # each refused plan names the hypothesis that fails
    with pytest.raises(InadmissibleSpec, match="no-scaling limit"):
        # pairwise independence only holds for the no-scaling limits
        _a1_scenario(u_grid=(1.0, 2.0),
                     plans=("JOINT_PAIRWISE_INDEPENDENCE",))
    with pytest.raises(InadmissibleSpec, match="Hurst index 0"):
        # log-time stationarity needs the beta = alpha D4 limit
        _a1_scenario(plans=("STATIONARITY_LOGTIME",))
    with pytest.raises(InadmissibleSpec, match="Hurst index 0"):
        _a1_scenario(spec=D4_SPEC, plans=("STATIONARITY_LOGTIME",))
    with pytest.raises(InadmissibleSpec, match="finite-mean law"):
        # MEAN_ABS_N needs a finite-mean scaled regime
        _a1_scenario(spec=D4_SPEC, plans=("MEAN_ABS_N",))
    with pytest.raises(InadmissibleSpec, match="scaled limit"):
        _a1_scenario(spec=DRI_SPEC, plans=("MEAN_ABS_N",))
    for plan in ("SELF_SIMILARITY", "STATIONARITY_LOGTIME"):
        with pytest.raises(InadmissibleSpec, match="self-similar limit"):
            # a stationary no-scaling limit has no Hurst index
            _a1_scenario(spec=DRI_SPEC, u_grid=(1.0, 4.0), plans=(plan,))
    with pytest.raises(InadmissibleSpec, match="finite-mean law"):
        # no stationary renewal process for an infinite-mean law
        _a1_scenario(spec=D4_SPEC, plans=("TIME_REVERSAL",))
    # plans that would test nothing: no moment order >= 1, an argument the
    # plan ignores, a comparison of grid points on a one-point grid
    for plan in ("MOMENTS:0", "MOMENTS:-2", "MOMENTS:1.5", "MOMENTS:",
                 "KS_MARGINAL:zzz", "TIME_REVERSAL:3"):
        with pytest.raises(InadmissibleSpec, match="argument|k >= 1"):
            _a1_scenario(plans=(plan,))
    # a moment order with no closed-form reference (X* has order 1 only;
    # a plain MOMENTS asks for orders 1 and 2)
    for plan in ("MOMENTS", "MOMENTS:2"):
        with pytest.raises(InadmissibleSpec, match=(
                r"does not apply to this NOSCALE_DRI spec: it needs a finite "
                r"closed-form moment of each order up to 2 at each u of "
                r"\(1\.0,\)")):
            _a1_scenario(spec=DRI_SPEC, plans=(plan,))
    for spec, plan in ((D4_SPEC, "SELF_SIMILARITY"),
                       (DRI_SPEC, "JOINT_PAIRWISE_INDEPENDENCE"),
                       (TAIL_MATCHED_SPEC, "STATIONARITY_LOGTIME")):
        with pytest.raises(InadmissibleSpec,
                           match="compares grid points and needs at least 2"):
            _a1_scenario(spec=spec, u_grid=(1.0,), plans=(plan,))
    _a1_scenario(spec=D4_SPEC, u_grid=(1.0, 2.0), plans=("SELF_SIMILARITY",))
    _a1_scenario(spec=DRI_SPEC, u_grid=(1.0, 2.0),
                 plans=("JOINT_PAIRWISE_INDEPENDENCE", "MOMENTS:1"))
    _a1_scenario(spec=DRI_SPEC, plans=("TIME_REVERSAL",))


@pytest.mark.parametrize("plans", [
    ("MOMENTS:2", "MOMENTS:4", "KS_MARGINAL", "KS_MARGINAL"),
    ("KS_MARGINAL", "KS_MARGINAL"), ("MOMENTS", "MOMENTS:4"),
    ("MOMENTS:2", "KS_MARGINAL", "MOMENTS:2")])
def test_plan_named_twice_is_refused(plans):
    # a repeated plan ran twice and wrote each of its records twice
    with pytest.raises(InadmissibleSpec, match="named twice"):
        _a1_scenario(u_grid=(1.0, 2.0), plans=plans)


def test_d4_moments_csv_has_plain_floats():
    # limits.moments_inverse_case and limits.stationary_covariance return
    # numpy.float64, whose repr is "np.float64(...)"
    for spec, plan, u_grid, records in (
            (D4_SPEC, "MOMENTS:2", (1.0,), 2),
            (TAIL_MATCHED_SPEC, "STATIONARITY_LOGTIME", (1.0, 2.0), 3)):
        rep = run_scenario(_a1_scenario(spec=spec, u_grid=u_grid,
                                        replicates=100, plans=(plan,)))
        buf = io.StringIO()
        rep.write_csv(buf)
        assert len(rep.records) == records and "np." not in buf.getvalue()


def test_ks_references_drawn_once_per_run(monkeypatch):
    # one KS draw serves every rung; A1 and D4 with beta = alpha have an
    # exact CDF and draw none; SELF_SIMILARITY and STATIONARITY_LOGTIME
    # read the matrix and draw nothing
    drawn = []
    inner = verify._limit_reference_sample

    def counted(scn, pool):
        drawn.append(scn.u_grid)
        return inner(scn, pool)

    monkeypatch.setattr(verify, "_limit_reference_sample", counted)
    for spec, plan, want, records in (
            (D4_SPEC, "SELF_SIMILARITY", [(1.0, 2.0)], 7),
            (A1_SPEC, "SELF_SIMILARITY", [], 7),
            (TAIL_MATCHED_SPEC, "STATIONARITY_LOGTIME", [], 15)):
        drawn.clear()
        scn = _a1_scenario(spec=spec, u_grid=(1.0, 2.0),
                           t_ladder=(50.0, 100.0, 200.0), replicates=100,
                           plans=("KS_MARGINAL", plan),
                           reference_mesh_d=1e-2)
        rep = run_scenario(scn)
        assert drawn == want and len(rep.records) == records, spec


@pytest.mark.parametrize("spec", [A1_SPEC, D4_SPEC], ids=["A1", "D4"])
def test_self_similarity_reads_the_engine(monkeypatch, spec):
    # the record reads the engine's matrix: reversed u columns fail it,
    # and a scale common to every column (the plan's blind spot) changes
    # no byte of it; the setting was fixed before any run
    scn = Scenario(spec=spec, u_grid=(0.5, 1.0, 2.0), t_ladder=(400.0,),
                   replicates=2000, seed=1, plans=("SELF_SIMILARITY",))
    m = simulate_scaled_matrix(spec, scn.u_grid, 400.0, 2000, 1)
    records = []
    for defect in (lambda x: x, lambda x: x[:, ::-1], lambda x: 2.0 * x):
        monkeypatch.setattr(verify, "simulate_scaled_matrix",
                            lambda *a, **kw: defect(m))
        records += run_scenario(scn).records
    plain, reversed_u, doubled = records
    assert not reversed_u.passed and doubled == plain


def test_stationarity_logtime_reads_the_engine(monkeypatch):
    # the pair and variance records read the engine's matrix: a x1.5
    # scale fails every record, and the u = 2 column with its rows
    # shuffled, which leaves the pair uncorrelated, fails the pair record;
    # the setting was fixed before any run (a x1.1 scale is not reliably
    # seen there)
    scn = Scenario(spec=TAIL_MATCHED_SPEC, u_grid=(1.0, 2.0),
                   t_ladder=(1e5,), replicates=2000, seed=1,
                   plans=("STATIONARITY_LOGTIME",))
    m = simulate_scaled_matrix(scn.spec, scn.u_grid, 1e5, 2000, 1)
    shuffled = m.copy()
    shuffled[:, 1] = m[substream(7, DOMAIN_AUX).permutation(len(m)), 1]
    runs = []
    for defect in (m, 1.5 * m, shuffled):
        monkeypatch.setattr(verify, "simulate_scaled_matrix",
                            lambda *a, defect=defect, **kw: defect)
        runs.append(run_scenario(scn).records)
    plain, scaled, unpaired = runs
    assert [r.test for r in plain] == [
        "STATIONARITY_LOGTIME:u=1.0", "STATIONARITY_LOGTIME:u=1.0",
        "STATIONARITY_LOGTIME:u=2.0"]
    assert [r.u for r in plain] == [1.0, 2.0, 2.0]
    assert all(r.passed for r in plain)
    assert not any(r.passed for r in scaled)
    assert not unpaired[1].passed


def test_self_similarity_alone_simulates_every_rung():
    # its only plan reads the matrix, so the run draws one per rung
    scn = _a1_scenario(spec=D4_SPEC, u_grid=(1.0, 2.0),
                       t_ladder=(50.0, 100.0), replicates=100,
                       plans=("SELF_SIMILARITY",))
    rep = run_scenario(scn)
    assert [r.test for r in rep.records] == ["SELF_SIMILARITY"]
    assert sorted(rep.plot_data) == [(t, u) for t in scn.t_ladder
                                     for u in scn.u_grid]


def _centered_x_star(s, scn, j, rng):
    # one stationary path on [0, T], its shots summed in epoch order, minus
    # the compensator mu^{-1} int_0^T h
    T = scn.x_star_truncation
    path = sample_path(s.law, T, renewal.STATIONARY, rng)
    return float(np.sum(s.h.eval(path.arrivals))) - s.h.integral(T) / s.law.mean


@pytest.mark.parametrize("spec, draw", [
    (DRI_SPEC, lambda s, scn, j, rng: limits.sample_X_star(
        s.law, s.h, scn.x_star_truncation, rng)),
    (CENTERED_SPEC, _centered_x_star),
    (D4_SPEC, lambda s, scn, j, rng: limits.inverse_frac_integral(
        s.alpha, s.beta, scn.u_grid, scn.reference_mesh_d, rng)[j]),
], ids=["NOSCALE_DRI", "NOSCALE_CENTERED", "D4"])
def test_x_star_draws_use_one_stream_per_draw(monkeypatch, spec, draw):
    # a stream serves one path: X* draw (i, j) has stream (..., j, i), D4
    # row i has stream (..., i) for the whole grid, in process and when
    # the rows are split over two workers (these maps are far below the
    # pool's threshold, so it is set to 0)
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)
    n = 100
    scn = _a1_scenario(spec=spec, u_grid=(1.0, 2.0), replicates=n,
                       x_star_truncation=30.0, reference_mesh_d=1e-2)
    key = (DOMAIN_REFERENCE, 4, 1)
    for j in range(2):
        column = key if spec is D4_SPEC else key + (j,)
        want = np.array([draw(spec, scn, j, substream(scn.seed, *column, i))
                         for i in range(n)])
        for threads in (1, 2):
            got = shotnoise.REGIMES[spec.regime].reference(
                scn, key, verify._Pool(threads).rows)
            assert got[:, j].tobytes() == want.tobytes()


def test_run_scenario_deterministic_reports():
    scn = _a1_scenario(plans=("KS_MARGINAL", "MOMENTS:2"))
    r1 = run_scenario(scn)
    r2 = run_scenario(scn)
    assert r1.to_json() == r2.to_json()
    buf1, buf2 = io.StringIO(), io.StringIO()
    r1.write_csv(buf1)
    r2.write_csv(buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_mean_abs_n_report_serialises():
    scn = _a1_scenario(replicates=100, plans=("MEAN_ABS_N",))
    rep = run_scenario(scn)
    payload = json.loads(rep.to_json())
    (rec,) = payload["records"]
    assert rec["test"] == "MEAN_ABS_N"
    assert isinstance(rec["passed"], bool)
    buf = io.StringIO()
    rep.write_csv(buf)
    assert "np." not in buf.getvalue()


def test_worker_count_does_not_change_output(monkeypatch):
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)    # fork anyway
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    m1 = simulate_scaled_matrix(spec, (1.0, 2.0), 50.0, 240, 9, threads=1)
    m2 = simulate_scaled_matrix(spec, (1.0, 2.0), 50.0, 240, 9, threads=3)
    np.testing.assert_array_equal(m1, m2)


ORACLE_CASES = [
    # heavy-tailed counts: some rows outgrow the first piece of gaps
    (LimitSpec(Pareto(0.5, 1.0), ParetoTailMatch(0.5, 1.0, 1.0)),
     1e4, 300),
    # constant response: statistic computed with h == 1
    (LimitSpec(Pareto(2.0, 1.0), Constant(3.0)), 50.0, 100),
    # paths of about 5000 shots: more than one 4096-gap block
    (LimitSpec(Gamma(2.0, 2.0), PowerDecay(0.25)), 2500.0, 100),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec,t,n", ORACLE_CASES,
                         ids=lambda c: getattr(c, "regime", None))
def test_matrix_equals_one_path_per_replicate(monkeypatch, spec, t, n,
                                              threads):
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)    # fork anyway
    u, seed = (0.5, 1.0, 2.0), 23
    m = simulate_scaled_matrix(spec, u, t, n, seed, threads=threads)
    paths = [sample_path(spec.law, u[-1] * t, ZERO_DELAYED,
                         substream(seed, DOMAIN_REPLICATE, r))
             for r in range(n)]
    first = math.ceil(renewal.expected_count(spec.law, u[-1] * t))
    if spec.regime == D4:
        assert max(len(p) for p in paths) > first
    oracle = np.array([scaled_statistic(spec, p, u, t) for p in paths])
    assert m.tobytes() == oracle.tobytes()


def _no_map(monkeypatch):
    """Make every map of rows fail, forking or not."""
    def refused(self, fn, n, *work, **kw):
        raise AssertionError("a map of rows started")

    monkeypatch.setattr(verify._Pool, "rows", refused)


@pytest.mark.parametrize("threads", [1, 2])
def test_no_replicates_is_refused_before_a_pool_starts(monkeypatch, threads):
    # threads 1 returned a (0, 1) matrix, threads 2 raised numpy's "need at
    # least one array to concatenate" from the pool
    _no_map(monkeypatch)
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    with pytest.raises(ValueError, match="replicate"):
        simulate_scaled_matrix(spec, (1.0,), 10.0, 0, 1, threads=threads)


_BAD_GRIDS = [((1.0, math.nan), 10.0), ((math.inf,), 10.0),
              ((0.0, 1.0), 10.0), ((2.0, 1.0), 10.0), ((1.0, 1.0), 10.0),
              ((), 10.0), ((1.0,), math.nan), ((1.0,), math.inf),
              ((1.0,), 0.0), ((1.0,), -1.0)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("u_grid, t", _BAD_GRIDS)
def test_bad_grid_is_refused_before_a_pool_starts(monkeypatch, threads,
                                                  u_grid, t):
    # (1, nan) gave a column of NaN and t = nan a matrix of NaN; at threads
    # 2 a decreasing grid raised only from inside a worker
    _no_map(monkeypatch)
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    with pytest.raises(ValueError, match="u-grid|t must"):
        simulate_scaled_matrix(spec, u_grid, t, 100, 1, threads=threads)


@pytest.mark.parametrize("u_grid, t", _BAD_GRIDS)
def test_bad_grid_is_refused_by_the_statistic(u_grid, t):
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    path = sample_path(spec.law, 50.0, ZERO_DELAYED, substream(1, 9, 0))
    # the grid is checked before the horizon
    with pytest.raises(ValueError, match="u-grid|t must"):
        scaled_statistic(spec, path, u_grid, t)


def test_resource_cap():
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    with pytest.raises(ResourceCapExceeded):
        simulate_scaled_matrix(spec, (1.0,), 1e6, 10000, 0, max_shots=1e6)


@pytest.mark.parametrize("epochs", [2**8, 2**13, 2**16])
def test_buffer_size_changes_no_bit(monkeypatch, epochs):
    # one row per buffer, about the default and every row in one buffer:
    # D4 Pareto(1/2) paths to 2e4, some outgrowing their first draw;
    # stationary Gamma(2, 2) counts; Exponential(1) rows of three 4096-gap
    # blocks
    law, T, n = D4_SPEC.law, 2e4, 200
    counts = renewal.counts_at(law, (T,), ZERO_DELAYED, 5, (DOMAIN_REPLICATE,),
                               range(n))
    assert np.any(counts - 1 >= math.ceil(renewal.expected_count(law, T)))

    def draw():
        return (simulate_scaled_matrix(D4_SPEC, (0.5, 1.0, 2.0), 1e4, n,
                                       5).tobytes(),
                renewal.counts_at(Gamma(2.0, 2.0), (10.0, 40.0), STATIONARY,
                                  5, (3,), range(300)).tobytes(),
                renewal.counts_at(Exponential(1.0), (4500.0, 9000.0),
                                  ZERO_DELAYED, 5, (3,), range(20)).tobytes())

    want = draw()
    monkeypatch.setattr(renewal, "_SUB_BATCH_EPOCHS", epochs)
    assert draw() == want


def _watch_rows(monkeypatch):
    """A list that collects the row count of every renewal.epoch_rows call
    made in this process."""
    drawn = []
    inner = renewal.epoch_rows

    def counted(law, T, delay_kind, streams, rows):
        drawn.append(rows)
        return inner(law, T, delay_kind, streams, rows)

    monkeypatch.setattr(renewal, "epoch_rows", counted)
    return drawn


# D4 rows outgrow their first draw; A1 PowerDecay paths pass 4096 gaps
LADDER_SPECS = {
    "D4": (D4_SPEC, (50.0, 200.0, 1e3)),
    "A1": (LimitSpec(Gamma(2.0, 2.0), PowerDecay(0.25)),
           (100.0, 400.0, 2500.0)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec, ladder", LADDER_SPECS.values(),
                         ids=LADDER_SPECS)
def test_every_rung_equals_its_own_matrix(monkeypatch, spec, ladder,
                                          threads):
    # a run draws each path once, to the last rung (rows counted in
    # process); each rung's matrix still equals that rung's alone
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)    # fork anyway
    got = []
    inner = verify.simulate_scaled_matrix

    def watched(spec, u_grid, t, n, *args, **kwargs):
        got.append((t, inner(spec, u_grid, t, n, *args, **kwargs)))
        return got[-1][1]

    monkeypatch.setattr(verify, "simulate_scaled_matrix", watched)
    drawn = _watch_rows(monkeypatch)
    scn = _a1_scenario(spec=spec, u_grid=(0.5, 1.0, 2.0), t_ladder=ladder,
                       replicates=100, threads=threads)
    run_scenario(scn)
    assert [t for t, _ in got] == list(ladder)
    if threads == 1:
        assert sum(drawn) == 100           # n rows per run, not per rung
    for t, m in got:
        # the name imported by this module is the unwatched function
        alone = simulate_scaled_matrix(spec, scn.u_grid, t, 100, scn.seed,
                                       threads=threads)
        assert m.flags.c_contiguous and m.tobytes() == alone.tobytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_mean_abs_n_equals_a_count_per_rung(monkeypatch, threads):
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)    # fork anyway
    ladder = (100.0, 400.0, 1600.0)
    scn = _a1_scenario(replicates=100, t_ladder=ladder, threads=threads,
                       plans=("MEAN_ABS_N",))
    drawn = _watch_rows(monkeypatch)
    rep = run_scenario(scn)
    if threads == 1:
        assert sum(drawn) == 100           # one path per stream, not three
    law = scn.spec.law
    for rec, t in zip(rep.records, ladder, strict=True):
        counts = renewal.counts_at(law, (t,), ZERO_DELAYED, scn.seed,
                                   (DOMAIN_AUX, 500), range(100))[:, 0]
        g = shotnoise.scaling_g(scn.spec, t)
        dev = np.abs(counts - t / law.mean)
        assert rec.t == t and rec.statistic == float(dev.mean() / g)
        assert rec.z_score == moment_test(dev / g, 1, rec.reference)


@pytest.mark.parametrize("plans", [("KS_MARGINAL",), ("MEAN_ABS_N",)])
def test_last_rung_over_the_cap_draws_nothing(monkeypatch, plans):
    # 100 paths to 1e4 hold about 1.1e6 shots, those to 50 about 12,000
    drawn = _watch_rows(monkeypatch)
    scn = _a1_scenario(replicates=100, t_ladder=(50.0, 1e4), max_shots=1e5,
                       plans=plans)
    with pytest.raises(ResourceCapExceeded):
        run_scenario(scn)
    assert drawn == []


# the per-row-stream loops of a run: the engine's rungs with D4 jump-epoch
# references, with X* references and stationary time-reversal paths, and
# the MEAN_ABS_N counts
THREADED_RUNS = {
    "D4-inverse-subordinator": dict(
        spec=D4_SPEC, u_grid=(0.5, 1.0, 2.0), t_ladder=(50.0, 100.0),
        plans=("KS_MARGINAL", "SELF_SIMILARITY"), reference_mesh_d=1e-2),
    "NOSCALE_DRI-x-star": dict(
        spec=LimitSpec(Gamma(2.0, 2.0), ExpDecay(1.0)),
        u_grid=(1.0, 2.0), t_ladder=(20.0, 40.0),
        plans=("KS_MARGINAL", "TIME_REVERSAL")),
    "A1-mean-abs-n": dict(t_ladder=(100.0, 400.0), plans=("MEAN_ABS_N",)),
}


@pytest.mark.parametrize("kw", THREADED_RUNS.values(), ids=THREADED_RUNS)
def test_whole_report_does_not_depend_on_threads(monkeypatch, kw):
    # the scenario echo holds the thread count, so compare what the run
    # computed: the records and the plot quantiles; every map of these
    # small runs is below the pool's threshold, so it is set to 0
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)
    runs = {}
    for threads in (1, 2, 3):
        rep = run_scenario(_a1_scenario(replicates=100, threads=threads, **kw))
        runs[threads] = ([dataclasses.asdict(r) for r in rep.records],
                         {k: v.tobytes() for k, v in rep.plot_data.items()})
    assert runs[1][0] and runs[1] == runs[2] == runs[3]


forking = pytest.mark.skipif(not verify._FORKS,
                             reason="the pool forks on Linux only")


def _log_pids(path):
    """A map of rows that appends the pid of the process that computes
    each share to the file `path`."""
    def rows(r):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return np.arange(r.start, r.stop)
    return rows


@forking
def test_no_worker_outlives_its_run(monkeypatch, tmp_path):
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)    # fork anyway
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    pids = tmp_path / "pids"
    inner = verify._simulate_chunk

    def watched(*args):
        with open(pids, "a") as f:
            f.write(f"{os.getpid()}\n")
        return inner(*args)

    monkeypatch.setattr(verify, "_simulate_chunk", watched)
    scn = _a1_scenario(replicates=100, threads=2, t_ladder=(50.0, 100.0),
                       max_shots=1e5)
    run_scenario(scn)
    # the map ran in this process and in a forked child, which is gone
    # once the map returns
    assert set(pids.read_text().split()) > {str(os.getpid())}
    assert multiprocessing.active_children() == []
    # the first rung's matrix forks (4300 expected shots), then the
    # time-reversal paths (12100) are over the shot cap
    pids.unlink()
    with pytest.raises(ResourceCapExceeded):
        run_scenario(dataclasses.replace(
            scn, t_ladder=(5.0, 10.0), max_shots=1e4,
            plans=("KS_MARGINAL", "TIME_REVERSAL")))
    assert len(set(pids.read_text().split())) == 2
    assert multiprocessing.active_children() == []


@pytest.fixture
def forks(monkeypatch):
    """Real forks on 2 CPUs, logged: returns the list of the row ranges
    handed to forked children."""
    log = []
    fork = multiprocessing.get_context("fork")

    class Logged:
        Pipe = staticmethod(fork.Pipe)

        @staticmethod
        def Process(target, args):
            log.append(args[1])
            return fork.Process(target=target, args=args)

    class Multiprocessing:
        @staticmethod
        def get_context(method):
            assert method == "fork"
            return Logged

    monkeypatch.setattr(verify, "multiprocessing", Multiprocessing)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    return log


@forking
def test_pool_starts_no_more_workers_than_cpus(forks, tmp_path):
    # threads 3 on 2 CPUs: this process and one child, a share each
    rows = verify._Pool(3).rows(_log_pids(tmp_path / "pids"), 100, 1e9)
    assert forks == [range(50, 100)]
    assert len(set((tmp_path / "pids").read_text().split())) == 2
    np.testing.assert_array_equal(rows, np.arange(100))


@forking
def test_pool_forks_no_empty_share(forks, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    asked = []

    def rows(r):
        asked.append(r)
        return np.arange(r.start, r.stop)

    # 2 rows at threads 3: one share here, one child
    got = verify._Pool(3).rows(rows, 2, 1e9)
    assert forks == [range(1, 2)] and asked == [range(0, 1)]
    np.testing.assert_array_equal(got, np.arange(2))
    # a single row never forks
    assert verify._Pool(3).rows(rows, 1, 1e9).tolist() == [0]
    assert forks == [range(1, 2)]


@forking
def test_pool_forks_only_for_a_map_that_repays_it(monkeypatch, forks):
    rows = lambda r: np.arange(r.start, r.stop)
    pool = verify._Pool(2)
    # 100 rows cost 2.9 ms; the epochs that make up the rest to the
    # threshold, at 39 ns each
    to_fork = (verify._FORK_MIN_S - 100 * verify._ROW_S) / verify._EPOCH_S
    small = pool.rows(rows, 100, to_fork * 0.99)
    assert forks == []
    big = pool.rows(rows, 100, to_fork * 1.01)
    assert forks == [range(50, 100)] and small.tobytes() == big.tobytes()
    # a D4 jump epoch costs more than a path epoch
    pool.rows(rows, 100, jumps=to_fork * verify._EPOCH_S / verify._JUMP_S
              * 1.01)
    assert len(forks) == 2
    # a run of small maps (engine and MEAN_ABS_N) never forks, not even
    # when it raises
    forks.clear()
    scn = _a1_scenario(replicates=100, threads=2, t_ladder=(50.0, 100.0),
                       plans=("KS_MARGINAL", "MEAN_ABS_N"))
    over_cap = dataclasses.replace(scn, t_ladder=(5.0, 10.0), max_shots=1e4,
                                   plans=("KS_MARGINAL", "TIME_REVERSAL"))
    want = run_scenario(scn).records
    with pytest.raises(ResourceCapExceeded):
        run_scenario(over_cap)
    assert forks == []
    # with the threshold at 0 each map forks (the engine's once for every
    # rung, MEAN_ABS_N's once), also in a run that raises after its first
    # map, and no child is left
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)
    assert run_scenario(scn).records == want
    assert forks == [range(50, 100)] * 2
    with pytest.raises(ResourceCapExceeded):
        run_scenario(over_cap)
    assert forks == [range(50, 100)] * 3
    assert multiprocessing.active_children() == []


def _fails_in_child(fail):
    """Rows that call fail() in every share but the first."""
    def rows(r):
        if r.start > 0:
            fail()
        return np.arange(r.start, r.stop)
    return rows


@forking
def test_child_exception_reaches_the_caller(forks):
    def fail():
        raise ValueError("bad share")

    with pytest.raises(ValueError, match="bad share"):
        verify._Pool(2).rows(_fails_in_child(fail), 10, 1e9)
    assert forks and multiprocessing.active_children() == []


@forking
def test_child_that_dies_names_its_exit_code(forks):
    with pytest.raises(RuntimeError, match="code 3"):
        verify._Pool(2).rows(_fails_in_child(lambda: os._exit(3)), 10, 1e9)
    assert forks and multiprocessing.active_children() == []


@forking
def test_main_share_error_kills_the_children(forks):
    def rows(r):
        if r.start == 0:
            raise KeyError("main share")
        time.sleep(60)

    t0 = time.perf_counter()
    with pytest.raises(KeyError, match="main share"):
        verify._Pool(2).rows(rows, 10, 1e9)
    assert time.perf_counter() - t0 < 30
    assert forks and multiprocessing.active_children() == []


def test_report_serialization_shapes():
    scn = _a1_scenario(u_grid=(1.0, 2.0), t_ladder=(50.0, 150.0),
                       plans=("KS_MARGINAL",))
    rep = run_scenario(scn)
    payload = json.loads(rep.to_json())
    assert payload["seed"] == 17
    assert len(payload["records"]) == 4      # 2 rungs x 2 grid points
    assert set(payload["records"][0]) == {
        "t", "u", "test", "statistic", "reference", "p_value", "z_score",
        "passed"}
    buf = io.StringIO()
    rep.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 5
    buf = io.StringIO()
    rep.write_plot_data(buf)
    assert len(buf.getvalue().splitlines()) == 4 * 101 + 1


def test_noscale_scenario_passes():
    spec = LimitSpec(Exponential(1.0), ExpDecay(1.0))
    scn = Scenario(spec=spec, u_grid=(1.0, 2.0), t_ladder=(400.0,),
                   replicates=800, seed=3,
                   plans=("KS_MARGINAL", "JOINT_PAIRWISE_INDEPENDENCE"))
    rep = run_scenario(scn)
    assert rep.all_passed, [(r.test, r.p_value, r.z_score)
                            for r in rep.records if not r.passed]


def test_monotone_evidence_in_t():
    # KS distance to the limit shrinks on average as t grows
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    small, large = [], []
    for seed in range(20):
        for t, sink in ((30.0, small), (3000.0, large)):
            m = simulate_scaled_matrix(spec, (1.0,), t, 300, 1000 + seed)
            d, _ = ks_one_sample_normal(m[:, 0], 0.0, 1.0)
            sink.append(d)
    assert np.mean(large) <= np.mean(small)
