"""Statistical machinery and the scenario runner."""

import io
import json
import math

import numpy as np
import pytest

from renewalshot.laws import (Constant, ExpDecay, Exponential, Gamma, Pareto,
                              ParetoTailMatch, PowerDecay)
from renewalshot.renewal import ZERO_DELAYED, sample_path
from renewalshot.shotnoise import (A1, A2, D4, NOSCALE_DRI, InadmissibleSpec,
                                   LimitSpec, scaled_statistic)
from renewalshot import limits, renewal, verify
from renewalshot.streams import DOMAIN_REFERENCE, DOMAIN_REPLICATE, substream
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
    with pytest.raises(ValueError):
        moment_test(x, 0, 1.0)


def test_covariance_z():
    rng = substream(41, 3, 1)
    a = rng.normal(0, 1, 40000)
    b = 0.5 * a + math.sqrt(0.75) * rng.normal(0, 1, 40000)
    assert abs(covariance_z(a, b, 0.5)) < 3
    assert abs(covariance_z(a, b, 0.0)) > 5


def test_energy_distance_detects_and_calibrates():
    rng = substream(41, 3, 2)
    x = rng.normal(0, 1, (1500, 2))
    y = rng.normal(0, 1, (1500, 2))
    _, p_null = energy_distance_test(x, y, seed=1)
    assert p_null > 0.01
    _, p_alt = energy_distance_test(x, y + 0.4, seed=1)
    assert p_alt <= 0.01


def test_copula_independence():
    rng = substream(41, 3, 3)
    x = rng.normal(0, 1, 1500)
    y = rng.normal(0, 1, 1500)
    _, p_null = copula_independence_test(x, y, seed=1)
    assert p_null > 0.01
    _, p_dep = copula_independence_test(x, 0.6 * x + 0.8 * y, seed=1)
    assert p_dep <= 0.01


D4_SPEC = LimitSpec(D4, 0.5, 0.25, Pareto(0.5, 1.0), PowerDecay(0.25))
DRI_SPEC = LimitSpec(NOSCALE_DRI, 2.0, 0.0, Exponential(1.0), ExpDecay(1.0))


def _a1_scenario(**kw):
    spec = LimitSpec(A1, 2.0, 0.0, Exponential(1.0), Constant(1.0))
    base = dict(spec=spec, u_grid=(1.0,), t_ladder=(100.0,), replicates=300,
                seed=17, plans=("KS_MARGINAL",))
    base.update(kw)
    return Scenario(**base)


def test_scenario_validation():
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(replicates=50)
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(t_ladder=(100.0, 100.0))
    for ladder in ((), (0.0,), (-5.0, 10.0)):
        with pytest.raises(InadmissibleSpec, match="t-ladder"):
            _a1_scenario(t_ladder=ladder)
    with pytest.raises(InadmissibleSpec, match="t-ladder"):
        _a1_scenario(spec=D4_SPEC, t_ladder=(-5.0, 10.0))
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(u_grid=(2.0, 1.0))
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(plans=("NO_SUCH_TEST",))
    with pytest.raises(InadmissibleSpec):
        # pairwise independence only holds for the no-scaling limits
        _a1_scenario(u_grid=(1.0, 2.0),
                     plans=("JOINT_PAIRWISE_INDEPENDENCE",))
    with pytest.raises(InadmissibleSpec):
        # log-time stationarity needs the beta = alpha D4 limit
        _a1_scenario(plans=("STATIONARITY_LOGTIME",))
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(spec=D4_SPEC, plans=("STATIONARITY_LOGTIME",))
    with pytest.raises(InadmissibleSpec):
        # MEAN_ABS_N needs a finite-mean scaled regime
        _a1_scenario(spec=D4_SPEC, plans=("MEAN_ABS_N",))
    with pytest.raises(InadmissibleSpec):
        _a1_scenario(spec=DRI_SPEC, plans=("MEAN_ABS_N",))
    with pytest.raises(InadmissibleSpec):
        # a stationary no-scaling limit has no Hurst index
        _a1_scenario(spec=DRI_SPEC, u_grid=(1.0, 4.0),
                     plans=("SELF_SIMILARITY",))
    with pytest.raises(InadmissibleSpec):
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
        with pytest.raises(InadmissibleSpec, match="does not apply"):
            _a1_scenario(spec=DRI_SPEC, plans=(plan,))
    for spec, plan in ((D4_SPEC, "SELF_SIMILARITY"),
                       (DRI_SPEC, "JOINT_PAIRWISE_INDEPENDENCE")):
        with pytest.raises(InadmissibleSpec, match="at least 2"):
            _a1_scenario(spec=spec, u_grid=(1.0,), plans=(plan,))
    _a1_scenario(spec=D4_SPEC, u_grid=(1.0, 2.0), plans=("SELF_SIMILARITY",))
    _a1_scenario(spec=DRI_SPEC, u_grid=(1.0, 2.0),
                 plans=("JOINT_PAIRWISE_INDEPENDENCE", "MOMENTS:1"))
    _a1_scenario(spec=DRI_SPEC, plans=("TIME_REVERSAL",))


def test_d4_moments_csv_has_plain_floats():
    # limits.moments_inverse_case and limits.stationary_covariance return
    # numpy.float64, whose repr is "np.float64(...)"
    tail_matched = LimitSpec(D4, 0.5, 0.5, Pareto(0.5, 1.0),
                             ParetoTailMatch(0.5, 1.0, 1.0))
    for spec, plan, records in ((D4_SPEC, "MOMENTS:2", 2),
                                (tail_matched, "STATIONARITY_LOGTIME", 4)):
        rep = run_scenario(_a1_scenario(spec=spec, replicates=100,
                                        plans=(plan,)))
        buf = io.StringIO()
        rep.write_csv(buf)
        assert len(rep.records) == records and "np." not in buf.getvalue()


def test_ks_references_drawn_once_per_run(monkeypatch):
    drawn = []
    inner = verify._limit_reference_sample

    def counted(scn, key, u_grid):
        drawn.append(tuple(u_grid))
        return inner(scn, key, u_grid)

    monkeypatch.setattr(verify, "_limit_reference_sample", counted)
    scn = _a1_scenario(spec=D4_SPEC, u_grid=(1.0, 2.0),
                       t_ladder=(50.0, 100.0, 200.0), replicates=100,
                       reference_mesh_d=1e-2)
    rep = run_scenario(scn)
    assert drawn == [(1.0, 2.0)] and len(rep.records) == 6


@pytest.mark.parametrize("spec, draw", [
    (DRI_SPEC, lambda s, scn, j, rng: limits.sample_X_star(
        s.law, s.h, scn.x_star_truncation, rng)),
    (D4_SPEC, lambda s, scn, j, rng: limits.inverse_frac_integral(
        s.alpha, s.beta, scn.u_grid, scn.reference_mesh_d, rng)[j]),
], ids=["NOSCALE_DRI", "D4"])
def test_x_star_draws_use_one_stream_per_draw(spec, draw):
    # a stream serves one path: X* draw (i, j) has stream (..., j, i), D4
    # row i has stream (..., i) for the whole grid
    n = 100
    scn = _a1_scenario(spec=spec, u_grid=(1.0, 2.0), replicates=n,
                       x_star_truncation=30.0, reference_mesh_d=1e-2)
    key = (DOMAIN_REFERENCE, 4, 1)
    got = verify._limit_reference_sample(scn, key[1:], scn.u_grid)
    for j in range(2):
        column = key + (j,) if spec is DRI_SPEC else key
        want = np.array([draw(spec, scn, j, substream(scn.seed, *column, i))
                         for i in range(n)])
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


def test_worker_count_does_not_change_output():
    spec = LimitSpec(A1, 2.0, 0.0, Exponential(1.0), Constant(1.0))
    m1 = simulate_scaled_matrix(spec, (1.0, 2.0), 50.0, 240, 9, threads=1)
    m2 = simulate_scaled_matrix(spec, (1.0, 2.0), 50.0, 240, 9, threads=3)
    np.testing.assert_array_equal(m1, m2)


ORACLE_CASES = [
    # heavy-tailed counts: some rows outgrow the first piece of gaps
    (LimitSpec(D4, 0.5, 0.5, Pareto(0.5, 1.0), ParetoTailMatch(0.5, 1.0, 1.0)),
     1e4, 300),
    # constant response: statistic computed with h == 1
    (LimitSpec(A2, 2.0, 0.0, Pareto(2.0, 1.0), Constant(3.0)), 50.0, 100),
    # paths of about 5000 shots: more than one 4096-gap block
    (LimitSpec(A1, 2.0, 0.25, Gamma(2.0, 2.0), PowerDecay(0.25)),
     2500.0, 100),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("spec,t,n", ORACLE_CASES,
                         ids=lambda c: getattr(c, "regime", None))
def test_matrix_equals_one_path_per_replicate(spec, t, n, threads):
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


def test_resource_cap():
    spec = LimitSpec(A1, 2.0, 0.0, Exponential(1.0), Constant(1.0))
    with pytest.raises(ResourceCapExceeded):
        simulate_scaled_matrix(spec, (1.0,), 1e6, 10000, 0, max_shots=1e6)


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
    spec = LimitSpec(NOSCALE_DRI, 2.0, 0.0, Exponential(1.0), ExpDecay(1.0))
    scn = Scenario(spec=spec, u_grid=(1.0, 2.0), t_ladder=(400.0,),
                   replicates=800, seed=3,
                   plans=("KS_MARGINAL", "JOINT_PAIRWISE_INDEPENDENCE"))
    rep = run_scenario(scn)
    assert rep.all_passed, [(r.test, r.p_value, r.z_score)
                            for r in rep.records if not r.passed]


def test_true_null_calibration():
    # comparing a sampler to itself: rejection rate at level 0.01 stays in
    # [0.001, 0.03] over 1000 repetitions
    rejections = 0
    reps = 1000
    for r in range(reps):
        rng = substream(43, 3, r)
        x = rng.normal(0.0, 1.0, 400)
        y = rng.normal(0.0, 1.0, 400)
        _, p = ks_two_sample(x, y)
        rejections += p <= 0.01
    assert 0.001 <= rejections / reps <= 0.03, rejections


def test_monotone_evidence_in_t():
    # KS distance to the limit shrinks on average as t grows
    spec = LimitSpec(A1, 2.0, 0.0, Exponential(1.0), Constant(1.0))
    small, large = [], []
    for seed in range(20):
        for t, sink in ((30.0, small), (3000.0, large)):
            m = simulate_scaled_matrix(spec, (1.0,), t, 300, 1000 + seed)
            d, _ = ks_one_sample_normal(m[:, 0], 0.0, 1.0)
            sink.append(d)
    assert np.mean(large) <= np.mean(small)
