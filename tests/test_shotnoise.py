"""Shot noise evaluation, normalizers, and regime admissibility."""

import dataclasses
import math

import numpy as np
import pytest

from renewalshot.laws import (Constant, ExpDecay, Exponential, Pareto,
                              ParetoTailMatch, PowerDecay, Uniform, Window)
from renewalshot.limits import x_star_tail_bound
from renewalshot import renewal, shotnoise
from renewalshot.renewal import ZERO_DELAYED, sample_path
from renewalshot.shotnoise import (A1, A2, A3, D4, NOSCALE_CENTERED,
                                   NOSCALE_DRI, REGIMES, InadmissibleSpec,
                                   LimitSpec, Regime,
                                   default_x_star_truncation, evaluate,
                                   scaled_statistic, scaling_g, solve_c)
from renewalshot.streams import substream, substreams
from renewalshot.verify import (Scenario, _limit_reference_sample,
                                ks_one_sample, moment_test,
                                simulate_scaled_matrix)


def _path(law=Exponential(1.0), T=50.0, key=0):
    return sample_path(law, T, ZERO_DELAYED, substream(21, 3, key))


def test_evaluate_matches_manual_sum():
    p = _path()
    h = PowerDecay(0.25)
    for t in (0.0, 7.3, 50.0):
        ages = t - p.arrivals[p.arrivals <= t]
        manual = float(np.sum(h.eval(ages)))
        assert evaluate(p, h, t) == pytest.approx(manual, rel=1e-12)


def test_evaluate_window_counts_recent_shots():
    p = _path()
    h = Window(0.0, 2.0)
    t = 30.0
    expected = np.sum((p.arrivals > t - 2.0) & (p.arrivals <= t))
    assert evaluate(p, h, t) == pytest.approx(float(expected))


@pytest.mark.parametrize("T", [50.0, 5000.0], ids=["gathered", "sliced"])
def test_shot_noise_on_a_buffer_equals_evaluate(T):
    # a buffer of renewal.epoch_rows: rows narrower than _GATHER_WIDTH go
    # through one masked gather, wider ones through a slice per row; both
    # equal evaluate on each path bit for bit
    law, h, n = Exponential(1.0), PowerDecay(0.25), 20
    rows = renewal.epoch_rows(law, T, ZERO_DELAYED,
                              substreams(21, (3,), range(n)), n)
    assert (rows.shape[1] < shotnoise._GATHER_WIDTH) == (T == 50.0)
    times = (0.3 * T, T)
    got = shotnoise.shot_noise(rows, h, times)
    for i in range(n):
        p = _path(law, T, key=i)
        assert got[i].tolist() == [evaluate(p, h, tau) for tau in times]


def test_centered_statistic_centering():
    p = _path()
    law = Exponential(1.0)
    h = PowerDecay(0.75)
    spec = LimitSpec(NOSCALE_CENTERED, 2.0, 0.0, law, h)
    u, t = np.array([0.5, 1.0]), 40.0
    got = scaled_statistic(spec, p, u, t)
    assert got.tolist() == [evaluate(p, h, tau) - h.integral(tau) / law.mean
                            for tau in u * t]


def test_solve_c_constant_ell_closed_form():
    # c^alpha = x_m^alpha t, so Pareto(3/2, 1) at t = 1000 gives c = 100
    assert solve_c(Pareto(1.5, 1.0), 1000.0) == pytest.approx(100.0, rel=1e-12)
    # c = x_m t^{1/alpha}: Pareto(1/2, 2) at t = 16 gives 2 * 16^2 = 512
    assert solve_c(Pareto(0.5, 2.0), 16.0) == pytest.approx(512.0, rel=1e-12)


def test_solve_c_logarithmic_ell():
    # alpha = 2, x_m = 1: c^2 = 2 t ln c, upper root; at t = e^2/2 the
    # equation is c^2 = e^2 ln c^2 with upper root c = e... the bisection
    # must land on the larger solution of c^2 = 2 t ln c.
    law = Pareto(2.0, 1.0)
    t = 500.0
    c = solve_c(law, t)
    assert c > math.sqrt(t)          # upper root lies above the minimizer
    assert abs(c * c - t * float(law.ell(c))) < 1e-9 * c * c
    # no solution below t = e (minimum of c^2/ln c is 2e at c = sqrt(e))
    with pytest.raises(ValueError):
        solve_c(law, 2.0)


def test_scaling_g_formulas():
    a1 = LimitSpec(A1, 2.0, 0.0, Exponential(2.0), Constant(1.0))
    law = a1.law
    assert scaling_g(a1, 100.0) == pytest.approx(
        math.sqrt(law.variance * law.mean ** -3 * 100.0), rel=1e-12)
    a3 = LimitSpec(A3, 1.5, 0.25, Pareto(1.5, 1.0), PowerDecay(0.25))
    mu = Pareto(1.5, 1.0).mean
    assert scaling_g(a3, 1000.0) == pytest.approx(
        mu ** (-1 - 1 / 1.5) * 100.0, rel=1e-12)
    d4 = LimitSpec(D4, 0.5, 0.25, Pareto(0.5, 1.0), PowerDecay(0.25))
    assert scaling_g(d4, 400.0) == pytest.approx(400.0 ** 0.5, rel=1e-12)
    with pytest.raises(InadmissibleSpec):
        scaling_g(LimitSpec(NOSCALE_DRI, 2.0, 0.0, Exponential(1.0),
                            ExpDecay(1.0)), 10.0)


def test_constant_response_cancels_exactly():
    p = _path(T=220.0)
    for v in (1.0, 7.25):
        spec = LimitSpec(A1, 2.0, 0.0, Exponential(1.0), Constant(v))
        got = scaled_statistic(spec, p, (1.0, 2.0), 100.0)
        if v == 1.0:
            base = got
    np.testing.assert_array_equal(base, got)


def test_admissibility_rejections():
    with pytest.raises(InadmissibleSpec, match=r"\(0,1/alpha\)"):
        LimitSpec(A3, 1.5, 0.8, Pareto(1.5, 1.0), PowerDecay(0.8))
    with pytest.raises(InadmissibleSpec):
        LimitSpec(A1, 1.5, 0.0, Exponential(1.0), Constant(1.0))
    with pytest.raises(InadmissibleSpec):
        LimitSpec(A1, 2.0, 0.7, Exponential(1.0), PowerDecay(0.7))
    with pytest.raises(InadmissibleSpec):   # A1 needs finite variance
        LimitSpec(A1, 2.0, 0.0, Pareto(1.5, 1.0), Constant(1.0))
    with pytest.raises(InadmissibleSpec):   # A2 needs the tail-2 Pareto
        LimitSpec(A2, 2.0, 0.0, Exponential(1.0), Constant(1.0))
    with pytest.raises(InadmissibleSpec):   # D4 needs infinite mean
        LimitSpec(D4, 0.5, 0.25, Pareto(1.5, 1.0), PowerDecay(0.25))
    with pytest.raises(InadmissibleSpec):   # windows vanish at large age
        LimitSpec(A1, 2.0, 0.0, Exponential(1.0), Window(0.0, 1.0))
    with pytest.raises(InadmissibleSpec):   # declared beta vs decay index
        LimitSpec(A1, 2.0, 0.25, Exponential(1.0), PowerDecay(0.4))
    with pytest.raises(InadmissibleSpec):   # dRi required
        LimitSpec(NOSCALE_DRI, 2.0, 0.0, Exponential(1.0), PowerDecay(0.25))
    with pytest.raises(InadmissibleSpec):   # integrable h is the dRi regime
        LimitSpec(NOSCALE_CENTERED, 2.0, 0.0, Exponential(1.0), ExpDecay(1.0))
    with pytest.raises(InadmissibleSpec):
        LimitSpec("bogus", 2.0, 0.0, Exponential(1.0), Constant(1.0))


def test_scaled_statistic_validates_grid():
    p = _path(T=50.0)
    spec = LimitSpec(A1, 2.0, 0.0, Exponential(1.0), Constant(1.0))
    with pytest.raises(ValueError):
        scaled_statistic(spec, p, (1.0, 2.0), 100.0)   # beyond horizon
    with pytest.raises(ValueError):
        scaled_statistic(spec, p, (2.0, 1.0), 10.0)    # not increasing


def test_a2_admits_tail_two_pareto():
    spec = LimitSpec(A2, 2.0, 0.0, Pareto(2.0, 1.0), Constant(1.0))
    assert scaling_g(spec, 500.0) > 0


def test_default_x_star_truncation_needs_an_integrable_response():
    dri = LimitSpec(NOSCALE_DRI, 2.0, 0.0, Exponential(1.0), ExpDecay(1.0))
    T = default_x_star_truncation(dri)
    assert x_star_tail_bound(dri.law, dri.h, T) <= 1e-9
    # the integrable-h tail bound never falls below tol for PowerDecay(0.75)
    centered = LimitSpec(NOSCALE_CENTERED, 2.0, 0.0, Exponential(1.0),
                         PowerDecay(0.75))
    with pytest.raises(ValueError, match="x_star_truncation"):
        default_x_star_truncation(centered)


def test_tail_matched_d4_floor_and_renewal_identity():
    # h = P(xi > .) with c = 1, so the D4 statistic is X(t) itself.  The
    # shot at S_0 = 0 adds h(t) to every path: X(t) >= h(t), and the ECDF
    # is 0 below h(t), so the KS distance to Exp(1) is at least
    # 1 - exp(-h(t)) whatever the draw.  E X(t) = 1 at every t, because
    # sum_k P(S_k <= t < S_{k+1}) = 1.
    spec = LimitSpec(D4, 0.5, 0.5, Pareto(0.5, 1.0),
                     ParetoTailMatch(0.5, 1.0, 1.0))
    for t in (1e2, 1e4):
        x = simulate_scaled_matrix(spec, (1.0,), t, 20000, 17,
                                   max_shots=1e9)[:, 0]
        ht = float(spec.h.eval(t))
        assert np.all(x >= ht)
        d, _ = ks_one_sample(x, lambda q: -np.expm1(-np.maximum(q, 0.0)))
        assert d >= -math.expm1(-ht)
        z = moment_test(x, 1, 1.0)
        assert abs(z) < 3, (t, z)


# one admissible spec per regime table entry; D4 twice, because its limit
# law is exact for beta = alpha and self-simulated otherwise
TABLE_SPECS = [
    LimitSpec(NOSCALE_DRI, 2.0, 0.0, Exponential(1.0), ExpDecay(1.0)),
    LimitSpec(NOSCALE_CENTERED, 2.0, 0.0, Exponential(1.0), PowerDecay(0.75)),
    LimitSpec(A1, 2.0, 0.25, Exponential(1.0), PowerDecay(0.25)),
    LimitSpec(A2, 2.0, 0.0, Pareto(2.0, 1.0), Constant(1.0)),
    LimitSpec(A3, 1.5, 0.25, Pareto(1.5, 1.0), PowerDecay(0.25)),
    LimitSpec(D4, 0.5, 0.25, Pareto(0.5, 1.0), PowerDecay(0.25)),
    LimitSpec(D4, 0.5, 0.5, Pareto(0.5, 1.0), ParetoTailMatch(0.5, 1.0, 1.0)),
]


@pytest.mark.parametrize("spec", TABLE_SPECS,
                         ids=lambda s: f"{s.regime}-beta={s.beta}")
def test_regime_table_entry_is_complete(spec):
    assert {s.regime for s in TABLE_SPECS} == set(REGIMES)
    regime = REGIMES[spec.regime]
    assert regime.admits
    for holds, why in regime.admits:
        assert callable(holds) and isinstance(why, str)
        assert holds(spec), why
    for f in dataclasses.fields(Regime)[1:]:
        assert getattr(regime, f.name) is None or callable(
            getattr(regime, f.name)), f.name
    for name in ("statistic", "exact", "reference", "moment"):
        assert getattr(regime, name) is not None, name
    # no normalizer exactly when the limit is stationary (no Hurst index)
    assert (regime.g is None) == (regime.hurst is None)
    if regime.g is not None:
        assert scaling_g(spec, 100.0) > 0
        assert math.isfinite(regime.hurst(spec))
    stat = scaled_statistic(spec, _path(law=spec.law, T=220.0), (1.0, 2.0),
                            100.0)
    assert stat.shape == (2,) and np.all(np.isfinite(stat))
    assert math.isfinite(regime.moment(spec, 1.0, 1))
    refs = regime.reference(spec, (1.0, 2.0), 5, 0, (9,), _scenario(spec))
    assert refs.shape == (5, 2) and np.all(np.isfinite(refs))
    cdf = regime.exact(spec, 1.0)
    if cdf is not None:
        q = np.asarray(cdf(np.sort(refs[:, 0])))
        assert np.all((q > 0) & (q < 1)) and np.all(np.diff(q) >= 0)


def _scenario(spec, u_grid=(1.0,)):
    return Scenario(spec=spec, u_grid=u_grid, t_ladder=(100.0,),
                    replicates=100, seed=0, x_star_truncation=50.0,
                    reference_mesh_d=1e-2)


def test_d4_reference_column_does_not_depend_on_the_rest_of_the_grid():
    # one jump-epoch draw per row serves every u, and the epochs up to u do
    # not depend on the largest u of the grid
    spec = TABLE_SPECS[-2]
    one = _limit_reference_sample(_scenario(spec, (1.0,)), (1, 0), (1.0,))
    two = _limit_reference_sample(_scenario(spec, (1.0, 2.0)), (1, 0),
                                  (1.0, 2.0))
    assert one[:, 0].tobytes() == two[:, 0].tobytes()


def test_noscale_reference_columns_have_their_own_streams():
    # far-apart grid points once shared one stream key
    spec = TABLE_SPECS[0]
    scn = _scenario(spec, (2048.0, 4096.0))
    refs = _limit_reference_sample(scn, (1, 0), scn.u_grid)
    assert not np.array_equal(refs[:, 0], refs[:, 1])
