"""Shot noise evaluation, normalizers, and regime admissibility."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from renewalshot.laws import (Constant, ExpDecay, Exponential, Gamma,
                              Pareto, ParetoTailMatch, PowerDecay, Uniform,
                              Window)
from renewalshot.limits import x_star_tail_bound
from renewalshot import renewal, shotnoise, verify
from renewalshot.renewal import RenewalPath, ZERO_DELAYED, sample_path
from renewalshot.shotnoise import (A1, A2, A3, D4, NOSCALE_CENTERED,
                                   NOSCALE_DRI, REGIMES, InadmissibleSpec,
                                   LimitSpec, Regime, _H_REGULARLY_VARYING,
                                   default_x_star_truncation, evaluate,
                                   scaled_statistic, scaling_g, solve_c)
from renewalshot.streams import DOMAIN_REPLICATE, substream, substreams
from renewalshot.verify import (Scenario, _Pool, _limit_reference_sample,
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


@pytest.mark.parametrize("T", [50.0, 300.0, 5000.0],
                         ids=["gathered", "gathered-long", "sliced"])
def test_shot_noise_on_a_buffer_equals_evaluate(T):
    # a buffer of renewal.epoch_rows: rows narrower than _GATHER_WIDTH go
    # through one masked gather, wider ones through a slice per row; both
    # equal evaluate on each path bit for bit; at T = 300 the ages at tau
    # = T are more than numpy's pairwise block (128), at 0.3 T fewer
    law, h, n = Exponential(1.0), PowerDecay(0.25), 20
    rows = renewal.epoch_rows(law, T, ZERO_DELAYED,
                              substreams(21, (3,), range(n)), n)
    assert (rows.shape[1] < renewal._GATHER_WIDTH) == (T < 5000.0)
    times = (0.3 * T, T)
    got = shotnoise.shot_noise(rows, h, times)
    for i in range(n):
        p = _path(law, T, key=i)
        assert got[i].tolist() == [evaluate(p, h, tau) for tau in times]


def _finished(spec, path, u, t):
    """The statistic at (t, u) on one path: evaluate, then the regime's
    own arithmetic, one scalar at a time."""
    law, h, tau = spec.law, spec.h, u * t
    if spec.regime == NOSCALE_DRI:
        return evaluate(path, h, tau)
    if spec.regime == NOSCALE_CENTERED:
        return evaluate(path, h, tau) - h.integral(tau) / law.mean
    if spec.regime == D4:
        return evaluate(path, h, tau) * (float(law.tail_prob(t))
                                         / float(h.eval(t)))
    if isinstance(h, Constant):         # the _UNIT rule
        h = Constant(1.0)
    return ((evaluate(path, h, tau) - h.integral(tau) / law.mean)
            / (scaling_g(spec, t) * float(h.eval(t))))


_LADDER = ((0.5, 1.0, 2.0), (100.0, 200.0))  # tau 100 and 200 in both rungs
_D4_LADDER = ((0.5, 1.0, 2.0), (1000.0, 10000.0))


@pytest.mark.parametrize("spec, ladder, n, wide", [
    (LimitSpec(Exponential(1.0), ExpDecay(1.0)),
     _LADDER, 20, False),
    (LimitSpec(Exponential(1.0),
               PowerDecay(0.75)), _LADDER, 20, False),
    (LimitSpec(Exponential(1.0), PowerDecay(0.25)), _LADDER, 20, False),
    (LimitSpec(Exponential(1.0), PowerDecay(0.25)),
     ((0.5, 1.0, 2.0), (500.0, 1000.0)), 4, True),
    (LimitSpec(Pareto(2.0, 1.0), Constant(3.0)), _LADDER, 20, False),
    (LimitSpec(Pareto(1.5, 1.0), PowerDecay(0.25)), _LADDER, 20, False),
    (LimitSpec(Pareto(0.5, 1.0), PowerDecay(0.25)),
     _D4_LADDER, 200, False),
    (LimitSpec(Pareto(0.5, 1.0), ParetoTailMatch(0.5)),
     _D4_LADDER, 200, False),
], ids=["NOSCALE_DRI", "NOSCALE_CENTERED", "A1-gathered", "A1-sliced",
        "A2-constant", "A3", "D4-beta<alpha", "D4-beta=alpha"])
def test_every_rung_of_a_chunk_equals_evaluate(spec, ladder, n, wide):
    # one statistic call per buffer for every rung gives, entry by entry,
    # evaluate on the replicate's own path and the regime's arithmetic,
    # bit for bit
    (u_grid, ts), seed = ladder, 3
    T = max(u_grid) * ts[-1]
    widths = {b.shape[1] for b in renewal.epoch_batches(
        spec.law, T, ZERO_DELAYED, seed, (DOMAIN_REPLICATE,), range(n))}
    assert {w >= renewal._GATHER_WIDTH for w in widths} == {wide}
    if spec.regime == D4:               # some rows outgrow their first draw
        first = math.ceil(renewal.expected_count(spec.law, T))
        assert max(widths) > 1 + first
    got = verify._simulate_chunk(spec, u_grid, ts, seed, range(n))
    assert got.shape == (n, len(ts), len(u_grid))
    want = np.empty_like(got)
    for i in range(n):
        p = sample_path(spec.law, T, ZERO_DELAYED,
                        substream(seed, DOMAIN_REPLICATE, i))
        for r, t in enumerate(ts):
            want[i, r] = [_finished(spec, p, u, t) for u in u_grid]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 40])
def test_rung_constants_are_built_once_per_map(monkeypatch, n):
    # an A1 path to 2e4 fills a buffer by itself, so the 40 replicates are
    # 40 buffers; mu^-1 int_0^{ut} h (one integral per u) and g(t) are
    # computed once for the map, not once per buffer
    spec = LimitSpec(Exponential(1.0), PowerDecay(0.25))
    u_grid, t = (0.5, 1.0, 2.0), 1e4
    assert renewal._SUB_BATCH_EPOCHS < 1 + math.ceil(
        renewal.expected_count(spec.law, max(u_grid) * t))
    calls = {"integral": 0, "g": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(PowerDecay, "integral",
                        counted("integral", PowerDecay.integral))
    monkeypatch.setattr(shotnoise, "scaling_g",
                        counted("g", shotnoise.scaling_g))
    m = simulate_scaled_matrix(spec, u_grid, t, n, 1, threads=1)
    assert m.shape == (n, len(u_grid)) and np.all(np.isfinite(m))
    assert calls == {"integral": len(u_grid), "g": 1}


@pytest.mark.parametrize("width", [8, renewal._GATHER_WIDTH],
                         ids=["gathered", "sliced"])
def test_shot_noise_before_the_first_epoch_is_zero(width):
    # a row whose first epoch lies after tau and a row of +inf hold no
    # ages; the other row is cut at tau as evaluate cuts it
    h = PowerDecay(0.25)
    late = 10.0 + np.arange(width, dtype=float)
    early = np.arange(width, dtype=float)
    times = np.array([[5.0, 6.5], [0.0, 6.5]])
    got = shotnoise.shot_noise(np.stack([late, np.full(width, np.inf),
                                         early]), h, times)
    assert got.shape == (3, 2, 2)
    assert got[:2].tobytes() == np.zeros((2, 2, 2)).tobytes()
    p = RenewalPath(early, float(early[-1]))
    assert got[2].tolist() == [[evaluate(p, h, tau) for tau in rung]
                               for rung in times]
    assert shotnoise.shot_noise(np.full((2, width), np.inf), h,
                                (1.0, 3.0)).tobytes() == bytes(32)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(lengths=st.lists(st.integers(0, 300), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1), zeros=st.sampled_from([0.1, 1.0]))
@example(lengths=[7, 8, 15, 16, 127, 128, 129, 255, 256], seed=0, zeros=0.1)
@example(lengths=[0, 1, 300, 0], seed=1, zeros=0.1)
@example(lengths=[126, 127, 128, 129], seed=2, zeros=0.1)
@example(lengths=[129, 128, 127, 126], seed=3, zeros=1.0)
# every n % 8 and every lane part from 0 to 120 in one grid
@example(lengths=list(range(128)) * 3, seed=4, zeros=0.1)
@example(lengths=list(range(128))[::-1] + [300], seed=5, zeros=1.0)
# a grid 7 columns wide, and no grid at all
@example(lengths=list(range(8)) * 20, seed=6, zeros=0.1)
@example(lengths=list(range(8)) * 20, seed=7, zeros=1.0)
@example(lengths=[128, 300, 129, 255, 256], seed=8, zeros=0.1)
def test_row_sums_equal_np_add_reduce(lengths, seed, zeros):
    # each short slice as one row of the -0.0 grid and each long one by
    # np.add.reduce give np.add.reduce's bits; values of either sign and of
    # every magnitude from subnormals up to 1e300, with 0.0 and -0.0 mixed
    # in at the share `zeros` (1.0: every value is a signed zero)
    rng = np.random.default_rng(seed)
    total = sum(lengths)
    vals = (rng.choice([-1.0, 1.0], total) * rng.random(total)
            * 10.0 ** rng.uniform(-323.0, 300.0, total))
    share = rng.random(total)
    vals[share < zeros / 2] = 0.0
    vals[share > 1.0 - zeros / 2] = -0.0
    cut = np.cumsum([0] + lengths)
    want = np.array([np.add.reduce(vals[a:b])
                     for a, b in zip(cut, cut[1:])])
    got = shotnoise._row_sums(vals, np.array(lengths))
    assert got.tobytes() == want.tobytes()


def test_centered_statistic_centering():
    p = _path()
    law = Exponential(1.0)
    h = PowerDecay(0.75)
    spec = LimitSpec(law, h)
    u, t = np.array([0.5, 1.0]), 40.0
    got = scaled_statistic(spec, p, u, t)
    assert got.tolist() == [evaluate(p, h, tau) - h.integral(tau) / law.mean
                            for tau in u * t]


def test_solve_c_constant_ell_closed_form():
    # c^alpha = x_m^alpha t, so Pareto(3/2, 1) at t = 1000 gives c = 100
    assert solve_c(Pareto(1.5, 1.0), 1000.0) == pytest.approx(100.0, rel=1e-12)
    # c = x_m t^{1/alpha}: Pareto(1/2, 2) at t = 16 gives 2 * 16^2 = 512
    assert solve_c(Pareto(0.5, 2.0), 16.0) == pytest.approx(512.0, rel=1e-12)
    with pytest.raises(ValueError):     # no finite tail index, no tail scale
        solve_c(Exponential(1.0), 1000.0)


def test_solve_c_logarithmic_ell():
    # alpha = 2, x_m = 1: c^2 = 2 t ln c, upper root; at t = e^2/2 the
    # equation is c^2 = e^2 ln c^2 with upper root c = e... the bisection
    # must land on the larger solution of c^2 = 2 t ln c.
    law = Pareto(2.0, 1.0)
    t = 500.0
    c = solve_c(law, t)
    assert c > math.sqrt(t)          # upper root lies above the minimizer
    # c^2 = t E[xi^2 1{xi <= c}], the truncated second moment by quadrature
    # of the Pareto(2, 1) density 2 x^{-3} on [1, c]
    second, _ = integrate.quad(lambda x: x * x * 2.0 * x ** -3, 1.0, c,
                               epsabs=0.0, epsrel=1e-13)
    assert abs(c * c - t * second) < 1e-9 * c * c
    # no solution below t = e (minimum of c^2/ln c is 2e at c = sqrt(e))
    with pytest.raises(ValueError):
        solve_c(law, 2.0)


def test_scaling_g_formulas():
    a1 = LimitSpec(Exponential(2.0), Constant(1.0))
    law = a1.law
    assert scaling_g(a1, 100.0) == pytest.approx(
        math.sqrt(law.variance * law.mean ** -3 * 100.0), rel=1e-12)
    a3 = LimitSpec(Pareto(1.5, 1.0), PowerDecay(0.25))
    mu = Pareto(1.5, 1.0).mean
    assert scaling_g(a3, 1000.0) == pytest.approx(
        mu ** (-1 - 1 / 1.5) * 100.0, rel=1e-12)
    d4 = LimitSpec(Pareto(0.5, 1.0), PowerDecay(0.25))
    assert scaling_g(d4, 400.0) == pytest.approx(400.0 ** 0.5, rel=1e-12)
    with pytest.raises(InadmissibleSpec):
        scaling_g(LimitSpec(Exponential(1.0),
                            ExpDecay(1.0)), 10.0)


def test_constant_response_cancels_exactly():
    p = _path(T=220.0)
    for v in (1.0, 7.25):
        spec = LimitSpec(Exponential(1.0), Constant(v))
        got = scaled_statistic(spec, p, (1.0, 2.0), 100.0)
        if v == 1.0:
            base = got
    np.testing.assert_array_equal(base, got)


# (law, h, the regime they give, or the fragments of the refusal's
# message); the first rows pin the bounds each regime splits the plane by
_DERIVED = [
    (Exponential(1.0), ExpDecay(1.0), NOSCALE_DRI),     # integrable h
    (Exponential(1.0), Window(0.0, 1.0), NOSCALE_DRI),  # vanishes at large age
    (Uniform(0.5, 1.5), ExpDecay(1.0), NOSCALE_DRI),
    (Pareto(2.0, 1.0), ExpDecay(1.0), NOSCALE_DRI),     # not regularly
    (Pareto(1.5, 1.0), ExpDecay(1.0), NOSCALE_DRI),     # varying: no scaling
    (Exponential(1.0), PowerDecay(1.5), NOSCALE_DRI),   # beta > 1
    (Exponential(1.0), PowerDecay(1.0), NOSCALE_CENTERED),  # beta in (1/2, 1]
    (Exponential(1.0), PowerDecay(0.7), NOSCALE_CENTERED),
    (Uniform(0.5, 1.5), PowerDecay(0.75), NOSCALE_CENTERED),
    (Exponential(1.0), Constant(1.0), A1),              # finite variance
    (Exponential(1.0), PowerDecay(0.25), A1),           # beta < 1/2
    (Pareto(2.5, 1.0), PowerDecay(0.25), A1),           # alpha 2.5 caps to 2
    (Pareto(2.0, 1.0), PowerDecay(0.25), A2),           # tail index 2
    (Pareto(1.5, 1.0), Constant(1.0), A3),              # alpha in (1, 2)
    (Pareto(1.5, 1.0), PowerDecay(0.25), A3),
    (Pareto(0.5, 1.0), PowerDecay(0.25), D4),           # infinite mean
    (Pareto(0.5, 1.0), ParetoTailMatch(0.5), D4),       # beta = alpha
    (Pareto(1.5, 1.0), PowerDecay(0.8), ("[0, 1/alpha)", "alpha = 2")),
    (Pareto(1.5, 1.0), PowerDecay(0.75),
     ("NOSCALE_CENTERED needs finite variance",)),
    (Pareto(2.0, 1.0), PowerDecay(0.7), ("A2 requires beta in [0, 1/2)",)),
    (Pareto(1.0, 1.0), PowerDecay(0.25),
     ("alpha in (1, 2)", "alpha in (0, 1)")),
    (Pareto(0.5, 1.0), PowerDecay(0.75), ("D4 requires beta in [0, alpha]",)),
    (Pareto(0.5, 1.0), ExpDecay(1.0),
     ("NOSCALE_DRI needs a finite mean", "regularly varying")),
]


@pytest.mark.parametrize("law, h, want", _DERIVED, ids=[
    f"{law!r}-{h!r}".replace(" ", "") for law, h, _ in _DERIVED])
def test_regime_follows_from_law_and_response(law, h, want):
    if isinstance(want, str):
        assert LimitSpec(law, h).regime == want
        return
    with pytest.raises(InadmissibleSpec) as refused:
        LimitSpec(law, h)
    # the message names the pair and each row's first failed hypothesis
    msg = str(refused.value)
    assert all(f in msg for f in (repr(law), repr(h), *want)), msg
    assert all(f"{name} " in msg for name in REGIMES), msg


def test_no_two_regimes_admit_one_pair():
    laws = [Exponential(1.0), Uniform(0.5, 1.5), Gamma(2.0, 2.0)] + [
        Pareto(a) for a in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)]
    responses = [Constant(1.0), ExpDecay(1.0), Window(0.0, 1.0)] + [
        PowerDecay(b) for b in (0.0, 0.25, 0.5, 0.6, 2 / 3, 0.75, 0.8, 1.0,
                                1.25, 1.5, 2.0)] + [
        ParetoTailMatch(a) for a in (0.5, 0.75, 1.0, 1.5, 2.0)]
    seen = set()
    for law in laws:
        for h in responses:
            try:
                spec = LimitSpec(law, h)
            except InadmissibleSpec:
                continue
            holding = [name for name, row in REGIMES.items()
                       if all(ok(spec) for ok, _ in row.admits)]
            assert holding == [spec.regime], (law, h)
            seen.add(spec.regime)
    assert seen == set(REGIMES)


def test_scaled_statistic_validates_grid():
    p = _path(T=50.0)
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    with pytest.raises(ValueError):
        scaled_statistic(spec, p, (1.0, 2.0), 100.0)   # beyond horizon
    with pytest.raises(ValueError):
        scaled_statistic(spec, p, (2.0, 1.0), 10.0)    # not increasing


def test_a2_admits_tail_two_pareto():
    spec = LimitSpec(Pareto(2.0, 1.0), Constant(1.0))
    assert scaling_g(spec, 500.0) > 0


def test_default_x_star_truncation_needs_an_integrable_response():
    dri = LimitSpec(Exponential(1.0), ExpDecay(1.0))
    T = default_x_star_truncation(dri)
    assert x_star_tail_bound(dri.law, dri.h, T) <= 1e-9
    # the tail bound is inf for the non-integrable PowerDecay(0.75), and
    # for the integrable PowerDecay(1.5) it is still 1.7e-3 at the 1e6 cap
    centered = LimitSpec(Exponential(1.0), PowerDecay(0.75))
    slow = LimitSpec(Exponential(1.0), PowerDecay(1.5))
    for spec in (centered, slow):
        with pytest.raises(ValueError, match="x_star_truncation"):
            default_x_star_truncation(spec)


@pytest.mark.parametrize("h, integral", [(PowerDecay(1.2), 5.0),
                                         (ParetoTailMatch(1.1), 11.0),
                                         (ExpDecay(0.5), 2.0)], ids=repr)
def test_x_star_mean_is_the_whole_integral_over_mu(h, integral):
    # E X* = mu^{-1} int_0^inf h, with no cutoff of the slowly decaying h
    spec = LimitSpec(Exponential(2.0), h)
    assert REGIMES[NOSCALE_DRI].moment(spec, 1.0, 1) == pytest.approx(
        2.0 * integral, rel=1e-12)


def test_tail_matched_d4_floor_and_renewal_identity():
    # h = P(xi > .) with c = 1, so the D4 statistic is X(t) itself.  The
    # shot at S_0 = 0 adds h(t) to every path: X(t) >= h(t), and the ECDF
    # is 0 below h(t), so the KS distance to Exp(1) is at least
    # 1 - exp(-h(t)) whatever the draw.  E X(t) = 1 at every t, because
    # sum_k P(S_k <= t < S_{k+1}) = 1.
    spec = LimitSpec(Pareto(0.5, 1.0), ParetoTailMatch(0.5, 1.0, 1.0))
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
    LimitSpec(Exponential(1.0), ExpDecay(1.0)),
    LimitSpec(Exponential(1.0), PowerDecay(0.75)),
    LimitSpec(Exponential(1.0), PowerDecay(0.25)),
    LimitSpec(Pareto(2.0, 1.0), Constant(1.0)),
    LimitSpec(Pareto(1.5, 1.0), PowerDecay(0.25)),
    LimitSpec(Pareto(0.5, 1.0), PowerDecay(0.25)),
    LimitSpec(Pareto(0.5, 1.0), ParetoTailMatch(0.5, 1.0, 1.0)), ]


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
    for name in ("statistic", "exact", "moment"):
        assert getattr(regime, name) is not None, name
    # no normalizer exactly when the limit is stationary (no Hurst index)
    assert (regime.g is None) == (regime.hurst is None)
    # every scaled regime lists "h is regularly varying" first in its row
    assert (regime.g is not None) == (
        regime.admits[0] is _H_REGULARLY_VARYING)
    if regime.g is not None:
        assert scaling_g(spec, 100.0) > 0
        assert math.isfinite(regime.hurst(spec))
    stat = scaled_statistic(spec, _path(law=spec.law, T=220.0), (1.0, 2.0),
                            100.0)
    assert stat.shape == (2,) and np.all(np.isfinite(stat))
    assert math.isfinite(regime.moment(spec, 1.0, 1))
    # a row without a sampler has an exact CDF at every u; the CDF is
    # checked at the sorted draws where there are draws, else on a grid
    cdfs = [regime.exact(spec, u) for u in (1.0, 2.0)]
    if regime.reference is None:
        assert all(cdf is not None for cdf in cdfs)
        points = np.linspace(-3.0, 3.0, 61)
    else:
        refs = regime.reference(_scenario(spec, (1.0, 2.0)), _Pool(1).rows)
        assert refs.shape == (100, 2) and np.all(np.isfinite(refs))
        points = np.sort(refs[:, 0])
    if cdfs[0] is not None:
        q = np.asarray(cdfs[0](points))
        assert np.all((q > 0) & (q < 1)) and np.all(np.diff(q) >= 0)


def _scenario(spec, u_grid=(1.0,)):
    return Scenario(spec=spec, u_grid=u_grid, t_ladder=(100.0,),
                    replicates=100, seed=0, x_star_truncation=50.0,
                    reference_mesh_d=1e-2)


def test_d4_reference_column_does_not_depend_on_the_rest_of_the_grid():
    # one jump-epoch draw per row serves every u, and the epochs up to u do
    # not depend on the largest u of the grid
    spec = TABLE_SPECS[-2]
    one = _limit_reference_sample(_scenario(spec, (1.0,)), _Pool(1))
    two = _limit_reference_sample(_scenario(spec, (1.0, 2.0)), _Pool(1))
    assert one[:, 0].tobytes() == two[:, 0].tobytes()


def test_noscale_reference_columns_have_their_own_streams():
    # far-apart grid points once shared one stream key
    spec = TABLE_SPECS[0]
    scn = _scenario(spec, (2048.0, 4096.0))
    refs = _limit_reference_sample(scn, _Pool(1))
    assert not np.array_equal(refs[:, 0], refs[:, 1])


# Rescaling time maps one spec onto another exactly, and the engine draws
# gaps as law.transform of the same raw draws on both sides, so their
# matrices agree to rounding.  Exponential(r) gaps are Exponential(1) gaps
# over r: X at tau with response h equals, at r tau, the sum of the
# response a -> h(a / r), which is PowerDecay(beta, r c0) times r^beta or
# ExpDecay(lam / r).  Pareto(alpha, x_m) gaps are Pareto(alpha, 1) gaps
# times x_m: PowerDecay(beta, x_m) and ParetoTailMatch(alpha, x_m) at t
# are x_m^-beta times their x_m = 1 forms at t / x_m.  Each row is (spec,
# t, its image with scale 1, the image's t, the factor between the two
# statistics); a normalizer with a unit slip (t against ut, mu against
# 1/mu, a wrong power) breaks its row.
_A2_NOT_EQUIVARIANT = pytest.mark.xfail(strict=True, reason=(
    "A2's normalizer is not scale-equivariant: c(t) solves c^2 = 2 t x_m^2 "
    "ln(c/x_m), so with x_m = 3 it divides by sqrt(ln c_1(t) / "
    "ln c_1(t/3)) more than its image at t/3 (6.5% at t = 3000), where "
    "c_1 is the root for x_m = 1"))

_EQUIVARIANT_ROWS = [
    pytest.param(LimitSpec(Exponential(2.0), ExpDecay(1.0)),
                 100.0, LimitSpec(Exponential(1.0),
                                  ExpDecay(0.5)), 200.0, 1.0,
                 id="NOSCALE_DRI"),
    # the centered statistic is not normalized: X and mu^-1 int h both
    # carry the response's factor r^beta
    pytest.param(LimitSpec(Exponential(2.0),
                           PowerDecay(0.75)),
                 100.0, LimitSpec(Exponential(1.0),
                                  PowerDecay(0.75, 2.0)), 200.0, 2.0 ** 0.75,
                 id="NOSCALE_CENTERED"),
    pytest.param(LimitSpec(Exponential(2.0), PowerDecay(0.25)),
                 100.0, LimitSpec(Exponential(1.0), PowerDecay(0.25, 2.0)),
                 200.0, 1.0, id="A1"),
    pytest.param(LimitSpec(Pareto(2.0, 3.0), PowerDecay(0.25, 3.0)),
                 3000.0, LimitSpec(Pareto(2.0, 1.0), PowerDecay(0.25)),
                 1000.0, 1.0, id="A2", marks=_A2_NOT_EQUIVARIANT),
    pytest.param(LimitSpec(Pareto(1.5, 3.0), PowerDecay(0.25, 3.0)),
                 300.0, LimitSpec(Pareto(1.5, 1.0), PowerDecay(0.25)),
                 100.0, 1.0, id="A3"),
    pytest.param(LimitSpec(Pareto(0.5, 3.0), PowerDecay(0.25, 3.0)),
                 3000.0, LimitSpec(Pareto(0.5, 1.0), PowerDecay(0.25)),
                 1000.0, 1.0, id="D4-beta<alpha"),
    pytest.param(LimitSpec(Pareto(0.5, 3.0), ParetoTailMatch(0.5, 3.0)),
                 3000.0, LimitSpec(Pareto(0.5, 1.0), ParetoTailMatch(0.5)),
                 1000.0, 1.0, id="D4-beta=alpha"),
]


@pytest.mark.parametrize("spec, t, image, image_t, factor",
                         _EQUIVARIANT_ROWS)
def test_scale_equivariance(spec, t, image, image_t, factor):
    assert {p.values[0].regime for p in _EQUIVARIANT_ROWS} == set(REGIMES)
    u_grid = (0.5, 1.0, 2.0)
    got = simulate_scaled_matrix(spec, u_grid, t, 400, 3)
    want = simulate_scaled_matrix(image, u_grid, image_t, 400, 3)
    np.testing.assert_allclose(got, factor * want, rtol=1e-9, atol=0)
