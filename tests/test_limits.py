"""Limit-process simulation and the closed-form formula layer."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from oracles import increment_dependence_gap
from renewalshot import limits
from renewalshot.laws import Exponential, ExpDecay, PowerDecay, Uniform
from renewalshot.limits import (ProcessPath, covariance_inverse_case,
                                frac_integral, inverse_frac_integral,
                                marginal_sample_finite_mean,
                                moments_inverse_case, sample_X_star,
                                simulate_inverse_subordinator_path,
                                simulate_levy_path, stationary_covariance,
                                x_star_tail_bound)
from renewalshot.stable import sample_subordinator_increment
from renewalshot.shotnoise import NOSCALE_CENTERED, REGIMES, LimitSpec
from renewalshot.streams import substream
from renewalshot.verify import (Scenario, _Pool, ks_one_sample_normal,
                                ks_two_sample, moment_test)


def _identity_path(cells=4096, alpha=0.9):
    grid = np.arange(cells + 1) / cells
    return ProcessPath(grid=grid, values=grid.copy(), alpha=alpha)


def test_beta_zero_recovers_the_path():
    p = simulate_levy_path(2.0, 1.0, 1 / 512, substream(31, 3, 0))
    assert frac_integral(p, 0.0, 1.0) == p.value_at(1.0)
    assert frac_integral(p, 0.0, 0.5) == p.value_at(0.5)


def test_identity_path_closed_form():
    # W(y) = y, beta = 1/2, u = 1: the defining formula evaluates to 2
    got = frac_integral(_identity_path(), 0.5, 1.0)
    assert got == pytest.approx(2.0, abs=0.05)
    # mesh refinement tightens the deterministic error
    errs = [abs(frac_integral(_identity_path(c), 0.5, 1.0) - 2.0)
            for c in (512, 4096, 32768)]
    assert errs[0] > errs[1] > errs[2]


def test_levy_marginal_gaussian_case():
    # alpha = 2, beta = 1/4, u = 1: Y ~ N(0, 2)
    n = 4000
    y = np.empty(n)
    for r in range(n):
        p = simulate_levy_path(2.0, 1.0, 1 / 4096, substream(31, 3, 100 + r))
        y[r] = frac_integral(p, 0.25, 1.0)
    d, pv = ks_one_sample_normal(y, 0.0, 2.0)
    assert pv > 1e-3, (d, pv)


def test_marginal_sample_finite_mean_scaling():
    rng = substream(31, 3, 1)
    a = marginal_sample_finite_mean(1.5, 0.25, 1.0, rng, 20000)
    rng2 = substream(31, 3, 2)
    b = marginal_sample_finite_mean(1.5, 0.25, 2.0, rng2, 20000)
    # self-similarity with Hurst index 1/alpha - beta
    d, pv = ks_two_sample(a * 2 ** (1 / 1.5 - 0.25), b)
    assert pv > 1e-3, (d, pv)
    with pytest.raises(ValueError):
        marginal_sample_finite_mean(1.5, 0.7, 1.0, rng)


def test_moments_inverse_case_values():
    # Gamma(3/4) / (Gamma(1/2) Gamma(5/4))
    assert moments_inverse_case(0.5, 0.25, 1.0, 1) == pytest.approx(
        0.7627597635018131, rel=1e-12)
    assert moments_inverse_case(0.5, 0.25, 1.0, 2) == pytest.approx(
        0.9711758940233491, rel=1e-12)
    # alpha = beta degenerates to the exponential law: k-th moment k!
    for k in (1, 2, 3, 4):
        assert moments_inverse_case(0.5, 0.5, 1.0, k) == pytest.approx(
            math.factorial(k), rel=1e-10)
    # u-scaling exponent k (alpha - beta)
    assert moments_inverse_case(0.5, 0.25, 2.0, 2) == pytest.approx(
        2 ** 0.5 * moments_inverse_case(0.5, 0.25, 1.0, 2), rel=1e-10)
    with pytest.raises(ValueError):
        moments_inverse_case(0.5, 0.25, 1.0, 0)
    # the limit needs 0 <= beta <= alpha and u > 0
    for alpha, beta, u in ((0.5, 0.9, 1.0), (0.5, -0.5, 1.0),
                           (0.5, 0.25, -1.0), (0.5, 0.25, 0.0)):
        with pytest.raises(ValueError):
            moments_inverse_case(alpha, beta, u, 2)


def test_moments_inverse_case_overflows_before_any_gamma(monkeypatch):
    # k! is above the float maximum for every k >= 171; that once raised
    # only after k Gamma ratios (13.5 s at k = 1e6)
    gamma = special.gamma
    calls = []

    def counting_gamma(x):
        calls.append(x)
        if len(calls) > 4:
            raise AssertionError("Gamma evaluated before the overflow")
        return gamma(x)

    monkeypatch.setattr(special, "gamma", counting_gamma)
    for k in (171, 10 ** 9):
        with pytest.raises(OverflowError):
            moments_inverse_case(0.5, 0.25, 1.0, k)
    assert calls == []
    assert math.isfinite(moments_inverse_case(0.5, 0.5, 1.0, 1))
    assert len(calls) == 3       # the patch reaches the function


def test_covariance_inverse_equals_second_moment_on_diagonal():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(0.02, 0.98)
        b = rng.uniform(0.0, a)
        t = rng.uniform(0.5, 3.0)
        cov = covariance_inverse_case(a, b, t, t)
        mom = moments_inverse_case(a, b, t, 2)
        assert cov == pytest.approx(mom, rel=1e-12), (a, b, t)


def test_covariance_inverse_matches_the_defining_integral():
    # independent oracle off the diagonal: the kernel integral with its
    # endpoint singularities y^{alpha-1} (t1-y)^{-beta} as quad's
    # algebraic weight (abs, because quad may step an ulp past t1)
    rng = np.random.default_rng(8)
    for _ in range(40):
        a = rng.uniform(0.02, 0.98)
        b = rng.uniform(0.0, a)
        t1 = rng.uniform(0.2, 3.0)
        t2 = t1 * rng.uniform(1.01, 20.0)
        front = special.gamma(1 - b) / (special.gamma(a)
                                         * special.gamma(1 - a) ** 2
                                         * special.gamma(1 + a - b))
        body, _ = integrate.quad(
            lambda y: (t2 - y) ** -b * (abs(t1 - y) ** a + (t2 - y) ** a),
            0.0, t1, weight="alg", wvar=(a - 1, -b), epsabs=0, epsrel=1e-10)
        assert covariance_inverse_case(a, b, t1, t2) == pytest.approx(
            front * body, rel=1e-9), (a, b, t1, t2)


def test_covariance_at_alpha_equals_beta_is_exponential():
    # beta = alpha: Y(t) ~ Exp(1), so E Y(t)^2 = 2, and off the diagonal
    # E[Y(t1) Y(t2)] - 1 is the log-time covariance R(log(t2/t1))
    assert covariance_inverse_case(0.9, 0.9, 1.0, 1.0) == pytest.approx(
        2.0, abs=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(300):
        a = rng.uniform(0.02, 0.98)
        t1 = rng.uniform(0.1, 3.0)
        t2 = t1 * rng.uniform(1.0, 50.0)
        cov = covariance_inverse_case(a, a, t1, t2)
        assert cov - 1.0 == pytest.approx(
            stationary_covariance(a, math.log(t2 / t1)), abs=1e-12), (a, t1, t2)


def test_covariance_inverse_ordering_precondition():
    with pytest.raises(ValueError):
        covariance_inverse_case(0.5, 0.25, 2.0, 1.0)
    with pytest.raises(ValueError):
        covariance_inverse_case(0.5, 0.25, 0.0, 1.0)
    with pytest.raises(ValueError, match="0 <= beta <= alpha"):
        covariance_inverse_case(0.5, 0.6, 1.0, 2.0)
    with pytest.raises(ValueError, match="0 <= beta <= alpha"):
        covariance_inverse_case(0.5, -0.1, 1.0, 2.0)
    with pytest.raises(ValueError):
        covariance_inverse_case(1.0, 0.5, 1.0, 2.0)


def test_stationary_covariance_closed_form():
    for a in (0.02, 0.3, 0.5, 0.7, 0.98):
        assert stationary_covariance(a, 0.0) == 1.0
    assert stationary_covariance(0.5, math.log(2.0)) == pytest.approx(0.5,
                                                                      abs=1e-15)
    # independent oracle at alpha = 1/2, the arcsine law:
    # R(s) = (2/pi) arcsin(e^{-|s|/2})
    for s in (0.05, 0.4, 1.2, 2.5, 10.0):
        oracle = 2 / math.pi * math.asin(math.exp(-s / 2))
        assert stationary_covariance(0.5, s) == pytest.approx(oracle,
                                                              rel=1e-14)
    assert stationary_covariance(0.5, -1.0) == stationary_covariance(0.5, 1.0)


def test_increment_dependence_gap():
    gap = increment_dependence_gap(0.5, 0.25, 1.0, 2.0, 3.0)
    assert abs(gap) > 1e-3
    assert gap == pytest.approx(-0.020006, abs=1e-4)
    # outside the inverse-subordinator range the check names the range,
    # not a pole that Gamma meets there
    with pytest.raises(ValueError, match="alpha must lie"):
        increment_dependence_gap(1.0, 0.25, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="0 <= beta <= alpha"):
        increment_dependence_gap(0.5, 1.0, 1.0, 2.0, 3.0)


def test_inverse_subordinator_mean():
    # E W_{1/2}(1) = 1/Gamma(3/2) * ... = 2/pi for the normalized D
    n, mesh_d = 20000, 1e-3
    w = np.empty(n)
    for r in range(n):
        w[r] = inverse_frac_integral(0.5, 0.0, (1.0,), mesh_d,
                                     substream(31, 3, 500 + r))[0]
    se = w.std() / math.sqrt(n)
    bias_allowance = 2 * mesh_d
    assert abs(w.mean() - 2 / math.pi) < 3 * se + bias_allowance


def test_frac_moments_match_formula():
    # Monte Carlo moments of Y_{1/2, beta}(1) against the closed form
    n = 3000
    for beta in (0.0, 0.25):
        y = np.empty(n)
        for r in range(n):
            y[r] = inverse_frac_integral(0.5, beta, (1.0,), 1e-3,
                                         substream(31, 3, 900 + r))[0]
        for k in (1, 2, 3, 4):
            ref = moments_inverse_case(0.5, beta, 1.0, k)
            z = moment_test(y, k, ref)
            assert abs(z) < 3, (beta, k, z)


def test_exponential_marginal_at_alpha_equals_beta():
    n = 2000
    y = np.empty(n)
    for r in range(n):
        y[r] = inverse_frac_integral(0.5, 0.5, (1.0,), 5e-4,
                                     substream(31, 3, 5000 + r))[0]
    ref = substream(31, 3, 9999).exponential(1.0, n)
    d, pv = ks_two_sample(y, ref)
    assert pv > 1e-3, (d, pv)


def test_inverse_self_similarity():
    # Y(2u) =d 2^{alpha-beta} Y(u) for the inverse-subordinator integrator
    a, b, n = 0.5, 0.25, 2000
    y1 = np.empty(n)
    y2 = np.empty(n)
    for r in range(n):
        y1[r] = inverse_frac_integral(a, b, (1.0,), 1e-3,
                                      substream(31, 4, r))[0]
        y2[r] = inverse_frac_integral(a, b, (2.0,), 1e-3,
                                      substream(31, 5, r))[0]
    d, pv = ks_two_sample(y1 * 2 ** (a - b), y2)
    assert pv > 1e-3, (d, pv)


def test_frac_integral_admissibility():
    p = simulate_levy_path(1.5, 1.0, 1 / 256, substream(31, 3, 3))
    with pytest.raises(ValueError):
        frac_integral(p, 0.8, 1.0)          # beta >= 1/alpha
    with pytest.raises(ValueError):
        frac_integral(p, 0.25, 2.0)         # beyond the grid
    with pytest.raises(ValueError):
        frac_integral(p, -0.1, 0.5)
    q = substream(31, 3, 4)
    with pytest.raises(ValueError):
        inverse_frac_integral(0.5, 0.6, (1.0,), 1e-2, q)   # beta > alpha
    with pytest.raises(ValueError):
        inverse_frac_integral(0.5, -0.1, (0.5,), 1e-2, q)
    with pytest.raises(ValueError, match="alpha must lie"):
        inverse_frac_integral(1.0, 0.25, (1.0,), 1e-2, q)
    with pytest.raises(ValueError):
        inverse_frac_integral(0.5, 0.25, (0.0, 1.0), 1e-2, q)
    with pytest.raises(ValueError):
        inverse_frac_integral(0.5, 0.25, (1.0,), 0.0, q)
    with pytest.raises(ValueError, match="alpha must lie"):
        simulate_inverse_subordinator_path(0.0, 1.0, 1e-2, q)


def test_one_epoch_draw_serves_every_u():
    # the epochs up to u do not depend on how far past u the draw runs
    both = inverse_frac_integral(0.5, 0.25, (1.0, 3.0), 1e-3,
                                 substream(31, 3, 6))
    each = [inverse_frac_integral(0.5, 0.25, (u,), 1e-3,
                                  substream(31, 3, 6))[0] for u in (1.0, 3.0)]
    assert both.tobytes() == np.array(each).tobytes()
    d = simulate_inverse_subordinator_path(0.5, 3.0, 1e-3, substream(31, 3, 6))
    assert d[0] == 0.0 and np.all(np.diff(d) > 0) and d[-1] <= 3.0
    w = inverse_frac_integral(0.5, 0.0, (3.0,), 1e-3, substream(31, 3, 6))
    assert w[0] == 1e-3 * len(d)             # beta = 0: W(u), D_0 counted


def _full_block_epochs(alpha, u_max, mesh_d, stream):
    """The jump epochs with every 2048-increment block drawn and
    transformed whole, each summed as its last epoch plus its cumsum."""
    d_vals = [np.array([0.0])]
    total = 0.0
    while total <= u_max:
        chunk = total + np.cumsum(
            sample_subordinator_increment(alpha, mesh_d, stream, 2048))
        d_vals.append(chunk)
        total = chunk[-1]
    d = np.concatenate(d_vals)
    return d[:np.searchsorted(d, u_max, side="right")]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_epochs_are_the_full_block_epochs(alpha):
    # only the prefix that is read is transformed; the epochs and both
    # functionals stay those of the whole block, bit for bit
    mesh_d = 2.5e-4
    blocks = set()
    for u_max in (0.5, 1.0, 2.0, 4.0, 7.0):
        for r in range(12):
            key = (31, 8, int(10 * alpha), int(u_max), r)
            want = _full_block_epochs(alpha, u_max, mesh_d, substream(*key))
            got = simulate_inverse_subordinator_path(alpha, u_max, mesh_d,
                                                     substream(*key))
            assert got.tobytes() == want.tobytes()
            blocks.add((len(want) - 1) // 2048 + 1)
            u = (u_max / 3, u_max)
            for beta in (0.0, alpha):
                y = inverse_frac_integral(alpha, beta, u, mesh_d,
                                          substream(*key))
                ref = [mesh_d * np.sum((x - want[:want.searchsorted(x)])
                                       ** -beta) for x in u]
                assert y.tobytes() == np.array(ref).tobytes()
    assert {1, 2, 3} <= blocks, blocks


def test_x_star_sampling():
    law = Exponential(1.0)
    h = ExpDecay(1.0)
    assert x_star_tail_bound(law, h, 30.0) == pytest.approx(math.exp(-30.0),
                                                            rel=1e-6)
    # int_T^inf h / mu exactly: 2 (T+1)^{-1/2} / mu for PowerDecay(1.5)
    assert x_star_tail_bound(Exponential(2.0), PowerDecay(1.5),
                             1e8) == pytest.approx(4 * (1e8 + 1) ** -0.5,
                                                   rel=1e-9)
    assert x_star_tail_bound(law, PowerDecay(0.75), 1e3) == math.inf
    n = 20000
    x = np.array([sample_X_star(law, h, 40.0, substream(31, 6, r))
                  for r in range(n)])
    se = x.std() / math.sqrt(n)
    # E X* = mu^{-1} int h = 1
    assert abs(x.mean() - 1.0) < 4 * se
    with pytest.raises(ValueError):
        sample_X_star(law, PowerDecay(0.25), 10.0, substream(0, 3, 0))


def test_x_star_centered_sampling():
    # the centered no-scaling reference: X* truncated at T minus
    # mu^{-1} int_0^T h, which has mean 0
    law = Uniform(0.5, 1.5)
    h = PowerDecay(0.75)
    n = 5000
    spec = LimitSpec(law, h)
    assert spec.regime == NOSCALE_CENTERED
    scn = Scenario(spec=spec, u_grid=(1.0,), t_ladder=(100.0,),
                   replicates=n, seed=31, x_star_truncation=300.0)
    x = REGIMES[NOSCALE_CENTERED].reference(scn, _Pool(1).rows)[:, 0]
    se = x.std() / math.sqrt(n)
    assert abs(x.mean()) < 4 * se
