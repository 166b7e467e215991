"""Increment laws and response functions: exact metadata, sampling, and
the stationary-delay construction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from renewalshot.laws import (Constant, ExpDecay, Exponential, Gamma, Pareto,
                              ParetoTailMatch, PowerDecay, Uniform, Window)
from renewalshot.streams import substream
from renewalshot.verify import ks_one_sample


LAWS = [
    (Exponential(1.3), stats.expon(scale=1 / 1.3)),
    (Uniform(0.5, 2.0), stats.uniform(0.5, 1.5)),
    (Gamma(2.5, 1.7), stats.gamma(2.5, scale=1 / 1.7)),
    (Pareto(1.5, 1.0), stats.pareto(1.5)),
]


@pytest.mark.parametrize("law,dist", LAWS, ids=lambda x: type(x).__name__)
def test_sampling_matches_family(law, dist):
    rng = substream(101, 3, 1)
    x = law.sample(rng, 20000)
    d, p = ks_one_sample(x, dist.cdf)
    assert p > 1e-3, (d, p)


@pytest.mark.parametrize("law,dist", LAWS, ids=lambda x: type(x).__name__)
def test_tail_prob_matches_family(law, dist):
    t = np.linspace(0.1, 8.0, 40)
    np.testing.assert_allclose(law.tail_prob(t), dist.sf(t), atol=1e-12)


@pytest.mark.parametrize("law", [Exponential(2.0), Uniform(0.0, 3.0),
                                 Gamma(3.0, 2.0), Pareto(3.5, 2.0)],
                         ids=lambda x: type(x).__name__)
def test_mean_variance_monte_carlo(law):
    rng = substream(101, 3, 2)
    x = law.sample(rng, 200000)
    n = len(x)
    se_mean = x.std() / math.sqrt(n)
    assert abs(x.mean() - law.mean) < 4 * se_mean
    v = (x - x.mean()) ** 2
    se_var = v.std() / math.sqrt(n)
    assert abs(v.mean() - law.variance) < 4 * se_var


@pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.5, 2.0),
                                 Gamma(2.5, 1.7), Pareto(1.5, 1.0),
                                 pytest.param(Gamma(0.5, 1.0),
                                              id="Gamma-shape-below-1")],
                         ids=lambda x: type(x).__name__)
def test_stationary_delay_matches_stationary_cdf(law):
    rng = substream(101, 3, 3)
    x = law.stationary_delay(rng, 20000)
    d, p = ks_one_sample(x, law.stationary_cdf)
    assert p > 1e-3, (d, p)


@pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.5, 2.0),
                                 Gamma(2.5, 1.7), Pareto(1.5, 1.0)],
                         ids=lambda x: type(x).__name__)
def test_stationary_cdf_is_integrated_tail(law):
    # F*(t) = mu^{-1} int_0^t P(xi > x) dx, so dF*/dt = P(xi > t)/mu
    for t in (0.3, 0.9, 1.7, 3.1):
        eps = 1e-6
        deriv = (law.stationary_cdf(t + eps) - law.stationary_cdf(t - eps)) / (2 * eps)
        assert abs(deriv - float(law.tail_prob(t)) / law.mean) < 1e-5


def test_gamma_stationary_cdf_is_monotone():
    # 40 sorted t in [0, 100 mu] for each of 2000 random Gamma laws; the
    # CDF must not step down in the last bit where its tail rounds to 0
    rng = np.random.default_rng(11)
    for _ in range(2000):
        law = Gamma(rng.uniform(0.1, 20.0), rng.uniform(0.05, 5.0))
        t = np.sort(rng.uniform(0.0, 100.0 * law.mean, 40))
        f = law.stationary_cdf(t)
        assert np.all(np.diff(f) >= 0) and f[0] >= 0 and f[-1] <= 1, law


def test_pareto_metadata():
    law = Pareto(1.5, 2.0)
    assert law.tail_index == 1.5
    assert law.mean == pytest.approx(1.5 * 2.0 / 0.5)
    assert law.variance == math.inf
    assert law.tail_scale == 2.0
    heavy = Pareto(0.5, 1.0)
    assert heavy.mean == math.inf
    with pytest.raises(ValueError):
        heavy.stationary_delay(substream(0, 3, 0))


def test_law_parameter_validation():
    for bad in (lambda: Exponential(0.0), lambda: Uniform(2.0, 1.0),
                lambda: Uniform(-1.0, 1.0), lambda: Gamma(0.0, 1.0),
                lambda: Pareto(1.0, 0.0)):
        with pytest.raises(ValueError):
            bad()


# valid arguments of every law and response class
VALID_ARGS = {Exponential: (1.0,), Uniform: (0.5, 2.0), Gamma: (2.0, 1.0),
              Pareto: (1.5, 1.0), PowerDecay: (0.5, 1.0), ExpDecay: (1.0,),
              Window: (0.5, 2.0), Constant: (1.0,),
              ParetoTailMatch: (1.5, 1.0, 1.0)}
ONE_PARAMETER = [(cls, i) for cls, args in VALID_ARGS.items()
                 for i in range(len(args))]


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("cls, i", ONE_PARAMETER, ids=[
    f"{cls.__name__}.{dataclasses.fields(cls)[i].name}"
    for cls, i in ONE_PARAMETER])
def test_nonfinite_parameter_is_refused(cls, i, value):
    # an infinite rate made the mean 0 and a NaN passed every `x <= 0`
    # check; both reached the simulation
    args = list(VALID_ARGS[cls])
    cls(*args)
    args[i] = value
    with pytest.raises(ValueError, match="finite|< inf"):
        cls(*args)


# -- responses ---------------------------------------------------------------

RESPONSES = [PowerDecay(0.25), PowerDecay(1.0), PowerDecay(1.5, 0.7),
             ExpDecay(2.0), Window(0.5, 2.5), Constant(3.0),
             ParetoTailMatch(1.5, 1.0, 2.0), ParetoTailMatch(0.5)]


@pytest.mark.parametrize("h", RESPONSES, ids=lambda h: repr(h))
def test_integral_is_antiderivative(h):
    for T in (0.4, 1.0, 2.2, 7.0):
        eps = 1e-6
        num = (h.integral(T + eps) - h.integral(T - eps)) / (2 * eps)
        assert abs(num - float(h.eval(T))) < 1e-5, (h, T)


def test_window_half_open():
    h = Window(1.0, 2.0)
    assert float(h.eval(1.0)) == 1.0
    assert float(h.eval(2.0)) == 0.0
    assert float(h.eval(1.999999)) == 1.0
    assert h.integral(10.0) == pytest.approx(1.0)
    assert h.integral(0.5) == 0.0


# response -> (rv_index, integrable, dri, square_integrable), with the
# boundaries beta = 1/2 and beta = 1 of both regularly varying families
RESPONSE_FLAGS = [
    (PowerDecay(0.25), 0.25, False, False, False),
    (PowerDecay(0.5), 0.5, False, False, False),
    (PowerDecay(0.75), 0.75, False, False, True),
    (PowerDecay(1.0), 1.0, False, False, True),
    (PowerDecay(1.5, 0.7), 1.5, True, True, True),
    (ParetoTailMatch(0.5), 0.5, False, False, False),
    (ParetoTailMatch(0.75, 2.0, 3.0), 0.75, False, False, True),
    (ParetoTailMatch(1.0), 1.0, False, False, True),
    (ParetoTailMatch(1.5, 1.0, 2.0), 1.5, True, True, True),
    (ExpDecay(1.0), None, True, True, True),
    (Window(0.0, 1.0), None, True, True, True),
    (Constant(1.0), 0.0, False, False, False),
]


def test_response_flags():
    for h, rv, integrable, dri, square in RESPONSE_FLAGS:
        assert (h.rv_index, h.integrable, h.dri, h.square_integrable) == (
            rv, integrable, dri, square), h


def test_pareto_tail_match_is_scaled_tail():
    law = Pareto(0.5, 1.0)
    h = ParetoTailMatch(0.5, 1.0, 3.0)
    t = np.array([0.2, 1.0, 4.0, 1e4])
    np.testing.assert_allclose(h.eval(t), 3.0 * law.tail_prob(t),
                               rtol=1e-14)


def test_exp_decay_integral_exact():
    h = ExpDecay(2.0)
    assert h.integral(3.0) == pytest.approx((1 - math.exp(-6.0)) / 2.0)


ELEMENTWISE = settings(max_examples=50, derandomize=True, deadline=None,
                       database=None)
_UNIT_INTERVAL = st.floats(0.0, 1.0, exclude_max=True)


def _as_inputs(values):
    """The same values as an array, and each as a 0-d array and a float."""
    arr = np.array(values, dtype=float)
    return arr, [np.array(v) for v in values] + [float(v) for v in values]


@ELEMENTWISE
@given(rate=st.floats(1e-3, 1e3),
       u=st.lists(_UNIT_INTERVAL, min_size=1, max_size=20))
@example(rate=1.0, u=[0.0, 1e-300, 0.5, float(np.nextafter(1.0, 0.0))])
@example(rate=2.5, u=[1.0 - 2.0**-20, 1.0 - 2.0**-40, 1.0 - 2.0**-52])
def test_exponential_transform_is_its_closed_form(rate, u):
    # -log1p(-u) / rate bit for bit on arrays and scalars, and its input
    # left as it was
    law = Exponential(rate)
    arr, scalars = _as_inputs(u)
    before = arr.copy()
    got = law.transform(arr)
    assert got.tobytes() == (-np.log1p(-before) / rate).tobytes()
    assert arr.tobytes() == before.tobytes()
    for x in scalars:
        y = law.transform(x)
        assert np.ndim(y) == 0
        assert np.float64(y).tobytes() == np.float64(
            -np.log1p(-x) / rate).tobytes()


@ELEMENTWISE
@given(beta=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]),
       c0=st.floats(1e-3, 1e3),
       t=st.lists(st.floats(0.0, 1e12), min_size=1, max_size=20))
@example(beta=0.5, c0=1.0, t=[0.0, 1.0, 3.0, 1e300])
def test_power_decay_eval_is_its_closed_form(beta, c0, t):
    # (t + c0) ** -beta, its power taken in place, on arrays and scalars
    h = PowerDecay(beta, c0)
    arr, scalars = _as_inputs(t)
    before = arr.copy()
    got = h.eval(arr)
    assert got.tobytes() == ((before + c0) ** (-beta)).tobytes()
    assert arr.tobytes() == before.tobytes()
    for x in scalars:
        y = h.eval(x)
        assert np.ndim(y) == 0
        assert np.float64(y).tobytes() == np.float64(
            (x + c0) ** (-beta)).tobytes()


def test_exponential_stationary_delay_of_size_none_is_a_scalar():
    # rng.random() with size None is a float: transform must take it (an
    # in-place log1p(out=) on it raises TypeError)
    law = Exponential(2.0)
    x = law.stationary_delay(substream(101, 3, 2))
    assert np.ndim(x) == 0 and x > 0
    assert law.stationary_delay(substream(101, 3, 2), 3).shape == (3,)
