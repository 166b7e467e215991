"""Property tests: invariants of the laws, the responses, the paths and
the streams, checked on parameters drawn by hypothesis.  Examples are
derandomized, so every run checks the same ones."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from renewalshot.laws import (Constant, ExpDecay, Exponential, Gamma, Pareto,
                              ParetoTailMatch, PowerDecay, Uniform, Window)
from renewalshot.renewal import STATIONARY, ZERO_DELAYED, sample_path
from renewalshot import streams
from renewalshot.streams import substream, substreams

PROPERTY = settings(max_examples=50, derandomize=True, deadline=None,
                    database=None)

positive = st.floats(0.1, 10.0)
seeds = st.integers(0, 2**32 - 1)


def _interval(lo, width):
    return lo.flatmap(lambda a: width.map(lambda w: (a, a + w)))


FINITE_MEAN_LAWS = st.one_of(
    st.builds(Exponential, positive),
    _interval(st.floats(0.0, 2.0), st.floats(0.1, 3.0)).map(
        lambda ab: Uniform(*ab)),
    st.builds(Gamma, st.floats(0.2, 5.0), positive),
    st.builds(Pareto, st.floats(1.1, 4.0), st.floats(0.1, 5.0)),
)
LAWS = st.one_of(FINITE_MEAN_LAWS,
                 st.builds(Pareto, st.floats(0.3, 1.0), st.floats(0.1, 5.0)))
RESPONSES = st.one_of(
    st.builds(PowerDecay, st.floats(0.0, 3.0), st.floats(0.1, 5.0)),
    st.builds(ExpDecay, positive),
    _interval(st.floats(0.0, 20.0), st.floats(0.1, 20.0)).map(
        lambda ab: Window(*ab)),
    st.builds(Constant, positive),
    st.builds(ParetoTailMatch, st.floats(0.2, 3.0), st.floats(0.1, 5.0),
              positive),
)


@PROPERTY
@given(law=FINITE_MEAN_LAWS,
       ts=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=20))
@example(law=Uniform(0.2, 1.1), ts=[10.0])   # was 1 + 2^-52
def test_stationary_cdf_is_a_distribution_function(law, ts):
    # the drawn points, the origin, the mean and the law's kinks
    kinks = [getattr(law, k) for k in ("a", "b", "xm") if hasattr(law, k)]
    cdf = law.stationary_cdf(np.sort(ts + kinks + [0.0, law.mean]))
    assert np.all((cdf >= 0.0) & (cdf <= 1.0)), cdf
    assert np.all(np.diff(cdf) >= 0.0), cdf


@PROPERTY
@given(law=FINITE_MEAN_LAWS, seed=seeds)
def test_stationary_delay_lies_in_the_support(law, seed):
    x = law.stationary_delay(substream(seed, 3, 0), 200)
    assert np.all(x >= 0.0)
    if isinstance(law, Uniform):
        assert np.all(x <= law.b)


@PROPERTY
@given(h=RESPONSES, ab=_interval(st.floats(0.0, 50.0), st.floats(0.0, 50.0)))
def test_integral_is_an_antiderivative(h, ab):
    a, b = ab
    # where h has a kink or a jump, quad is told
    kinks = [getattr(h, k) for k in ("a", "b", "xm") if hasattr(h, k)]
    quad, _ = integrate.quad(lambda x: float(h.eval(x)), a, b, limit=200,
                             points=[k for k in kinks if a < k < b] or None)
    assert h.integral(b) - h.integral(a) == pytest.approx(quad, rel=1e-6,
                                                          abs=1e-8)


@PROPERTY
@given(law=LAWS, T=st.floats(0.01, 500.0), seed=seeds)
def test_zero_delayed_path_is_sorted_from_the_origin(law, T, seed):
    arrivals = sample_path(law, T, ZERO_DELAYED, substream(seed, 3, 1)).arrivals
    assert arrivals[0] == 0.0
    assert np.all(np.diff(arrivals) >= 0.0) and arrivals[-1] <= T


@PROPERTY
@given(law=FINITE_MEAN_LAWS, T=st.floats(0.01, 500.0), seed=seeds)
def test_stationary_path_is_sorted_inside_the_horizon(law, T, seed):
    arrivals = sample_path(law, T, STATIONARY, substream(seed, 3, 2)).arrivals
    assert np.all(arrivals >= 0.0) and np.all(arrivals <= T)
    assert np.all(np.diff(arrivals) >= 0.0)


# key elements of one word (0 included) and of two words
KEY_ELEMENTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**40))


@PROPERTY
@given(seed=st.integers(0, 2**70), key=st.lists(KEY_ELEMENTS, max_size=3),
       start=st.integers(1, 2**32 - 1), count=st.integers(1, 5))
@example(seed=2**70, key=[0, 2**32, 7], start=2**32 - 5, count=5)
@example(seed=0, key=[], start=1, count=1)
def test_substreams_draw_what_substream_draws(seed, key, start, count):
    indices = range(start, min(start + count, 2**32))
    for i, got in zip(indices, substreams(seed, key, indices), strict=True):
        want = substream(seed, *key, i)
        # 64-bit, 32-bit (half a word left over) and derived draws
        for draw in (lambda g: g.random(3),
                     lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                     lambda g: g.standard_normal(2)):
            assert draw(got).tobytes() == draw(want).tobytes()


@PROPERTY
@given(seed=st.integers(0, 2**70), key=st.lists(KEY_ELEMENTS, max_size=2),
       count=st.integers(2, 12), order=st.randoms(use_true_random=False))
def test_again_draws_what_substream_draws(seed, key, count, order):
    # every stream drawn first, then each again in shuffled order: the
    # re-key resets the counter, the buffer and the half word left over
    s = substreams(seed, key, range(count))
    for g in s:
        g.random(5)
        g.integers(0, 2**32, 3, dtype=np.uint32)
    indices = list(range(count))
    order.shuffle(indices)
    for i in indices:
        got, want = s.again(i), substream(seed, *key, i)
        for draw in (lambda g: g.integers(0, 2**32, 1, dtype=np.uint32),
                     lambda g: g.random(3),
                     lambda g: g.integers(0, 2**32, 3, dtype=np.uint32),
                     lambda g: g.standard_normal(2)):
            assert draw(got).tobytes() == draw(want).tobytes()


@pytest.mark.parametrize("indices", [[2**32], [0, 2**40], [-1], [3, -2]])
def test_substreams_reject_indices_outside_32_bits(indices):
    with pytest.raises(ValueError, match="indices"):
        substreams(0, (1,), indices)


def test_substreams_raise_on_a_key_mismatch(monkeypatch):
    inner = streams._philox_keys
    monkeypatch.setattr(streams, "_philox_keys",
                        lambda *args: inner(*args) ^ np.uint64(1))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        substreams(5, (1,), range(3))
