"""Stable variates: parametrization, samplers, and the absolute-moment
formula."""

import math

import numpy as np
import pytest

from oracles import char_function
from renewalshot.stable import (abs_moment, sample_positive_stable,
                                sample_stable, sample_subordinator_increment,
                                stable_scale)
from renewalshot.streams import substream
from renewalshot.verify import ks_two_sample, moment_test


def test_scale_closed_form():
    # sigma^alpha = Gamma(1-alpha) cos(pi alpha / 2); at alpha = 3/2 this is
    # Gamma(-1/2) cos(3 pi/4) = 2 sqrt(pi) / sqrt(2), so sigma = (2 pi)^{1/3}
    assert stable_scale(1.5) == pytest.approx((2 * math.pi) ** (1 / 3), rel=1e-12)


def test_char_function_empirical():
    x = sample_stable(1.5, substream(11, 3, 0), 200000)
    for z in (-1.5, -0.4, 0.7, 2.0):
        emp = np.exp(1j * z * x).mean()
        assert abs(emp - char_function(1.5, z)) < 0.01, z


def test_gaussian_case():
    x = sample_stable(2.0, substream(11, 3, 1), 100000)
    assert abs(x.mean()) < 4 / math.sqrt(len(x))
    assert abs(x.std() - 1.0) < 0.01


def test_convolution_stability():
    a = sample_stable(1.5, substream(11, 3, 4), 20000)
    b = sample_stable(1.5, substream(11, 3, 5), 20000)
    c = sample_stable(1.5, substream(11, 3, 6), 20000)
    d, p = ks_two_sample((a + b) / 2 ** (1 / 1.5), c)
    assert p > 1e-3, (d, p)


def test_kanter_laplace_transform():
    # E exp(-s S) = exp(-s^alpha) for the normalized positive stable law
    s = sample_positive_stable(0.7, substream(11, 3, 7), 200000)
    assert np.all(s > 0)
    for lam in (0.5, 1.0, 2.0):
        emp = np.exp(-lam * s)
        se = emp.std() / math.sqrt(len(s))
        assert abs(emp.mean() - math.exp(-lam**0.7)) < 4 * se, lam


def test_subordinator_increment_transform():
    # D_alpha(dt) = (Gamma(1-alpha) dt)^{1/alpha} S, so at alpha = 1/2 and
    # dt = 1: E exp(-D) = exp(-sqrt(pi))
    d = sample_subordinator_increment(0.5, 1.0, substream(11, 3, 8), 200000)
    emp = np.exp(-d)
    se = emp.std() / math.sqrt(len(d))
    assert abs(emp.mean() - math.exp(-math.sqrt(math.pi))) < 4 * se


def test_subordinator_partition_sums():
    # summing four quarter-increments matches one unit increment in law
    parts = sum(sample_subordinator_increment(0.6, 0.25,
                                              substream(11, 3, 9, j), 20000)
                for j in range(4))
    whole = sample_subordinator_increment(0.6, 1.0, substream(11, 3, 10), 20000)
    d, p = ks_two_sample(parts, whole)
    assert p > 1e-3, (d, p)


def test_abs_moment_frozen_value():
    # independent quadrature pins E|W_{3/2}| = 3.4338141979...
    assert abs_moment(1.5, 1.0) == pytest.approx(3.433814197903721, rel=1e-10)


def test_abs_moment_gaussian_branch():
    assert abs_moment(2.0, 1.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
    assert abs_moment(2.0, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_abs_moment_empirical():
    x = sample_stable(1.5, substream(11, 3, 11), 200000)
    z = moment_test(np.abs(x), 1, abs_moment(1.5, 1.0))
    assert abs(z) < 4, z


def test_abs_moment_rejects_order_at_tail_index():
    with pytest.raises(ValueError):
        abs_moment(1.5, 1.5)
    with pytest.raises(ValueError):
        abs_moment(0.8, 1.0)
    with pytest.raises(ValueError, match="alpha = 1 is unsupported"):
        abs_moment(1.0, 0.5)


def test_alpha_validation():
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\]"):
        abs_moment(2.5, 0.5)
    with pytest.raises(ValueError):
        sample_stable(2.5, substream(0, 3, 0))
    with pytest.raises(ValueError):
        sample_positive_stable(1.0, substream(0, 3, 0))
