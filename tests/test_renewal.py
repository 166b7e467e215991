"""Renewal path generation: counting identities, delay conventions, and
classical renewal-theoretic checks."""

import io
import math

import numpy as np
import pytest
from scipy import special, stats

from renewalshot.laws import Exponential, Gamma, Pareto, Uniform
from renewalshot import renewal
from renewalshot.renewal import (STATIONARY, ZERO_DELAYED, count, count_at,
                                 count_increment, dump_csv, iter_epochs,
                                 sample_path, undershoot)
from renewalshot.streams import substream
from renewalshot.verify import ks_one_sample, ks_two_sample


def test_zero_delayed_starts_at_origin():
    p = sample_path(Exponential(1.0), 10.0, ZERO_DELAYED, substream(1, 3, 0))
    assert p.arrivals[0] == 0.0
    assert np.all(np.diff(p.arrivals) > 0)
    assert p.arrivals[-1] <= p.horizon


def test_stationary_starts_after_origin():
    p = sample_path(Uniform(0.5, 2.0), 50.0, STATIONARY, substream(1, 3, 1))
    assert p.arrivals[0] > 0.0


def test_stationary_requires_finite_mean():
    with pytest.raises(ValueError):
        sample_path(Pareto(0.5, 1.0), 10.0, STATIONARY, substream(1, 3, 2))
    with pytest.raises(ValueError):
        sample_path(Exponential(1.0), 10.0, "bogus", substream(1, 3, 2))


def test_poisson_counts():
    # zero-delayed Exponential(1): N(t) - 1 (the origin shot) ~ Poisson(t)
    t, n = 5.0, 20000
    counts = np.array([count_at(Exponential(1.0), t, ZERO_DELAYED,
                                substream(2, 3, r)) - 1 for r in range(n)])
    ks = np.arange(0, counts.max() + 1)
    pmf = stats.poisson(t).pmf(ks)
    obs = np.bincount(counts, minlength=len(ks)).astype(float)
    keep = pmf * n > 5
    chi2 = np.sum((obs[keep] - n * pmf[keep]) ** 2 / (n * pmf[keep]))
    p = stats.chi2(keep.sum() - 1).sf(chi2)
    assert p > 1e-3, (chi2, p)


def test_stationary_mean_count_exact():
    # E N*(t) = t / mu for every t under the stationary delay
    law, t, n = Gamma(2.0, 1.0), 20.0, 20000
    counts = np.array([count_at(law, t, STATIONARY, substream(2, 3, 1000 + r))
                       for r in range(n)])
    se = counts.std() / math.sqrt(n)
    assert abs(counts.mean() - t / law.mean) < 4 * se


def test_elementary_renewal_long_run():
    law = Uniform(0.5, 1.5)
    t = 1e6
    n = count_at(law, t, ZERO_DELAYED, substream(3, 3, 0))
    assert abs(n / t - 1.0 / law.mean) < 0.01 / law.mean


def test_count_and_increment_consistency():
    p = sample_path(Exponential(2.0), 100.0, ZERO_DELAYED, substream(4, 3, 0))
    for s, t in ((0.0, 100.0), (10.0, 30.0), (55.5, 55.5)):
        manual = int(np.sum((p.arrivals >= s) & (p.arrivals <= t)))
        assert count_increment(p, s, t) == manual
    assert count(p, 100.0) == len(p)
    with pytest.raises(ValueError):
        count(p, 101.0)
    with pytest.raises(ValueError):
        count_increment(p, 30.0, 10.0)


def test_undershoot_dynkin_arcsine():
    # Z(t)/t for Pareto(alpha<1) follows the generalized arcsine law with
    # CDF I_x(1-alpha, alpha)
    a, t, n = 0.5, 1000.0, 5000
    law = Pareto(a, 1.0)
    z = np.empty(n)
    for r in range(n):
        p = sample_path(law, t, ZERO_DELAYED, substream(5, 3, r))
        z[r] = undershoot(p, t) / t
    d, p_val = ks_one_sample(z, lambda x: special.betainc(1 - a, a, x))
    assert p_val > 1e-3, (d, p_val)


def test_undershoot_requires_an_arrival():
    p = sample_path(Pareto(0.5, 1.0), 10.0, ZERO_DELAYED, substream(5, 3, 0))
    assert undershoot(p, 10.0) >= 0.0
    # a stationary path whose first arrival exceeds t has no shot to age
    q = renewal.RenewalPath(arrivals=np.array([7.0]), horizon=10.0,
                            delay_kind=STATIONARY)
    with pytest.raises(ValueError):
        undershoot(q, 5.0)


def test_time_reversal_of_stationary_increments():
    # N*(t) - N*((t-s)-) =d N*(s) for the stationary version
    law = Gamma(2.0, 2.0)
    s, horizon, n = 4.0, 40.0, 4000
    rev = np.empty(n)
    fwd = np.empty(n)
    for r in range(n):
        p = sample_path(law, horizon, STATIONARY, substream(6, 3, r))
        rev[r] = count_increment(p, horizon - s, horizon)
        q = sample_path(law, s, STATIONARY, substream(6, 4, r))
        fwd[r] = count(q, s)
    d, p_val = ks_two_sample(rev, fwd)
    assert p_val > 1e-3, (d, p_val)


def test_iterator_and_list_paths_agree():
    law = Gamma(1.5, 1.0)
    a = sample_path(law, 200.0, STATIONARY, substream(7, 3, 0)).arrivals
    b = np.fromiter(iter_epochs(law, 200.0, STATIONARY, substream(7, 3, 0)),
                    dtype=float)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.5, 2.0),
                                 Gamma(2.0, 2.0), Pareto(1.5, 1.0)],
                         ids=repr)
@pytest.mark.parametrize("delay", [ZERO_DELAYED, STATIONARY])
def test_epochs_do_not_depend_on_piece_sizes(law, delay):
    # 9000 gaps span three 4096-gap blocks; first = 1 and 7 grow piece by
    # piece inside each block, 4096 draws whole blocks (sample_path)
    T = 9000.0 * law.mean
    blocks = [np.concatenate(list(renewal._epoch_blocks(
        law, T, delay, substream(10, 3, 0), first))) for first in (1, 7, 4096)]
    assert len(blocks[0]) > 2 * 4096
    for b in blocks[1:]:
        assert b.tobytes() == blocks[0].tobytes()


def test_own_stream_paths_equal_sample_path():
    # Pareto(1/2) counts are heavy-tailed, so some paths outgrow the first
    # piece sized by expected_count
    for law, T in ((Pareto(0.5, 1.0), 2e4), (Exponential(1.0), 1e4)):
        keys = range(200)
        got = list(renewal.own_stream_paths(
            law, T, (substream(11, 3, k) for k in keys)))
        want = [sample_path(law, T, ZERO_DELAYED, substream(11, 3, k))
                for k in keys]
        for a, p in zip(got, want):
            assert a.tobytes() == p.arrivals.tobytes()
        first = math.ceil(renewal.expected_count(law, T))
        assert max(len(a) for a in got) > min(first, 4096)


def test_count_at_agrees_with_path():
    law = Exponential(1.0)
    n_stream = count_at(law, 500.0, ZERO_DELAYED, substream(8, 3, 0))
    p = sample_path(law, 500.0, ZERO_DELAYED, substream(8, 3, 0))
    assert n_stream == len(p)


def test_dump_csv_format():
    p = sample_path(Exponential(1.0), 5.0, ZERO_DELAYED, substream(9, 3, 0))
    buf = io.StringIO()
    dump_csv(p, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,S_k"
    assert len(lines) == len(p) + 1
    k, s = lines[1].split(",")
    assert k == "0" and float(s) == 0.0
    assert "\r" not in buf.getvalue()
