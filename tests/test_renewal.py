"""Renewal path generation: counting identities, delay conventions, and
classical renewal-theoretic checks."""

import io
import math

import numpy as np
import pytest
from scipy import special, stats

from oracles import count, count_increment, undershoot
from renewalshot.laws import Exponential, Gamma, Pareto, Uniform
from renewalshot import renewal
from renewalshot.renewal import (STATIONARY, ZERO_DELAYED, count_at, dump_csv,
                                 sample_path)
from renewalshot.streams import substream, substreams
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
    q = renewal.RenewalPath(arrivals=np.array([7.0]), horizon=10.0)
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


def _whole_block_epochs(law, T, delay, rng):
    """The epochs <= T drawn 4096 gaps at a time: the stationary delay
    first, then each block's epochs as its start plus np.cumsum(gaps)."""
    last = float(law.stationary_delay(rng)) if delay == STATIONARY else 0.0
    if last > T:
        return np.empty(0)
    out = [np.array([last])]
    while last <= T:
        epochs = last + np.cumsum(law.sample(rng, 4096))
        out.append(epochs[epochs <= T])
        last = epochs[-1]
    return np.concatenate(out)


@pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.5, 2.0),
                                 Gamma(2.0, 2.0), Pareto(1.5, 1.0)],
                         ids=repr)
@pytest.mark.parametrize("delay", [ZERO_DELAYED, STATIONARY])
def test_epochs_do_not_depend_on_piece_sizes(law, delay):
    # sample_path draws ceil(expected_count) gaps at once, not 4096 at a
    # time; the epochs equal whole-block running sums on a twin stream,
    # for a short path and one of three blocks
    for T in (5.0 * law.mean, 9000.0 * law.mean):
        got = sample_path(law, T, delay, substream(10, 3, 0)).arrivals
        want = _whole_block_epochs(law, T, delay, substream(10, 3, 0))
        assert got.tobytes() == want.tobytes()
    assert len(got) > 2 * 4096


def test_sample_path_restarts_a_path_that_outgrows_the_first_draw():
    # Pareto(1/2) counts are heavy-tailed, so some of these paths outgrow
    # the first draw sized by expected_count: sample_path then restores
    # the stream's state on entry, draws the first piece again and more
    law, T = Pareto(0.5, 1.0), 2e4
    first = math.ceil(renewal.expected_count(law, T))
    outgrown = 0
    for i in range(60):
        got = sample_path(law, T, ZERO_DELAYED, substream(10, 3, i)).arrivals
        want = _whole_block_epochs(law, T, ZERO_DELAYED, substream(10, 3, i))
        assert got.tobytes() == want.tobytes()
        outgrown += len(got) - 1 >= first
    assert outgrown >= 1


def _rows_match_twins(rows, law, T, delay, seed):
    """Each row: its epochs <= T equal _whole_block_epochs on the twin
    stream substream(seed, 3, i), and the row stays sorted past T (drawn
    epochs, then +inf).  Returns N(T) per row."""
    n = np.count_nonzero(rows <= T, axis=1)
    for i, row in enumerate(rows):
        want = _whole_block_epochs(law, T, delay, substream(seed, 3, i))
        assert row[:n[i]].tobytes() == want.tobytes()
        assert np.all(row[n[i]:] > T) and np.all(row[:-1] <= row[1:])
    return n


def test_paths_that_outgrow_the_first_piece_keep_their_epochs():
    # Pareto(1/2) counts are heavy-tailed, so some paths outgrow the first
    # draw sized by expected_count and draw more from their own stream
    # before the next row's stream is keyed; one buffer of 200 rows
    law, T, rows = Pareto(0.5, 1.0), 2e4, 200
    got = renewal.epoch_rows(law, T, ZERO_DELAYED,
                             substreams(11, (3,), range(rows)), rows)
    n = _rows_match_twins(got, law, T, ZERO_DELAYED, 11)
    first = math.ceil(renewal.expected_count(law, T))
    assert got.shape[0] == rows and max(n) - 1 > first


def test_one_buffer_mixes_every_kind_of_row(monkeypatch):
    # stationary Pareto(1.3) gaps to T = 1e4 mu, first draws of half the
    # expected_count size: a heavy stationary delay and counts that spread
    # past the draw give, in one buffer, rows whose delay exceeds T
    # (empty), rows that end inside the first draw, rows that outgrow it,
    # and rows of three blocks or more
    sized = renewal.expected_count
    monkeypatch.setattr(renewal, "expected_count",
                        lambda law, T: 0.5 * sized(law, T))
    law, rows = Pareto(1.3, 1.0), 24
    T = 1e4 * law.mean
    got = renewal.epoch_rows(law, T, STATIONARY,
                             substreams(12, (3,), range(rows)), rows)
    n = _rows_match_twins(got, law, T, STATIONARY, 12)
    first = math.ceil(renewal.expected_count(law, T))
    gaps_used = n - 1                   # epochs <= T after the delay
    kinds = {"empty": n == 0,
             "inside the first draw": (n > 0) & (gaps_used < first),
             "outgrew it": gaps_used >= first,
             "three blocks": gaps_used > 2 * 4096}
    assert all(k.any() for k in kinds.values()), {
        name: int(k.sum()) for name, k in kinds.items()}
    assert np.all(np.isinf(got[n == 0]))


def test_finite_mean_infinite_variance_draw_holds_most_paths():
    # N(T) of Pareto(1.3) gaps spreads on the T^(1/1.3) scale of its
    # stable limit, so the first draw is sized by that scale: before it
    # was, 555 of these 2000 paths outgrew it
    law, T, n = Pareto(1.3, 1.0), 2e4, 2000
    counts = renewal.counts_at(law, (T,), ZERO_DELAYED, 1, (1,),
                               range(n))[:, 0]
    first = math.ceil(renewal.expected_count(law, T))
    assert np.count_nonzero(counts - 1 >= first) <= 20


def test_builder_refuses_rows_without_streams():
    with pytest.raises(ValueError, match="no stream 2"):
        renewal.epoch_rows(Exponential(1.0), 10.0, ZERO_DELAYED,
                           substreams(1, (3,), range(2)), 3)


@pytest.mark.parametrize("T", [math.inf, math.nan], ids=["inf", "nan"])
def test_nonfinite_horizon_is_refused(T):
    # inf used to overflow math.ceil, nan to fail converting to an integer,
    # and the shot cap let nan through (paths * nan > cap is False)
    law = Exponential(1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        sample_path(law, T, ZERO_DELAYED, substream(1, 3, 0))
    with pytest.raises(ValueError, match="positive and finite"):
        renewal.counts_at(law, (T,), ZERO_DELAYED, 1, (3,), range(2))
    with pytest.raises(ValueError, match="positive and finite"):
        renewal.check_shot_cap(law, T, 10, 1e8)


@pytest.mark.parametrize("law, T, delay", [
    (Pareto(0.5, 1.0), 2e4, ZERO_DELAYED),
    (Gamma(2.0, 2.0), 40.0, STATIONARY),
    (Exponential(1.0), 9000.0, ZERO_DELAYED),
], ids=["pareto", "gamma-stationary", "exponential-3-blocks"])
def test_counts_at_equals_path_lengths(law, T, delay):
    # more paths than one buffer holds, counted in buffers of
    # epoch_batches, at several t of each path
    n, ts = 300, (T / 4, T / 2, T)
    got = renewal.counts_at(law, ts, delay, 13, (3,), range(n))
    assert got.shape == (n, len(ts))
    for col, t in zip(got.T, ts):
        want = [len(sample_path(law, t, delay, substream(13, 3, i)))
                for i in range(n)]
        assert col.tolist() == want


@pytest.mark.parametrize("ts", [(), (1000.0, 5.0), (5.0, 1000.0, 999.0),
                                (math.nan, 5.0)],
                         ids=["empty", "decreasing", "decreasing-last", "nan"])
def test_counts_at_refuses_empty_or_decreasing_times(ts):
    # (1000, 5) drew each path only to 5 and read N(1000) = 31 on every
    # row (945, 1015 and 1019 in the order (5, 1000)); () raised IndexError
    with pytest.raises(ValueError, match="non-empty and non-decreasing"):
        renewal.counts_at(Exponential(1.0), ts, ZERO_DELAYED, 1, (3,),
                          range(3))


def test_counts_at_without_rows_is_empty():
    # numpy's "need at least one array to concatenate" before
    got = renewal.counts_at(Exponential(1.0), (5.0, 1000.0), ZERO_DELAYED, 1,
                            (3,), range(0))
    assert got.shape == (0, 2)
    assert got.tolist() == []


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
