"""Renewal path generation and counting diagnostics.

Paths store arrival epochs (not increments) because the shot noise sum
indexes shots by their age t - S_k.  One builder, `epoch_rows`, makes
the epochs of every path: a buffer with one sorted row per stream, each
row drawn past the horizon and padded with +inf, so N(t) is exact for
every t up to the horizon.  `sample_path` is its one-row case, cut at
the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .laws import IncrementLaw

ZERO_DELAYED = "zero_delayed"
STATIONARY = "stationary"

_BLOCK = 4096
# epochs per buffer of epoch_batches: the statistic's vector passes over
# one buffer then stay cache-sized whatever the number of paths
_SUB_BATCH_EPOCHS = 2**13


@dataclass(frozen=True)
class RenewalPath:
    arrivals: np.ndarray          # sorted epochs S_k <= horizon
    horizon: float
    delay_kind: str

    def __len__(self):
        return len(self.arrivals)


def expected_count(law: IncrementLaw, T: float) -> float:
    """The up-front draw size of a path to T and the resource-cap
    estimate of N(T): T/mu plus ten times sqrt(T/mu + 1) for a finite
    mean; for an infinite-mean Pareto law the Mittag-Leffler mean
    (T/x_m)^a / (Gamma(1+a) Gamma(1-a)) plus 100.  It is not a bound:
    N(T)/T^a has a spread-out Mittag-Leffler limit, and 169 of the 2000
    Pareto(1/2) replicate paths to T = 2e4 at seed 1 exceed it."""
    if math.isfinite(law.mean):
        return T / law.mean + 10.0 * math.sqrt(T / law.mean + 1)
    a = law.tail_index
    return (T / law.xm) ** a / (math.gamma(1 + a) * math.gamma(1 - a)) + 100.0


def _fill_epochs(row: np.ndarray, start: float, gaps: np.ndarray) -> None:
    """row[0] = start and row[1 + j] the epoch after gap j: a sequential
    running sum inside each _BLOCK-gap block, plus the last epoch before
    the block."""
    row[0] = last = start
    for b in range(0, len(gaps), _BLOCK):
        block = row[1 + b:1 + b + _BLOCK]
        gaps[b:b + _BLOCK].cumsum(out=block)
        block += last
        last = block[-1]


def epoch_rows(law: IncrementLaw, T: float, delay_kind: str, streams,
               rows: int) -> np.ndarray:
    """The epochs of one renewal path on [0, T] per stream, for the next
    `rows` streams of the iterable `streams`: row i starts with the
    stationary delay (0 when zero-delayed) and holds the path's epochs in
    order, past the first one beyond T, then +inf padding.  A row whose
    delay exceeds T is all +inf.  So each row is sorted and N(t) for
    t <= T is the number of its entries <= t.

    A row draws ceil(expected_count(law, T)) gaps with one law.sample call
    and, while its last epoch is still <= T, as many again, from its own
    stream before the next stream is touched.  Its epochs are running sums
    inside 4096-gap blocks (see _fill_epochs), so neither the draw sizes
    nor the number of rows changes any epoch.  A stream serves one path:
    what is left of it depends on the draw sizes."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    if delay_kind not in (ZERO_DELAYED, STATIONARY):
        raise ValueError(f"unknown delay kind {delay_kind!r}")
    first = math.ceil(expected_count(law, T))
    out = np.full((rows, 1 + first), np.inf)
    longer = {}                 # rows that outgrew the first draw
    filled = 0
    for row, rng in zip(out, streams):
        filled += 1
        start = (float(law.stationary_delay(rng))
                 if delay_kind == STATIONARY else 0.0)
        if start > T:
            continue
        gaps = law.sample(rng, first)
        _fill_epochs(row, start, gaps)
        while row[len(gaps)] <= T:
            gaps = np.concatenate((gaps, law.sample(rng, len(gaps))))
            row = longer[filled - 1] = np.empty(1 + len(gaps))
            _fill_epochs(row, start, gaps)
    if filled < rows:
        raise ValueError(f"{rows} rows asked for, {filled} streams given")
    if longer:
        width = max(len(row) for row in longer.values())
        out = np.hstack((out, np.full((rows, width - out.shape[1]), np.inf)))
        for i, row in longer.items():
            out[i, :len(row)] = row
    return out


def epoch_batches(law: IncrementLaw, T: float, delay_kind: str, streams,
                  n: int) -> Iterator[tuple[int, np.ndarray]]:
    """epoch_rows for n paths, one per stream of `streams`, as (index of
    the first path, rows) in consecutive buffers: rows times the first
    draw's width is at most _SUB_BATCH_EPOCHS (one row at least)."""
    per = max(1, _SUB_BATCH_EPOCHS // (1 + math.ceil(expected_count(law, T))))
    for lo in range(0, n, per):
        yield lo, epoch_rows(law, T, delay_kind, streams, min(per, n - lo))


def counts_at(law: IncrementLaw, t: float, delay_kind: str, streams,
              n: int) -> np.ndarray:
    """N(t) on n fresh paths, one per stream of `streams`."""
    out = np.empty(n, dtype=np.intp)
    for lo, rows in epoch_batches(law, t, delay_kind, streams, n):
        out[lo:lo + len(rows)] = np.count_nonzero(rows <= t, axis=1)
    return out


def sample_path(law: IncrementLaw, T: float, delay_kind: str,
                stream: np.random.Generator) -> RenewalPath:
    """Generate a renewal path on [0, T]: the one-row case of epoch_rows.
    A stationary delay needs a finite-mean law; the law's
    stationary_delay raises otherwise.  Give every path its own stream."""
    row = epoch_rows(law, T, delay_kind, (stream,), 1)[0]
    return RenewalPath(arrivals=row[:row.searchsorted(T, side="right")],
                       horizon=float(T), delay_kind=delay_kind)


def _check_t(path: RenewalPath, t: float):
    if not (0 <= t <= path.horizon):
        raise ValueError(f"t={t} outside generated horizon [0, {path.horizon}]")


def count(path: RenewalPath, t: float) -> int:
    """N(t) = #{k : S_k <= t}."""
    _check_t(path, t)
    return int(np.searchsorted(path.arrivals, t, side="right"))


def undershoot(path: RenewalPath, t: float) -> float:
    """Z(t) = t - S_{N(t)-1}, the age of the last shot before t."""
    n = count(path, t)
    if n == 0:
        raise ValueError("no arrival at or before t on this path")
    return t - float(path.arrivals[n - 1])


def count_increment(path: RenewalPath, s: float, t: float) -> int:
    """N(t) - N(s-), the number of arrivals in the closed interval [s, t]."""
    if s > t:
        raise ValueError("need s <= t")
    _check_t(path, t)
    _check_t(path, s)
    hi = np.searchsorted(path.arrivals, t, side="right")
    lo = np.searchsorted(path.arrivals, s, side="left")
    return int(hi - lo)


def dump_csv(path: RenewalPath, fileobj) -> None:
    """One epoch per line, header `k,S_k`."""
    fileobj.write("k,S_k\n")
    for k, s in enumerate(path.arrivals):
        fileobj.write(f"{k},{float(s)!r}\n")


def count_at(law: IncrementLaw, t: float, delay_kind: str,
             rng: np.random.Generator) -> int:
    """N(t) on a fresh path from rng, without keeping the path."""
    return int(counts_at(law, t, delay_kind, (rng,), 1)[0])
