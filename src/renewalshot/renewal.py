"""Renewal path generation and the counting process N(t) on it.

Paths store arrival epochs (not increments) because the shot noise sum
indexes shots by their age t - S_k.  One builder, `epoch_rows`, makes
the epochs of every path: a buffer with one sorted row per stream, each
row drawn past the horizon and padded with +inf, so N(t) is exact for
every t up to the horizon.  `epoch_batches` walks the paths of a range
of streams in buffers of rows, and `counts_at` counts N(t) on them.
`sample_path` is the one-row case, cut at the horizon, that `path-dump`
writes with `dump_csv`; `count_at` is N(t) on one fresh path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .laws import IncrementLaw
from .streams import substreams

ZERO_DELAYED = "zero_delayed"
STATIONARY = "stationary"

_BLOCK = 4096
# epochs per buffer of epoch_batches: the statistic's vector passes over
# one buffer then stay cache-sized whatever the number of paths
_SUB_BATCH_EPOCHS = 2**14
# from this many entries per row a Python step per row costs less than a
# pass over the whole buffer: counts_at counts a wider buffer by one
# searchsorted per row, and shotnoise.shot_noise sums its ages by a slice
# per row and tau, not one masked gather (measured: A1 rows 2449 and 21416
# wide lose by the gather; D4 Pareto(1/2) buffers to 2e4 gain, which are
# 192 wide or, as one row that outgrew its first draw widens its whole
# buffer, 383 and more)
_GATHER_WIDTH = 1024


@dataclass(frozen=True)
class RenewalPath:
    arrivals: np.ndarray          # sorted epochs S_k <= horizon
    horizon: float

    def __len__(self):
        return len(self.arrivals)


def expected_count(law: IncrementLaw, T: float) -> float:
    """The up-front draw size of a path to T and the resource-cap
    estimate of N(T): T/mu plus ten times the spread of N(T) for a finite
    mean, sqrt(T/mu + 1) or, for an infinite variance (tail index
    1 < a <= 2, tail scale x_m) if larger, the scale
    (mu/x_m)^(-1-1/a) (T/x_m)^(1/a) of its stable limit; for an infinite
    mean the Mittag-Leffler mean (T/x_m)^a / (Gamma(1+a) Gamma(1-a)) plus
    100.  It is not a bound: N(T)/T^a has a spread-out Mittag-Leffler
    limit, and 169 of the 2000 Pareto(1/2) replicate paths to T = 2e4 at
    seed 1 exceed it.  Every path loop and the shot cap size by it, so
    it is where a horizon T that is not positive and finite is refused."""
    if not 0 < T < math.inf:
        raise ValueError("horizon must be positive and finite")
    if math.isfinite(law.variance):
        return T / law.mean + 10.0 * math.sqrt(T / law.mean + 1)
    a, xm = law.tail_index, law.tail_scale
    if not math.isfinite(law.mean):
        return (T / xm) ** a / (math.gamma(1 + a) * math.gamma(1 - a)) + 100.0
    spread = max(math.sqrt(T / law.mean + 1),
                 (law.mean / xm) ** (-1.0 - 1.0 / a) * (T / xm) ** (1.0 / a))
    return T / law.mean + 10.0 * spread


class ResourceCapExceeded(RuntimeError):
    pass


def check_shot_cap(law: IncrementLaw, T: float, paths: int,
                   max_shots: float) -> float:
    """The shots that `paths` paths to T hold by expected_count;
    ResourceCapExceeded, before anything is drawn, when that is more
    than max_shots."""
    shots = paths * expected_count(law, T)
    if shots > max_shots:
        raise ResourceCapExceeded(
            f"estimated shot count exceeds cap {max_shots:g}")
    return shots


def _fill_epochs(out: np.ndarray, start: np.ndarray, gaps: np.ndarray) -> None:
    """Row i of out: out[i, 0] = start[i] and out[i, 1 + j] the epoch after
    gap j of gaps[i], a sequential running sum inside each _BLOCK-gap
    block plus the last epoch before the block."""
    out[:, 0] = start
    last = start[:, None]
    for b in range(0, gaps.shape[1], _BLOCK):
        block = out[:, 1 + b:1 + b + _BLOCK]
        gaps[:, b:b + _BLOCK].cumsum(axis=1, out=block)
        block += last
        last = block[:, -1:]


def epoch_rows(law: IncrementLaw, T: float, delay_kind: str, stream,
               rows: int) -> np.ndarray:
    """The epochs of one renewal path on [0, T] per stream, for the
    generators stream(i), i < rows (see streams.substreams): row i starts
    with the stationary delay (0 when zero-delayed) and holds the path's
    epochs in order, past the first one beyond T, then +inf padding.  A
    row whose delay exceeds T is all +inf.  So each row is sorted and N(t)
    for t <= T is the number of its entries <= t.

    Per row only stream work runs: the stationary delay and law.draw of
    ceil(expected_count(law, T)) values into row i of one buffer.  Then
    law.transform, the running sums inside 4096-gap blocks (see
    _fill_epochs), the +inf rows and the test for a last epoch still
    <= T run once over the buffer.  A row that fails that test restarts
    its stream by calling stream(i) again, draws its delay and first draw
    once more, and then as many gaps again, and again.  So neither the
    draw sizes nor the number of rows changes any epoch.  A stream serves
    one path: what is left of it depends on the draw sizes."""
    if delay_kind not in (ZERO_DELAYED, STATIONARY):
        raise ValueError(f"unknown delay kind {delay_kind!r}")
    first = math.ceil(expected_count(law, T))
    stationary = delay_kind == STATIONARY
    draws = np.empty((rows, first))
    start = np.zeros(rows)
    for i in range(rows):
        rng = stream(i)
        if stationary:
            start[i] = law.stationary_delay(rng)
            if start[i] > T:
                draws[i] = 0.0      # drawn nothing; its row becomes +inf
                continue
        law.draw(rng, out=draws[i])
    gaps = law.transform(draws)
    out = np.empty((rows, 1 + first))
    _fill_epochs(out, start, gaps)
    if stationary:
        out[start > T] = np.inf
    longer = {}                 # rows that outgrew the first draw
    for i in np.flatnonzero(out[:, first] <= T).tolist():
        rng = stream(i)
        if stationary:
            law.stationary_delay(rng)
        law.draw(rng, first)
        row, g = out[i], gaps[i]
        while row[len(g)] <= T:
            g = np.concatenate((g, law.sample(rng, len(g))))
            row = longer[i] = np.empty(1 + len(g))
            _fill_epochs(row[None], start[i:i + 1], g[None])
    if longer:
        width = max(len(row) for row in longer.values())
        out = np.hstack((out, np.full((rows, width - out.shape[1]), np.inf)))
        for i, row in longer.items():
            out[i, :len(row)] = row
    return out


def epoch_batches(law: IncrementLaw, T: float, delay_kind: str, seed: int,
                  key: tuple, rows) -> Iterator[np.ndarray]:
    """epoch_rows for the paths of streams (seed, *key, i), i of rows, in
    consecutive buffers: a buffer's paths times the first draw's width is
    at most _SUB_BATCH_EPOCHS (one path at least)."""
    stream = substreams(seed, key, rows)
    per = max(1, _SUB_BATCH_EPOCHS // (1 + math.ceil(expected_count(law, T))))
    for lo in range(0, len(rows), per):
        yield epoch_rows(law, T, delay_kind, lambda i: stream(lo + i),
                         min(per, len(rows) - lo))


def counts_at(law: IncrementLaw, ts, delay_kind: str, seed: int, key: tuple,
              rows) -> np.ndarray:
    """(len(rows), len(ts)): N(t) for each t of the non-decreasing ts on
    the path of stream (seed, *key, i), i of rows, drawn once to ts[-1]
    (the path to t is its prefix).  A buffer at least _GATHER_WIDTH wide
    is counted by one searchsorted per row, a narrower one by a full-width
    <= per t: the same counts, as the rows are sorted."""
    if not len(ts) or not np.all(np.diff(ts) >= 0):
        raise ValueError("ts must be non-empty and non-decreasing")
    at = np.asarray(ts, dtype=float)
    counts = [
        np.array([row.searchsorted(at, side="right") for row in paths])
        if paths.shape[1] >= _GATHER_WIDTH else
        np.column_stack([np.count_nonzero(paths <= t, axis=1) for t in ts])
        for paths in epoch_batches(law, ts[-1], delay_kind, seed, key, rows)]
    return (np.concatenate(counts) if counts
            else np.zeros((0, len(ts)), dtype=np.intp))


def sample_path(law: IncrementLaw, T: float, delay_kind: str,
                stream: np.random.Generator) -> RenewalPath:
    """Generate a renewal path on [0, T]: the one-row case of epoch_rows.
    An outgrown row restarts by restoring the state stream had on entry.
    A stationary delay needs a finite-mean law; the law's
    stationary_delay raises otherwise.  Give every path its own stream."""
    state = stream.bit_generator.state

    def restart(i):
        stream.bit_generator.state = state
        return stream

    row = epoch_rows(law, T, delay_kind, restart, 1)[0]
    return RenewalPath(arrivals=row[:row.searchsorted(T, side="right")],
                       horizon=float(T))


def dump_csv(path: RenewalPath, fileobj) -> None:
    """One epoch per line, header `k,S_k`."""
    fileobj.write("k,S_k\n")
    for k, s in enumerate(path.arrivals):
        fileobj.write(f"{k},{float(s)!r}\n")


def count_at(law: IncrementLaw, t: float, delay_kind: str,
             rng: np.random.Generator) -> int:
    """N(t) on a fresh path from rng, without keeping the path."""
    return len(sample_path(law, t, delay_kind, rng))
