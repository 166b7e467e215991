"""Renewal path generation and counting diagnostics.

Paths store arrival epochs (not increments) because the shot noise sum
indexes shots by their age t - S_k.  Generation stops at the first epoch
beyond the horizon and discards it, so N(t) is exact for every t up to
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


@dataclass(frozen=True)
class RenewalPath:
    arrivals: np.ndarray          # sorted epochs S_k <= horizon
    horizon: float
    delay_kind: str

    def __len__(self):
        return len(self.arrivals)


def expected_count(law: IncrementLaw, T: float) -> float:
    """A generous estimate of N(T) on one path: T/mu plus ten times
    sqrt(T/mu + 1) for a finite mean; for an infinite-mean Pareto law the
    Mittag-Leffler mean (T/x_m)^a / (Gamma(1+a) Gamma(1-a)) plus 100."""
    if math.isfinite(law.mean):
        return T / law.mean + 10.0 * math.sqrt(T / law.mean + 1)
    a = law.tail_index
    return (T / law.xm) ** a / (math.gamma(1 + a) * math.gamma(1 - a)) + 100.0


def _epoch_blocks(law: IncrementLaw, T: float, delay_kind: str,
                  rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield pieces of the epochs <= T, in order.

    Gaps come in blocks of _BLOCK; a block's epochs are the block's start
    plus the running sum of its gaps.  Within a block the gaps are drawn in
    pieces, the path's first piece sized by expected_count and each later
    one as large as all drawn before it in the block, and the running sum
    continues exactly from piece to piece, so the epochs do not depend on
    the piece sizes."""
    if delay_kind == STATIONARY:
        start = float(law.stationary_delay(rng))
    elif delay_kind == ZERO_DELAYED:
        start = 0.0
    else:
        raise ValueError(f"unknown delay kind {delay_kind!r}")
    if start > T:
        return
    last = start
    yield np.array([start])
    piece = int(min(_BLOCK, math.ceil(expected_count(law, T))))
    while True:
        run, drawn = 0.0, 0
        while drawn < _BLOCK:
            sums = np.cumsum(np.concatenate(([run], law.sample(rng, piece))))[1:]
            epochs = last + sums
            if epochs[-1] > T:
                yield epochs[epochs <= T]
                return
            yield epochs
            run, drawn = sums[-1], drawn + piece
            piece = min(drawn, _BLOCK - drawn)
        last, piece = epochs[-1], _BLOCK


def sample_path(law: IncrementLaw, T: float, delay_kind: str,
                stream: np.random.Generator) -> RenewalPath:
    """Generate a renewal path on [0, T].  A stationary delay needs a
    finite-mean law; the law's stationary_delay raises otherwise.

    A stream serves one path: the path draws about as many gaps as it
    uses, so what is left of the stream depends on how the gaps were
    sized.  Give every path its own stream."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    blocks = list(_epoch_blocks(law, T, delay_kind, stream))
    arrivals = np.concatenate(blocks) if blocks else np.empty(0)
    return RenewalPath(arrivals=arrivals, horizon=float(T),
                       delay_kind=delay_kind)


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
    return len(sample_path(law, t, delay_kind, rng))
