"""Renewal path generation and counting diagnostics.

Paths store arrival epochs (not increments) because the shot noise sum
indexes shots by their age t - S_k.  Generation stops at the first epoch
beyond the horizon and discards it, so N(t) is exact for every t up to
the horizon.
"""

from __future__ import annotations

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


def _epoch_blocks(law: IncrementLaw, T: float, delay_kind: str,
                  rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield blocks of epochs <= T; identical draw pattern for the list and
    iterator consumers, so both are bit-identical for the same stream."""
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
    while True:
        incs = law.sample(rng, _BLOCK)
        epochs = last + np.cumsum(incs)
        if epochs[-1] > T:
            yield epochs[epochs <= T]
            return
        last = epochs[-1]
        yield epochs


def sample_path(law: IncrementLaw, T: float, delay_kind: str,
                stream: np.random.Generator) -> RenewalPath:
    """Generate a renewal path on [0, T].  A stationary delay needs a
    finite-mean law; the law's stationary_delay raises otherwise."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    blocks = list(_epoch_blocks(law, T, delay_kind, stream))
    arrivals = np.concatenate(blocks) if blocks else np.empty(0)
    return RenewalPath(arrivals=arrivals, horizon=float(T),
                       delay_kind=delay_kind)


def iter_epochs(law: IncrementLaw, T: float, delay_kind: str,
                stream: np.random.Generator) -> Iterator[float]:
    """Stream epochs one by one without materializing the path."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    for block in _epoch_blocks(law, T, delay_kind, stream):
        yield from block


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
    """N(t) without retaining the path (block-streamed)."""
    n = 0
    for block in _epoch_blocks(law, t, delay_kind, rng):
        n += len(block)
    return n
