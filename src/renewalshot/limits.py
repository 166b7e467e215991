"""Limiting processes and their closed-form moments.

Simulates stable Levy motion and the inverse stable subordinator, builds
the fractionally integrated functionals (for Levy motion by summation by
parts, weights (u-y_k)^{-beta} against increments, never the raw
singular kernel; for the inverse subordinator as a sum over the jump
epochs of the subordinator), and evaluates every moment and covariance of
the limits in closed form, with no quadrature and no cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import IncrementLaw, ResponseFunction
from .renewal import STATIONARY, sample_path
from .stable import (kanter, sample_stable, sample_subordinator_increment,
                     subordinator_scale)


@dataclass(frozen=True)
class ProcessPath:
    """A Levy motion on a regular grid."""
    grid: np.ndarray       # 0 = y_0 < ... < y_n <= u_max
    values: np.ndarray     # W(y_k)
    alpha: float

    def value_at(self, u: float) -> float:
        """W at the largest grid point <= u."""
        idx = np.searchsorted(self.grid, u * (1 + 1e-12), side="right") - 1
        if idx < 0:
            raise ValueError("u below the grid")
        return float(self.values[idx])


def simulate_levy_path(alpha: float, u_max: float, mesh: float,
                       stream: np.random.Generator) -> ProcessPath:
    """Levy motion on a regular grid: i.i.d. mesh^{1/alpha}-scaled stable
    increments (alpha = 2: Brownian motion with sqrt(mesh) Gaussians)."""
    if mesh <= 0 or u_max <= 0:
        raise ValueError("mesh and u_max must be positive")
    n = int(round(u_max / mesh))
    incs = mesh ** (1.0 / alpha) * sample_stable(alpha, stream, n)
    values = np.concatenate(([0.0], np.cumsum(incs)))
    grid = np.arange(n + 1) * mesh
    return ProcessPath(grid=grid, values=values, alpha=alpha)


def expected_jumps(alpha: float, u_max: float, mesh_d: float) -> int:
    """ceil(E W(u_max) / mesh_d): the expected count of jump epochs
    D_j <= u_max of the inverse subordinator discretised at step mesh_d,
    the first piece that simulate_inverse_subordinator_path transforms."""
    return math.ceil(moments_inverse_case(alpha, 0.0, u_max, 1) / mesh_d)


def simulate_inverse_subordinator_path(alpha: float, u_max: float,
                                       mesh_d: float,
                                       stream: np.random.Generator
                                       ) -> np.ndarray:
    """The jump epochs 0 = D_0 < D_1 < ... <= u_max of the inverse
    subordinator discretised at step mesh_d: D_j = D(j*mesh_d), where
    W = mesh_d * #{j : D_j <= u} jumps by mesh_d.  Increments are drawn
    in blocks of 2048 (2048 uniforms, then 2048 exponentials) until D
    passes u_max, so the epochs up to any u <= u_max do not depend on
    u_max.

    Only the prefix that is read gets Kanter's transform: the first
    block's exponentials are drawn and transformed in pieces, the first
    of ceil(E W(u_max) / mesh_d) increments and each later one twice the
    last, until an epoch passes u_max.  Each piece's cumsum starts from
    the last epoch, so the epochs are the running sum of the whole block,
    bit for bit.  A row that outgrows the first block draws the later
    ones whole, each summed as its last epoch plus its own cumsum."""
    if mesh_d <= 0 or u_max <= 0:
        raise ValueError("u_max and mesh_d must be positive")
    block = 2048
    piece = expected_jumps(alpha, u_max, mesh_d)
    scale = subordinator_scale(alpha, mesh_d)
    u = math.pi * stream.random(block)
    d = np.zeros(block + 1)
    a = 0
    while a < block and d[a] <= u_max:
        b = min(block, a + piece)
        d[a + 1:b + 1] = scale * kanter(alpha, u[a:b],
                                        stream.standard_exponential(b - a))
        np.cumsum(d[a:b + 1], out=d[a:b + 1])
        a, piece = b, 2 * piece
    d_vals = [d[:a + 1]]
    total = d[a]
    while total <= u_max:
        chunk = total + np.cumsum(
            sample_subordinator_increment(alpha, mesh_d, stream, block))
        d_vals.append(chunk)
        total = chunk[-1]
    d = np.concatenate(d_vals)
    return d[:np.searchsorted(d, u_max, side="right")]


def inverse_frac_integral(alpha: float, beta: float, u_points, mesh_d: float,
                          stream: np.random.Generator) -> np.ndarray:
    """int_[0,u] (u-y)^{-beta} dW(y) for the inverse subordinator W, at
    every u of u_points from one draw of its jump epochs D_j.

    W jumps by mesh_d at each D_j, so the integral is the shot noise
    mesh_d * sum_{D_j < u} (u - D_j)^{-beta}.  The sum keeps the jump at
    D_0 = 0, so for beta = 0 it is W(u) = mesh_d * #{j >= 0 : D_j <= u}
    (no D_j equals u almost surely), the upper O(mesh_d) approximation of
    the first-passage time of D over u.
    """
    _check_inverse_case(alpha, beta)
    u = np.asarray(u_points, dtype=float)
    if np.any(u <= 0):
        raise ValueError("u must be positive")
    d = simulate_inverse_subordinator_path(alpha, float(u.max()), mesh_d,
                                           stream)
    return np.array([mesh_d * np.sum((x - d[:d.searchsorted(x)]) ** -beta)
                     for x in u])


def frac_integral(path: ProcessPath, beta: float, u: float) -> float:
    """int_[0,u] (u-y)^{-beta} dW(y) by summation by parts on the path grid.

    Summation by parts of the defining formula over [0, u - delta] leaves
    the exact edge term (W(u) - W(u - delta)) * delta^{-beta}; only the
    remaining sliver integral over [u - delta, u] is dropped (delta = one
    grid cell), and that vanishes in the limit.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    if beta >= 1.0 / path.alpha:
        raise ValueError("need beta < 1/alpha for the Levy integrator")
    if u > path.grid[-1] * (1 + 1e-12):
        raise ValueError("u beyond the simulated grid")
    if beta == 0.0:
        return path.value_at(u)
    iu = int(np.searchsorted(path.grid, u * (1 + 1e-12), side="right") - 1)
    last = iu - 1                   # keep cells with y_{k+1} <= u - delta
    if last < 1:
        return 0.0
    y = path.grid[:last]
    dw = np.diff(path.values[: last + 1])
    core = float(np.sum(dw * (u - y) ** (-beta)))
    edge = float(path.values[iu] - path.values[last]) \
        * (u - float(path.grid[last])) ** (-beta)
    return core + edge


def marginal_sample_finite_mean(alpha: float, beta: float, u: float,
                                stream: np.random.Generator, size=None):
    """Exact marginal of the fractionally integrated Levy motion:
    u^{1/alpha - beta} (1 - alpha beta)^{-1/alpha} W_alpha(1)."""
    if alpha * beta >= 1:
        raise ValueError("need alpha * beta < 1")
    factor = u ** (1.0 / alpha - beta) / (1.0 - alpha * beta) ** (1.0 / alpha)
    return factor * sample_stable(alpha, stream, size)


def _check_inverse_case(alpha: float, beta: float) -> None:
    """The range of the inverse-subordinator limit."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0 <= beta <= alpha:
        raise ValueError("need 0 <= beta <= alpha for the inverse subordinator")


def moments_inverse_case(alpha: float, beta: float, u: float, k: int) -> float:
    """k-th moment of the fractionally integrated inverse subordinator:
    u^{k(alpha-beta)} k!/Gamma(1-alpha)^k * prod_j Gamma(1-beta+(j-1)(alpha-beta))
    / Gamma(j(alpha-beta)+1)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    _check_inverse_case(alpha, beta)
    if not u > 0:
        raise ValueError("u must be positive")
    if k > 170:     # k! overflows a float: say so before k Gamma ratios
        raise OverflowError("int too large to convert to float")
    # imported here: under scipy 1.17 scipy.special is three quarters of
    # the start-up time, and set-up evaluates it only for D4 moments
    from scipy.special import gamma as _gamma
    prod = 1.0
    for j in range(1, k + 1):
        prod *= (_gamma(1.0 - beta + (j - 1) * (alpha - beta))
                 / _gamma(j * (alpha - beta) + 1.0))
    return u ** (k * (alpha - beta)) * math.factorial(k) \
        / _gamma(1.0 - alpha) ** k * prod


def covariance_inverse_case(alpha: float, beta: float,
                            t1: float, t2: float) -> float:
    """E[Y(t1) Y(t2)] for the inverse-subordinator functional, t1 <= t2.

    The kernel integral over y in (0, t1) of y^{alpha-1} (t1-y)^{-beta}
    (t2-y)^{-beta} ((t1-y)^alpha + (t2-y)^alpha) is, term by term, Euler's
    integral int_0^{t1} y^{alpha-1} (t1-y)^p (t2-y)^q dy
    = t1^{alpha+p} t2^q B(alpha, p+1) 2F1(-q, alpha; alpha+p+1; t1/t2).
    """
    if not 0 < t1 <= t2:
        raise ValueError("need 0 < t1 <= t2")
    _check_inverse_case(alpha, beta)
    from scipy import special   # imported here, as in moments_inverse_case
    front = special.gamma(1.0 - beta) / (
        special.gamma(alpha) * special.gamma(1.0 - alpha) ** 2
        * special.gamma(1.0 + alpha - beta))
    z = t1 / t2
    own = (t1 ** (2.0 * alpha - beta) * t2 ** -beta
           * special.beta(alpha, alpha - beta + 1.0)
           * special.hyp2f1(beta, alpha, 2.0 * alpha - beta + 1.0, z))
    cross = ((t1 * t2) ** (alpha - beta) * special.beta(alpha, 1.0 - beta)
             * special.hyp2f1(beta - alpha, alpha, alpha - beta + 1.0, z))
    return front * (own + cross)


def stationary_covariance(alpha: float, s: float) -> float:
    """R(s) = 1/(Gamma(alpha)Gamma(1-alpha)) * int_{|s|}^inf
    (1-e^{-y})^{-alpha} e^{-alpha y} dy, the log-time covariance of the
    exponential-marginal process.  With x = e^{-y} this is the regularized
    incomplete beta function I_{e^{-|s|}}(alpha, 1 - alpha)."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    from scipy.special import betainc   # as in moments_inverse_case
    return betainc(alpha, 1.0 - alpha, math.exp(-abs(s)))


def x_star_tail_bound(law: IncrementLaw, h: ResponseFunction, T: float) -> float:
    """Deterministic bound on the mean truncation error of X* at level T:
    int_T^inf h / mu (stationary intensity is Lebesgue/mu), inf for a
    non-integrable h."""
    return (h.integral(math.inf) - h.integral(T)) / law.mean


def sample_X_star(law: IncrementLaw, h: ResponseFunction, T: float,
                  stream: np.random.Generator) -> float:
    """One draw of X* = sum_k h(S_k*), truncated at T."""
    if not h.integrable:
        raise ValueError("X* requires an integrable (d.R.i.) response")
    path = sample_path(law, T, STATIONARY, stream)
    return float(np.sum(h.eval(path.arrivals)))
