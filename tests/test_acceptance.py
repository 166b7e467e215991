"""End-to-end acceptance criteria.

Each criterion is one test that prints a single pass/fail line with its
measured quantities before asserting.  Tolerances are the published ones;
nothing here is tuned to the draw.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import integrate

from oracles import char_function, increment_dependence_gap
from renewalshot import cli, limits, renewal, shotnoise, verify
from renewalshot.laws import (Constant, ExpDecay, Exponential, Pareto,
                              ParetoTailMatch, PowerDecay)
from renewalshot.shotnoise import LimitSpec
from renewalshot.stable import abs_moment
from renewalshot.streams import substream
from renewalshot.verify import (energy_distance_test, ks_one_sample,
                                ks_one_sample_normal, ks_two_sample,
                                moment_test, simulate_scaled_matrix)


@pytest.fixture
def report(capsys):
    """Print one pass/fail line per criterion, bypassing capture."""
    def emit(num, ok, detail):
        with capsys.disabled():
            print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: "
                  f"{detail}", flush=True)
    return emit


def test_acceptance_1_renewal_clt_and_moment_convergence(report):
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    t0 = time.time()
    m = simulate_scaled_matrix(spec, (1.0,), 1e4, 10000, 1, max_shots=1e9)
    d, p = ks_one_sample_normal(m[:, 0], 0.0, 1.0)
    elapsed = time.time() - t0

    n = 100000
    dev = np.abs(renewal.counts_at(Exponential(1.0), (1e4,),
                                   renewal.ZERO_DELAYED, 5, (3, 500),
                                   range(n))[:, 0]
                 - 1e4)
    est = dev.mean() / 100.0
    lo, hi = 0.758, 0.838
    ok = p > 0.01 and elapsed < 60.0 and lo <= est <= hi
    report(1, ok, f"renewal CLT KS p={p:.4f} ({elapsed:.0f}s), "
                   f"E|N-t|/sqrt(t)={est:.4f} in [{lo}, {hi}]")
    assert p > 0.01
    assert elapsed < 60.0
    assert lo <= est <= hi


def test_acceptance_2_a1_with_decay_joint_structure(report):
    beta, n = 0.25, 5000
    spec = LimitSpec(Exponential(1.0), PowerDecay(beta))
    u_grid = (0.5, 1.0, 2.0)
    m = simulate_scaled_matrix(spec, u_grid, 1e4, n, 0, max_shots=1e9)
    ks_ps = []
    for j, u in enumerate(u_grid):
        var = u ** (1 - 2 * beta) / (1 - 2 * beta)
        _, p = ks_one_sample_normal(m[:, j], 0.0, var)
        ks_ps.append(p)
    ref = np.empty((n, 3))
    for r in range(n):
        path = limits.simulate_levy_path(2.0, 2.0, 2.0 / 8192,
                                         substream(0, 2, 5, r))
        for j, u in enumerate(u_grid):
            ref[r, j] = limits.frac_integral(path, beta, u)
    energy_ps = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        _, p = energy_distance_test(m[:, [i, j]], ref[:, [i, j]], seed=3)
        energy_ps.append(p)
    ok = all(p > 0.01 for p in ks_ps + energy_ps)
    report(2, ok, f"marginal KS p={['%.3f' % p for p in ks_ps]}, "
                   f"pairwise energy p={['%.3f' % p for p in energy_ps]}")
    assert all(p > 0.01 for p in ks_ps), ks_ps
    assert all(p > 0.01 for p in energy_ps), energy_ps


def test_acceptance_3_a3_stable_limit(report):
    spec = LimitSpec(Pareto(1.5, 1.0), PowerDecay(0.25))
    m = simulate_scaled_matrix(spec, (1.0,), 1e4, 10000, 0, max_shots=1e9)
    ref = limits.marginal_sample_finite_mean(1.5, 0.25, 1.0,
                                             substream(0, 2, 0), 10000)
    d, p = ks_two_sample(m[:, 0], ref)
    ok = p > 0.01
    report(3, ok, f"A3 two-sample KS D={d:.4f} p={p:.4f}")
    assert p > 0.01


def test_acceptance_4_infinite_mean_moments(report):
    spec = LimitSpec(Pareto(0.5, 1.0), PowerDecay(0.25))
    m = simulate_scaled_matrix(spec, (1.0,), 1e4, 100000, 0, max_shots=1e9)
    x = m[:, 0]
    z1 = moment_test(x, 1, limits.moments_inverse_case(0.5, 0.25, 1.0, 1))
    z2 = moment_test(x, 2, limits.moments_inverse_case(0.5, 0.25, 1.0, 2))
    ok = abs(z1) < 3 and abs(z2) < 3
    report(4, ok, f"D4 moments: mean={x.mean():.5f} (ref 0.76276, z={z1:.2f}), "
                   f"m2={np.mean(x**2):.5f} (ref 0.97118, z={z2:.2f})")
    assert abs(z1) < 3, z1
    assert abs(z2) < 3, z2


# The horizon of criterion 5 follows from a closed-form bound, not from
# the draw.  The renewal process is zero-delayed, so the shot at S_0 = 0
# adds h(t) = t^(-1/2) to every path, and here the statistic is X(t)
# itself (P(xi > t) / h(t) = 1).  Hence X(t) >= h(t), with an atom of mass
# P(S_1 > t) = t^(-1/2) at h(t): the ECDF is 0 below h(t), and the KS
# distance to Exp(1) is at least 1 - exp(-h(t)) on every draw.  At
# t = 1e4 that floor is 0.00995, almost twice the p = 0.01 critical value
# 1.63 / sqrt(n) = 0.00515 at n = 1e5, so t = 1e4 can never pass.  The
# horizon is the first decade at which (a) the floor is at most a tenth
# of the critical value (t >= 3.8e6) and (b) the moment bias measured on
# seeds other than 0 is under about half a standard error: t = 1e7.
def test_acceptance_5_exponential_limit(report):
    spec = LimitSpec(Pareto(0.5, 1.0), ParetoTailMatch(0.5, 1.0, 1.0))
    t = 1e7
    m = simulate_scaled_matrix(spec, (1.0,), t, 100000, 0, max_shots=1e9)
    x = m[:, 0]
    d, p = ks_one_sample(x, lambda q: -np.expm1(-np.maximum(q, 0.0)))
    floor = -math.expm1(-float(spec.h.eval(t)))
    zs = [moment_test(x, k, float(math.factorial(k))) for k in (1, 2, 3, 4)]
    ok = p > 0.01 and all(abs(z) < 3 for z in zs)
    report(5, ok, f"Exp(1) KS D={d:.5f} (S_0 floor {floor:.5f}) p={p:.4f}, "
                   f"moment z={['%.2f' % z for z in zs]}")
    assert p > 0.01, (d, p)
    for k, z in zip((1, 2, 3, 4), zs):
        assert abs(z) < 3, (k, z)


def test_acceptance_6_no_scaling_iid_copies(report):
    spec = LimitSpec(Exponential(1.0), ExpDecay(1.0))
    n = 10000
    m = simulate_scaled_matrix(spec, (1.0, 2.0), 1e3, n, 0, max_shots=1e9)
    trunc = shotnoise.default_x_star_truncation(spec)
    ps = []
    for j in (0, 1):
        ref = np.array([limits.sample_X_star(spec.law, spec.h, trunc,
                                             substream(0, 2, 10 + j, r))
                        for r in range(n)])
        _, p = ks_two_sample(m[:, j], ref)
        ps.append(p)
    rho = float(np.corrcoef(m[:, 0], m[:, 1])[0, 1])
    ok = all(p > 0.01 for p in ps) and abs(rho) < 3 / math.sqrt(n)
    report(6, ok, f"X* KS p={['%.3f' % p for p in ps]}, "
                   f"corr={rho:.4f} (bound {3 / math.sqrt(n):.4f})")
    assert all(p > 0.01 for p in ps), ps
    assert abs(rho) < 3 / math.sqrt(n), rho


def test_acceptance_7_formula_cross_checks(report):
    r0 = [abs(limits.stationary_covariance(a, 0.0) - 1.0)
          for a in (0.3, 0.5, 0.7)]

    rng = np.random.default_rng(7)
    diag = []
    for _ in range(5):
        a = rng.uniform(0.1, 0.9)
        b = rng.uniform(0.0, a)
        t = rng.uniform(0.5, 3.0)
        cov = limits.covariance_inverse_case(a, b, t, t)
        mom = limits.moments_inverse_case(a, b, t, 2)
        diag.append(abs(cov / mom - 1.0))

    # independent oracle: E|W| = (2/pi) int_0^inf (1 - Re phi(z)) / z^2 dz
    quad, _ = integrate.quad(lambda z: (1.0 - char_function(1.5, z).real)
                             / z**2,
                             0.0, np.inf, limit=400)
    indep = 2.0 / math.pi * quad
    closed = abs_moment(1.5, 1.0)

    gap = increment_dependence_gap(0.5, 0.25, 1.0, 2.0, 3.0)

    ok = (max(r0) < 1e-10 and max(diag) < 1e-6
          and abs(closed - indep) < 1e-9
          and abs(closed - 3.4343) < 1e-3 and abs(gap) > 1e-3)
    report(7, ok, f"R(0) err={max(r0):.1e}, diag err={max(diag):.1e}, "
                   f"E|W|={closed:.6f} (quad {indep:.6f}), gap={gap:.5f}")
    assert max(r0) < 1e-10
    assert max(diag) < 1e-6
    assert abs(closed - indep) < 1e-9
    assert abs(closed - 3.4343) < 1e-3
    assert abs(gap) > 1e-3


def test_acceptance_8_log_time_stationarity(report):
    a, n = 0.5, 10000
    mesh_d = 4e-4
    ys = np.array([limits.inverse_frac_integral(
        a, a, (1.0, 2.0), mesh_d, substream(77, 3, 400, r)) for r in range(n)])
    zs = {}
    for s, (i, j) in ((0.0, (0, 0)), (math.log(2.0), (0, 1))):
        ref = limits.stationary_covariance(a, s)
        zs[s] = verify.covariance_z(ys[:, i] - 1.0, ys[:, j] - 1.0, ref)
    ok = all(abs(z) < 3 for z in zs.values())
    report(8, ok, "log-time covariance z=" +
            ", ".join(f"s={s:.3f}: {z:.2f}" for s, z in zs.items()))
    for s, z in zs.items():
        assert abs(z) < 3, (s, z)


def test_acceptance_9_determinism_and_calibration(report, tmp_path,
                                                  monkeypatch):
    # 400 paths to t = 200 are far below the pool's threshold: set it to
    # 0 so that threads = 3 does split the rows over workers
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)
    config = tmp_path / "a1.ini"
    config.write_text("""\
[law]
family = exponential
rate = 1.0

[response]
kind = constant
value = 1.0

[regime]
name = A1
alpha = 2
beta = 0

[grid]
u = 1.0
t = 200

[run]
replicates = 400
seed = 7
plans = KS_MARGINAL
""")
    outs = []
    for threads in ("1", "3"):
        out = tmp_path / f"sim{threads}.csv"
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out),
                       "--threads", threads])
        assert rc == 0
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]

    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    scn = verify.Scenario(spec=spec, u_grid=(1.0,), t_ladder=(200.0,),
                          replicates=400, seed=7)
    reports_equal = (verify.run_scenario(scn).to_json()
                     == verify.run_scenario(scn).to_json())

    reps, rejections = 1000, 0
    for r in range(reps):
        rng = substream(43, 3, r)
        _, p = ks_two_sample(rng.normal(0, 1, 400), rng.normal(0, 1, 400))
        rejections += p <= 0.01
    rate = rejections / reps
    ok = identical and reports_equal and 0.001 <= rate <= 0.03
    report(9, ok, f"thread-identical={identical}, "
                   f"report-identical={reports_equal}, null rate={rate:.3f}")
    assert identical
    assert reports_equal
    assert 0.001 <= rate <= 0.03
