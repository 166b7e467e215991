"""The benchmark's three workloads and the checks on their outputs.

Each workload is built once from INI configs (parsed by `cli.load_config`,
as the command line does) and then runs the same job again and again.  A
job returns a dict of sha256 digests of everything it produced; keys that
contain "@" hold data that records the thread count (a report's scenario
echo), all other keys must be identical at every thread count.

A job is a list of steps; the runner times each step and a calibration
loop around it (see `calibrate`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from renewalshot import cli, limits, streams, verify


class OutputError(RuntimeError):
    """A job produced output of the wrong shape, non-finite values, an
    unexpected exit code, or digests that differ between runs."""


def sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class MatrixProbe:
    """Times each `verify.simulate_scaled_matrix` call and checks and hashes
    the matrix it returns; always installed, traced or not."""

    def __init__(self):
        self.calls = []            # (replicates, seconds, digest)

    def install(self):
        inner = verify.simulate_scaled_matrix

        def probed(spec, u_grid, t, n, *args, **kwargs):
            t0 = time.perf_counter()
            m = inner(spec, u_grid, t, n, *args, **kwargs)
            seconds = time.perf_counter() - t0
            if m.shape != (n, len(u_grid)) or not np.all(np.isfinite(m)):
                raise OutputError(f"scaled matrix has shape {m.shape} or "
                                  f"non-finite entries")
            self.calls.append((n, seconds, sha(m)))
            return m

        verify.simulate_scaled_matrix = probed


def _finite(x):
    return x is None or (isinstance(x, (int, float)) and math.isfinite(x))


def check_records(records, expected):
    """records: dicts with the TestRecord fields."""
    if len(records) != expected:
        raise OutputError(f"{len(records)} test records, expected {expected}")
    for r in records:
        p = r["p_value"]
        if not (_finite(r["statistic"]) and _finite(r["reference"])
                and _finite(r["z_score"]) and (p is None or 0.0 <= p <= 1.0)):
            raise OutputError(f"bad test record {r}")


def report_digest(report, defects) -> str:
    try:
        text = report.to_json()
    except TypeError as exc:
        # MEAN_ABS_N stores numpy.bool_ in TestRecord.passed, which the
        # json module rejects; `renewalshot verify` then exits 2.
        defects.add(f"TestReport.to_json raises TypeError: {exc}")
        text = json.dumps([dataclasses.asdict(r) for r in report.records],
                          sort_keys=True, default=lambda o: o.item())
    return sha(text)


def check_report(report, expected):
    check_records([dataclasses.asdict(r) for r in report.records], expected)


def _write_config(outdir: Path, name: str, text: str) -> Path:
    path = outdir / f"{name}.ini"
    path.write_text(text, encoding="utf-8")
    return path


def _load(path):
    spec, kw, _ = cli.load_config(str(path))
    return verify.Scenario(spec=spec, threads=1, **kw)


GRID = """
[grid]
u = 0.5, 1, 2
t = 1000, 10000
"""

D4_INI = """
[law]
family = pareto
alpha = 0.5
xm = 1
[response]
kind = paretotailmatch
alpha = 0.5
xm = 1
c = 1
[regime]
name = D4
alpha = 0.5
beta = 0.5
""" + GRID + """
[run]
replicates = {n}
seed = {seed}
plans = KS_MARGINAL, MOMENTS:4
"""

A1_INI = """
[law]
family = exponential
rate = 1
[response]
kind = powerdecay
beta = 0.25
c0 = 1
[regime]
name = A1
alpha = 2
beta = 0.25
""" + GRID + """
[run]
replicates = {n}
seed = {seed}
plans = KS_MARGINAL, MOMENTS:4
"""

REF_A_INI = """
[law]
family = pareto
alpha = 0.5
xm = 1
[response]
kind = powerdecay
beta = 0.25
c0 = 1
[regime]
name = D4
alpha = 0.5
beta = 0.25
""" + GRID + """
[run]
replicates = {n}
seed = {seed}
plans = KS_MARGINAL, SELF_SIMILARITY
"""

REF_B_INI = A1_INI.replace("t = 1000, 10000", "t = 10000")

REF_C_INI = """
[law]
family = gamma
shape = 2
rate = 2
[response]
kind = expdecay
lam = 1
[regime]
name = NOSCALE_DRI
[grid]
u = 1, 2
t = 100
[run]
replicates = {n}
seed = {seed}
plans = KS_MARGINAL, JOINT_PAIRWISE_INDEPENDENCE, TIME_REVERSAL
"""


def _inputs(scn, **extra):
    s = scn.spec
    return dict(regime=s.regime, alpha=s.alpha, beta=s.beta, law=repr(s.law),
                response=repr(s.h), u_grid=list(scn.u_grid),
                t_ladder=list(scn.t_ladder), n=scn.replicates,
                plans=list(scn.plans), seed=scn.seed, **extra)


class CliVerify:
    """`renewalshot verify` run in-process through `cli.main`, plus plans
    run through `verify.run_scenario` when `library_plans` is given."""

    def __init__(self, name, ini, n, seed, outdir, expected, library_plans=(),
                 library_expected=0):
        self.name = name
        self.config = _write_config(outdir, name, ini.format(n=n, seed=seed))
        self.out = outdir / name
        self.expected = expected
        scn = _load(self.config)
        self.library = (dataclasses.replace(scn, plans=library_plans)
                        if library_plans else None)
        self.library_expected = library_expected
        self.inputs = _inputs(scn, library_plans=list(library_plans))

    def steps(self, threads, defects):
        steps = [lambda: self._verify(threads)]
        if self.library is not None:
            steps.append(lambda: self._library(threads, defects))
        return steps

    def _verify(self, threads):
        rc = cli.main(["verify", "--config", str(self.config),
                       "--out", str(self.out), "--threads", str(threads)])
        if rc not in (cli.EXIT_OK, cli.EXIT_FAILED):
            raise OutputError(f"renewalshot verify exited {rc}")
        texts = {ext: Path(f"{self.out}{ext}").read_text(encoding="utf-8")
                 for ext in (".json", ".csv", ".plot.csv")}
        report = json.loads(texts[".json"])
        if report["all_passed"] != (rc == cli.EXIT_OK):
            raise OutputError(f"exit {rc} disagrees with all_passed")
        check_records(report["records"], self.expected)
        cells = len(self.inputs["u_grid"]) * len(self.inputs["t_ladder"])
        if (texts[".csv"].count("\n") != self.expected + 1
                or texts[".plot.csv"].count("\n") != 101 * cells + 1):
            raise OutputError("report CSV has the wrong number of rows")
        return {f"{self.name}.json@{threads}": sha(texts[".json"]),
                f"{self.name}.csv": sha(texts[".csv"]),
                f"{self.name}.plot.csv": sha(texts[".plot.csv"])}

    def _library(self, threads, defects):
        rep = verify.run_scenario(dataclasses.replace(self.library, threads=threads))
        check_report(rep, self.library_expected)
        return {f"{self.name}.library@{threads}": report_digest(rep, defects)}


def levy_reference(alpha, beta, u_grid, n, seed):
    """Acceptance-2 references: fractional integrals of one Brownian path
    per row, 8192 steps on [0, max u]."""
    u_max = max(u_grid)
    ref = np.empty((n, len(u_grid)))
    for r in range(n):
        path = limits.simulate_levy_path(
            alpha, u_max, u_max / 8192,
            streams.substream(seed, streams.DOMAIN_REFERENCE, 5, r))
        for j, u in enumerate(u_grid):
            ref[r, j] = limits.frac_integral(path, beta, u)
    return ref


def part_a(scn, threads, defects):
    """D4 with beta < alpha: inverse-subordinator references."""
    rep = verify.run_scenario(dataclasses.replace(scn, threads=threads))
    check_report(rep, 2 * 3 + 1)
    return {f"a.report@{threads}": report_digest(rep, defects)}


def part_b(scn, threads):
    """The acceptance-2 joint check: A1 matrix against Levy-path
    references, marginal KS and pairwise energy-distance tests."""
    s = scn.spec
    t = scn.t_ladder[-1]
    m = verify.simulate_scaled_matrix(s, scn.u_grid, t, scn.replicates,
                                      scn.seed, threads, scn.max_shots)
    ref = levy_reference(s.alpha, s.beta, scn.u_grid, scn.replicates, scn.seed)
    out = []
    for j, u in enumerate(scn.u_grid):
        var = u ** (1 - 2 * s.beta) / (1 - 2 * s.beta)
        out.append(verify.ks_one_sample_normal(m[:, j], 0.0, var))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        out.append(verify.energy_distance_test(m[:, [i, j]], ref[:, [i, j]],
                                               seed=scn.seed))
    if not all(math.isfinite(d) and 0.0 <= p <= 1.0 for d, p in out):
        raise OutputError(f"bad statistic or p-value in {out}")
    return {"b.reference": sha(ref), "b.tests": sha(json.dumps(out))}


def part_c(scn, threads, defects):
    """NOSCALE_DRI with Gamma gaps: X* references from stationary paths,
    copula permutation test, stationary-delayed time reversal."""
    rep = verify.run_scenario(dataclasses.replace(scn, threads=threads))
    check_report(rep, 2 + 2 + 3)
    return {f"c.report@{threads}": report_digest(rep, defects)}


class ReferenceTests:
    """Three library-API parts where limit-law samplers and statistical
    tests, not path simulation, take most of the time."""

    def __init__(self, n, seed, outdir):
        self.a, self.b, self.c = (
            _load(_write_config(outdir, f"reference_{k}", ini.format(n=n, seed=seed)))
            for k, ini in (("a", REF_A_INI), ("b", REF_B_INI), ("c", REF_C_INI)))
        self.inputs = {"a": _inputs(self.a), "b": _inputs(self.b),
                       "c": _inputs(self.c)}

    def steps(self, threads, defects):
        return [lambda: part_a(self.a, threads, defects),
                lambda: part_b(self.b, threads),
                lambda: part_c(self.c, threads, defects)]


# Replicates per workload (timed runs, smoke runs).  A job at threads=1
# then takes about 1-2 s on a 2-core machine, which gives 8-25 jobs per
# 30 s run; the larger sizes of the full acceptance settings give too few
# jobs for a steady median.
SIZES = {"d4_short_paths": (2000, 100), "a1_long_paths": (600, 100),
         "reference_tests": (200, 100)}


def build(name, seed, outdir: Path, smoke=False):
    n = SIZES[name][1 if smoke else 0]
    if name == "d4_short_paths":
        return CliVerify(name, D4_INI, n, seed, outdir, expected=30)
    if name == "a1_long_paths":
        # MEAN_ABS_N runs through the library: its report cannot be written
        # as JSON (see report_digest), so the CLI would exit 2.
        return CliVerify(name, A1_INI, n, seed, outdir, expected=30,
                         library_plans=(verify.MEAN_ABS_N,),
                         library_expected=2)
    return ReferenceTests(n, seed, outdir)


def calibrate():
    """Seconds for a fixed loop of Philox draws and small- and large-array
    numpy work that does not use renewalshot.  Timed next to every job
    step, it measures how fast the (shared) machine runs at that moment."""
    t0 = time.perf_counter()
    for r in range(200):
        g = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(7, spawn_key=(1, r))))
        e = np.cumsum((1.0 - g.random(4096)) ** -2.0)
        k = int(np.searchsorted(e, 1e4))
        float(np.sum((1e4 - e[:k][::-1] + 1.0) ** -0.5))
    g = np.random.Generator(np.random.Philox(7))
    for _ in range(10):
        e = np.cumsum(g.standard_exponential(20000))
        float(np.sum((2e4 - e[e <= 2e4] + 1.0) ** -0.25))
    return time.perf_counter() - t0


@dataclasses.dataclass
class JobTiming:
    seconds: float        # wall time of the job's steps
    norm: float           # sum over steps of step seconds / calibration seconds
    replicates: int       # simulated by verify.simulate_scaled_matrix
    simulate_s: float     # wall time inside verify.simulate_scaled_matrix
    simulate_norm: float  # the same, step by step over calibration seconds
    calibration_s: float  # mean calibration time around the job's steps


class Runner:
    """Runs a workload's jobs one after another.  A job fails if it raises
    or if its digests differ from the first job of the run: keys with "@"
    are compared per thread count, all others across thread counts."""

    def __init__(self, job, probe):
        self.job, self.probe = job, probe
        self.defects = set()
        self.errors = []
        self.attempted = self.failed = 0
        self.first = None
        self.shared = None
        self.own = {}
        self.calibrations = []

    def run(self, threads):
        """JobTiming of one job, or None if it failed."""
        self.attempted += 1
        self.probe.calls.clear()
        digests, seconds, norm, sim_norm = {}, 0.0, 0.0, 0.0
        cal = [calibrate()]
        try:
            for step in self.job.steps(threads, self.defects):
                calls = len(self.probe.calls)
                t0 = time.perf_counter()
                digests.update(step())
                took = time.perf_counter() - t0
                cal.append(calibrate())
                speed = 0.5 * (cal[-2] + cal[-1])
                seconds += took
                norm += took / speed
                sim_norm += sum(c[1] for c in self.probe.calls[calls:]) / speed
            for i, (_, _, d) in enumerate(self.probe.calls):
                digests[f"matrix{i}"] = d
            self.check(threads, digests)
        except Exception as exc:      # a failing job is counted, not fatal
            self.failed += 1
            self.errors.append(f"threads={threads}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.calibrations += cal
        return JobTiming(seconds, norm, sum(c[0] for c in self.probe.calls),
                         sum(c[1] for c in self.probe.calls), sim_norm,
                         sum(cal) / len(cal))

    def check(self, threads, digests):
        shared = {k: v for k, v in digests.items() if "@" not in k}
        own = {k: v for k, v in digests.items() if "@" in k}
        if self.first is None:
            self.first, self.shared = digests, shared
        self.own.setdefault(threads, own)
        if shared != self.shared or own != self.own[threads]:
            raise OutputError(f"digests differ from the first job "
                              f"(threads={threads})")
