"""renewalshot benchmark: time to verdict for three verification workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m pytest bench -q          # the benchmark's own tests

Run from the root of a source checkout; the package is imported from
./src.  One client runs one job after another (a closed loop) for S
seconds after a warm-up job.  Every job's outputs are checked and hashed;
a job fails if it raises, if `renewalshot verify` exits with anything but
0 or 1, if an output is non-finite or has the wrong shape, or if its
digests differ from the first job of the run (at any thread count).

Job times are normalised by the machine's speed at that moment: before
and after each step of a job the benchmark times a fixed calibration loop
(`workloads.calibrate`, which runs no renewalshot code) and divides the
step's wall time by the mean of the two.  On a shared 2-core machine the
wall time of identical jobs drifts by up to 1.6x over seconds to minutes,
while this ratio repeats within a few percent.  "cal" is the unit: one
calibration loop's wall time.  Raw seconds go to the detail line.

--trace 0 alternates jobs at threads=1 and threads=2 and prints
    setup_s             median over fresh interpreters of the time from
                        launch to ready (imports, config parsing, LimitSpec
                        and Scenario built), scaled to seconds at the
                        speed where calibration takes CALIBRATION_REF_S by
                        the median calibration time of the run's jobs
    wall_norm           median job time at threads=1, in cal
    wall_norm_2proc     median job time at threads=2, pool start-up included
    replicates_per_cal  median over threads=1 jobs of replicates per cal
                        spent inside verify.simulate_scaled_matrix
    peak_rss_mb         peak resident set size of this process
--trace 1 alternates untraced jobs and jobs traced by wrappers around the
public functions of every renewalshot module (see `instrument`), all at
threads=1 because spans in pool workers would be lost, and prints the
per-layer metrics of PER_LAYER; it also writes the last traced job's spans
to .bench_out/spans-NAME.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds run
metadata, the workload's inputs, raw timings with their sample counts and
tail percentile, known defects met on the way, and the output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("d4_short_paths", "a1_long_paths", "reference_tests")
SETUP_PROBES = 3
# setup_s is reported in seconds at the machine speed where one
# calibration loop takes this long (its typical time on the 2-core VM the
# benchmark was written on)
CALIBRATION_REF_S = 0.030
RESERVED_CHECK_SEED = 7919      # kept out of tuning; for checking claims


def _calls(n):
    return "count", "lower", lambda a: a.per_job(a.calls[n])


def _count(n, key, unit="count"):
    return unit, "lower", lambda a: a.per_job(a.counts[n, key])


def _time(unit, n, per=None, own=False):
    """Time spent in span n (own: minus its children) per call, or per
    counted item `per`."""
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}[unit]

    def value(a):
        base = a.calls[n] if per is None else a.counts[n, per]
        return (a.self if own else a.dur)[n] / base * scale if base else 0.0
    return unit, "lower", value


def _share(*names):
    return "fraction", "lower", lambda a: sum(a.dur[n] for n in names) / a.wall


# name -> (unit, better, value from the Aggregate of the traced jobs)
PER_LAYER = {
    "streams.substream.calls": _calls("streams.substream"),
    "streams.substream.us_per_call": _time("us", "streams.substream"),
    "laws.sample.calls": _calls("laws.sample"),
    "laws.sample.gaps": _count("laws.sample", "gaps"),
    "laws.sample.ns_per_gap": _time("ns", "laws.sample", per="gaps"),
    "laws.stationary_delay.calls": _calls("laws.stationary_delay"),
    "laws.stationary_delay.us_per_call": _time("us", "laws.stationary_delay"),
    "renewal.sample_path.calls": _calls("renewal.sample_path"),
    "renewal.sample_path.self_us_per_call": _time("us", "renewal.sample_path", own=True),
    "renewal.shots": _count("renewal.sample_path", "shots"),
    "renewal.gap_use_ratio": (
        "ratio", "higher",
        lambda a: a.counts["renewal.sample_path", "shots"] / a.path_gaps if a.path_gaps else 0.0),
    "renewal.count_at.calls": _calls("renewal.count_at"),
    "renewal.count_at.us_per_call": _time("us", "renewal.count_at"),
    "shotnoise.scaled_statistic.calls": _calls("shotnoise.scaled_statistic"),
    "shotnoise.scaled_statistic.self_us_per_call": _time("us", "shotnoise.scaled_statistic", own=True),
    "shotnoise.evaluate.calls": _calls("shotnoise.evaluate"),
    "shotnoise.evaluate.ns_per_age": _time("ns", "shotnoise.evaluate", per="ages"),
    "stable.sample_positive_stable.draws": _count("stable.sample_positive_stable", "draws"),
    "stable.sample_positive_stable.ns_per_draw": _time("ns", "stable.sample_positive_stable", per="draws"),
    "stable.sample_stable.draws": _count("stable.sample_stable", "draws"),
    "stable.sample_stable.ns_per_draw": _time("ns", "stable.sample_stable", per="draws"),
    "limits.simulate_inverse_subordinator_path.calls": _calls("limits.simulate_inverse_subordinator_path"),
    "limits.simulate_inverse_subordinator_path.us_per_call": _time("us", "limits.simulate_inverse_subordinator_path"),
    "limits.simulate_levy_path.calls": _calls("limits.simulate_levy_path"),
    "limits.simulate_levy_path.us_per_call": _time("us", "limits.simulate_levy_path"),
    "limits.frac_integral.calls": _calls("limits.frac_integral"),
    "limits.frac_integral.us_per_call": _time("us", "limits.frac_integral"),
    "limits.sample_X_star.calls": _calls("limits.sample_X_star"),
    "limits.sample_X_star.us_per_call": _time("us", "limits.sample_X_star"),
    "verify.simulate_scaled_matrix.self_s": _time("s", "verify.simulate_scaled_matrix", own=True),
    "verify.reference_draws": _count("verify.reference", "draws"),
    "verify.ks.calls": _calls("verify.ks"),
    "verify.ks.us_per_call": _time("us", "verify.ks"),
    "verify.moment_test.calls": _calls("verify.moment_test"),
    "verify.moment_test.us_per_call": _time("us", "verify.moment_test"),
    "verify.energy_distance_test.calls": _calls("verify.energy_distance_test"),
    "verify.energy_distance_test.s_per_call": _time("s", "verify.energy_distance_test"),
    "verify.energy_distance_test.perm_evals": _count("verify.energy_distance_test", "perm_evals"),
    "verify.energy_distance_test.bytes_computed": _count("verify.energy_distance_test",
                                                         "bytes_computed", "bytes"),
    "verify.copula_independence_test.calls": _calls("verify.copula_independence_test"),
    "verify.copula_independence_test.s_per_call": _time("s", "verify.copula_independence_test"),
    "verify.share.simulate": _share("verify.simulate_scaled_matrix"),
    "verify.share.reference": _share("verify.reference"),
    "verify.share.tests": _share("verify.ks", "verify.moment_test", "verify.energy_distance_test",
                                 "verify.copula_independence_test"),
    "cli.load_config.ms": _time("ms", "cli.load_config"),
    "cli.write_reports.ms": ("ms", "lower", lambda a: a.per_job(a.dur["cli.write_reports"]) * 1e3),
    "trace.overhead_frac": ("fraction", "lower", lambda a: a.overhead),
}


class Aggregate:
    """Totals over the spans of every traced job (and the traced set-up)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.dur = defaultdict(float)
        self.self = defaultdict(float)
        self.counts = defaultdict(float)
        self.path_gaps = 0.0        # gaps drawn directly under sample_path
        self.jobs = 0
        self.wall = 0.0
        self.overhead = 0.0

    def per_job(self, total):
        return total / self.jobs

    def add(self, spans):
        names = [s[0] for s in spans.spans]
        for (name, start, end, parent, _, counts), own in zip(
                spans.spans, spans.self_times()):
            self.calls[name] += 1
            self.dur[name] += end - start
            self.self[name] += own
            for key, v in (counts or {}).items():
                self.counts[name, key] += v
            if (name == "laws.sample" and parent is not None
                    and names[parent] == "renewal.sample_path"):
                self.path_gaps += counts["gaps"]


def _size(key):
    return lambda out, *args, **kwargs: {key: int(np.size(out))}


def instrument(spans, workloads):
    """Wrap the public entry points of every renewalshot layer.  Functions
    imported by name into another module are wrapped there too."""
    from renewalshot import cli, laws, limits, renewal, shotnoise, stable, streams, verify

    for owner in (streams, verify, cli):
        spans.wrap(owner, "substream", "streams.substream")
    for cls in laws.IncrementLaw.__subclasses__():
        spans.wrap(cls, "sample", "laws.sample", _size("gaps"))
        spans.wrap(cls, "stationary_delay", "laws.stationary_delay")
    for owner in (renewal, limits):
        spans.wrap(owner, "sample_path", "renewal.sample_path",
                   lambda out, *a, **k: {"shots": len(out)})
    spans.wrap(renewal, "count_at", "renewal.count_at")
    spans.wrap(shotnoise, "scaled_statistic", "shotnoise.scaled_statistic")
    spans.wrap(shotnoise, "evaluate", "shotnoise.evaluate",
               lambda out, path, h, t: {"ages": int(np.searchsorted(
                   path.arrivals, t, side="right"))})
    spans.wrap(stable, "sample_positive_stable", "stable.sample_positive_stable",
               _size("draws"))
    for owner in (stable, limits):
        spans.wrap(owner, "sample_stable", "stable.sample_stable", _size("draws"))
    for f in ("simulate_inverse_subordinator_path", "simulate_levy_path",
              "frac_integral", "sample_X_star"):
        spans.wrap(limits, f, f"limits.{f}")
    spans.wrap(verify, "simulate_scaled_matrix", "verify.simulate_scaled_matrix")
    draws = lambda out, *a, **k: {"draws": 0 if out is None else len(out)}
    spans.wrap(verify, "_limit_reference_sample", "verify.reference", draws)
    spans.wrap(workloads, "levy_reference", "verify.reference", draws)
    for f in ("ks_one_sample", "ks_two_sample"):
        spans.wrap(verify, f, "verify.ks")
    spans.wrap(verify, "moment_test", "verify.moment_test")
    sig = inspect.signature(verify.energy_distance_test)

    def energy(out, *a, **k):
        b = sig.bind(*a, **k)
        b.apply_defaults()
        x, y = np.atleast_2d(b.arguments["x"]), np.atleast_2d(b.arguments["y"])
        size = min(len(x), b.arguments["max_n"]) + min(len(y), b.arguments["max_n"])
        # computed, not measured: (n+m)^2 d float64 differences, float64
        # distances and their float32 copy
        return {"perm_evals": b.arguments["n_perm"] + 1,
                "bytes_computed": size * size * (8 * x.shape[1] + 8 + 4)}

    spans.wrap(verify, "energy_distance_test", "verify.energy_distance_test", energy)
    spans.wrap(verify, "copula_independence_test", "verify.copula_independence_test")
    spans.wrap(cli, "load_config", "cli.load_config")
    for f in ("to_json", "write_csv", "write_plot_data"):
        spans.wrap(verify.TestReport, f, "cli.write_reports")
    for f in ("part_a", "part_b", "part_c"):
        spans.wrap(workloads, f, f"reference_tests.{f}")


def _tail(values):
    """Highest of the usual percentiles with at least ten samples above it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=100)[p - 1], "n": n}
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                       text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "renewalshot").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _setup_seconds(args, outdir):
    """Start a fresh interpreter that sets the workload up and reports
    ready; time from launch to the ready line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(outdir)]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    return took


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny replicate counts and one set-up probe")
    ap.add_argument("--setup-only", metavar="DIR",
                    help="set up in DIR, print 'ready' and exit (set-up probe)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "renewalshot" / "__init__.py").is_file():
        print(f"renewalshot sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import renewalshot
    if Path(renewalshot.__file__).resolve().parent != ROOT / "src" / "renewalshot":
        print(f"imported renewalshot from {renewalshot.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.setup_only), args.smoke)
        print("ready", flush=True)
        return 0

    import scipy
    from spans import Spans

    load_start = os.getloadavg()
    base = ROOT / ".bench_out"
    outdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [_setup_seconds(args, outdir)
                 for _ in range(1 if args.smoke else SETUP_PROBES)]
        spans = Spans()
        agg = Aggregate()
        if args.trace:
            spans.job = "setup"
            instrument(spans, workloads)
        job = workloads.build(args.workload, args.seed, outdir, args.smoke)
        spans.unwrap_all()
        agg.add(spans)
        spans.spans.clear()
        probe = workloads.MatrixProbe()
        probe.install()
        runner = workloads.Runner(job, probe)
        runner.run(1)                                     # warm-up

        modes = ("untraced", "traced") if args.trace else (1, 2)
        jobs = {m: [] for m in modes}
        loop_s = {m: [] for m in modes}       # job plus its calibrations
        deadline = time.perf_counter() + args.seconds
        for i in itertools.count():
            mode = modes[i % len(modes)]
            guess = statistics.median(loop_s[mode]) if loop_s[mode] else 0.0
            if all(loop_s.values()) and time.perf_counter() + guess > deadline:
                break
            if mode == "traced":
                spans.job = i
                instrument(spans, workloads)
            t0 = time.perf_counter()
            timing = runner.run(2 if mode == 2 else 1)
            loop_s[mode].append(time.perf_counter() - t0)
            spans.unwrap_all()
            if timing is None:
                continue
            jobs[mode].append(timing)
            if mode == "traced":
                agg.add(spans)
                agg.jobs += 1
                agg.wall += timing.seconds
                spans.write(base / f"spans-{args.workload}.jsonl")
                spans.spans.clear()

        def med(m, f):
            return statistics.median(f(t) for t in jobs[m]) if jobs[m] else 0.0

        norm = lambda t: t.norm
        if args.trace:
            if jobs["traced"] and jobs["untraced"]:
                agg.overhead = med("traced", norm) / med("untraced", norm) - 1.0
            metrics = {k: {"value": float(f(agg)) if agg.jobs else 0.0, "unit": u}
                       for k, (u, _, f) in PER_LAYER.items()}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup) * CALIBRATION_REF_S
                            / statistics.median(runner.calibrations), "unit": "s"},
                "wall_norm": {"value": med(1, norm), "unit": "cal"},
                "wall_norm_2proc": {"value": med(2, norm), "unit": "cal"},
                "replicates_per_cal": {"value": med(1, lambda t: t.replicates
                                                    / t.simulate_norm),
                                       "unit": "1/cal"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    recorded = json.loads((Path(__file__).parent / "digests.json").read_text())
    match = None
    if not args.smoke and args.seed == recorded["seed"] and runner.first:
        match = runner.first == recorded["workloads"].get(args.workload)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "reserved_check_seed": RESERVED_CHECK_SEED,
        "load": "closed loop, one client, one job after another",
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "inputs": job.inputs,
        "setup_s_raw": setup,
        "raw": {str(m): {
            "jobs": len(v),
            "wall_s_median": med(m, lambda t: t.seconds),
            "wall_s_tail": _tail([t.seconds for t in v]),
            "replicates_per_s_median": med(m, lambda t: t.replicates / t.simulate_s),
            "calibration_s_median": med(m, lambda t: t.calibration_s),
            "wall_s": [round(t.seconds, 4) for t in v],
            "wall_norm": [round(t.norm, 3) for t in v]} for m, v in jobs.items()},
        "ops_failed_frac": runner.failed / runner.attempted,
        "errors": runner.errors[:5],
        "defects": sorted(runner.defects),
        "digests": runner.first,
        "digest_match": match,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
