"""Command line front end.

Subcommands: simulate, verify, formula, path-dump.  Scenario configs are
INI documents with sections [law], [response], [grid], [run] and an
optional [regime], which declares what follows from [law] and [response];
unknown keys are rejected so silent typos cannot change an experiment.

Exit codes: 0 success, 1 verification failures, 2 config/usage error,
3 inadmissible scenario, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import sys

import numpy as np

from . import limits, renewal, shotnoise, verify
from .laws import (Constant, ExpDecay, Exponential, Gamma, Pareto,
                   ParetoTailMatch, PowerDecay, Uniform, Window)
from .shotnoise import InadmissibleSpec, LimitSpec, solve_c
from .stable import abs_moment
from .streams import DOMAIN_AUX, substream

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_RESOURCE = 4


class ConfigError(ValueError):
    pass


# value of the selecting key -> (class, required keys, optional keys), the
# keys in the order of the constructor's arguments
_LAWS = {
    "exponential": (Exponential, ("rate",), ()),
    "uniform": (Uniform, ("a", "b"), ()),
    "gamma": (Gamma, ("shape", "rate"), ()),
    "pareto": (Pareto, ("alpha", "xm"), ()),
}
_RESPONSES = {
    "constant": (Constant, ("value",), ()),
    "expdecay": (ExpDecay, ("lam",), ()),
    "powerdecay": (PowerDecay, ("beta",), ("c0",)),
    "window": (Window, ("a", "b"), ()),
    "paretotailmatch": (ParetoTailMatch, ("alpha", "xm", "c"), ()),
}
_RUN_KEYS = {"replicates", "seed", "plans", "significance", "max_shots",
             "horizon", "delay", "x_star_truncation", "reference_mesh_d"}


def _check_keys(section, allowed, name):
    extra = set(section) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in [{name}]: {sorted(extra)}")


def _build(section, name, selector, table):
    """Instantiate the [name] section's class, chosen by its selector key."""
    kind = section.get(selector, "").lower()
    if kind not in table:
        raise ConfigError(f"unknown {name} {selector} {kind!r}")
    cls, required, optional = table[kind]
    _check_keys(section, {selector, *required, *optional}, name)
    for k in required:
        if k not in section:
            raise ConfigError(f"missing key {k!r} in [{name}]")
    return cls(*(float(section[k]) for k in required + optional
                 if k in section))


def _float_list(text):
    return tuple(float(x) for x in text.replace(",", " ").split())


def load_config(path):
    """Parse an INI config into (LimitSpec, scenario keyword arguments,
    path-dump settings: horizon, None when unset, and delay)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(path):
        raise ConfigError(f"cannot read config {path!r}")
    for sec in cp.sections():
        if sec not in ("law", "response", "regime", "grid", "run"):
            raise ConfigError(f"unknown section [{sec}]")
    for sec in ("law", "response", "grid", "run"):
        if sec not in cp:
            raise ConfigError(f"missing section [{sec}]")
    law = _build(cp["law"], "law", "family", _LAWS)
    h = _build(cp["response"], "response", "kind", _RESPONSES)
    # [regime] is optional; what it declares must agree with the spec
    regime = cp["regime"] if "regime" in cp else {}
    _check_keys(regime, {"name", "alpha", "beta"}, "regime")
    declared = {k: float(regime[k]) for k in ("alpha", "beta") if k in regime}
    for key, given in declared.items():
        if not math.isfinite(given):
            raise ConfigError(f"[regime] {key} must be finite; got {given}")
    if "name" in regime:
        declared["name"] = regime["name"].upper()
        if declared["name"] not in shotnoise.REGIMES:
            raise ConfigError(f"unknown regime {regime['name']!r}")
    spec = LimitSpec(law, h)
    for key, given in declared.items():
        derived = getattr(spec, "regime" if key == "name" else key)
        if given != derived:
            raise InadmissibleSpec(
                f"[regime] {key} = {given} disagrees with {law!r} and "
                f"{h!r}, which give {derived}")

    _check_keys(cp["grid"], {"u", "t"}, "grid")
    u_grid = _float_list(cp["grid"].get("u", "1"))
    t_ladder = _float_list(cp["grid"].get("t", "100 1000 10000"))

    run = cp["run"]
    _check_keys(run, _RUN_KEYS, "run")
    kw = {
        "u_grid": u_grid,
        "t_ladder": t_ladder,
        "replicates": run.getint("replicates", 1000),
        "seed": run.getint("seed", 0),
        "plans": tuple(p.strip() for p in
                       run.get("plans", "KS_MARGINAL").split(",")),
        "significance": run.getfloat("significance", 0.01),
        "max_shots": run.getfloat("max_shots", 1e8),
    }
    for key in ("x_star_truncation", "reference_mesh_d"):
        if key in run:
            kw[key] = run.getfloat(key)
    return spec, kw, {"horizon": run.getfloat("horizon"),
                      "delay": run.get("delay", "zero")}


def _check_out(out, opened):
    """Refuse an --out whose directory is missing, or one that names a
    directory where the command opens --out itself (`opened`), before any
    path is drawn, not when the first output is written."""
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"output directory {folder!r} does not exist")
    if opened and os.path.isdir(out):
        raise ConfigError(f"--out {out!r} is a directory")


def _scenario(args, opened):
    _check_out(args.out, opened)
    spec, kw, _ = load_config(args.config)
    if args.seed is not None:
        kw["seed"] = args.seed
    return verify.Scenario(spec=spec, threads=args.threads, **kw)


def cmd_simulate(args):
    scn = _scenario(args, opened=True)
    t = scn.t_ladder[-1]
    samples = verify.simulate_scaled_matrix(
        scn.spec, scn.u_grid, t, scn.replicates, scn.seed, scn.threads,
        scn.max_shots)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["replicate", "u", "value"])
        for r in range(scn.replicates):
            for j, u in enumerate(scn.u_grid):
                w.writerow([r, u, repr(float(samples[r, j]))])
    if args.json:
        summary = {"t": t, "u_grid": list(scn.u_grid), "n": scn.replicates,
                   "seed": scn.seed,
                   "mean": [float(m) for m in samples.mean(axis=0)]}
        print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _report_paths(out):
    base, ext = os.path.splitext(out)
    if ext.lower() not in (".json", ".csv"):
        base = out
    return base + ".json", base + ".csv", base + ".plot.csv"


def cmd_verify(args):
    # verify writes <out>.json and its siblings, not --out itself
    report = verify.run_scenario(_scenario(args, opened=False))
    jpath, cpath, ppath = _report_paths(args.out)
    with open(jpath, "w", encoding="utf-8") as f:
        f.write(report.to_json())
        f.write("\n")
    with open(cpath, "w", newline="", encoding="utf-8") as f:
        report.write_csv(f)
    # the header alone for a run without a matrix, so no earlier run's
    # plot file is left beside this report
    with open(ppath, "w", newline="", encoding="utf-8") as f:
        report.write_plot_data(f)
    if args.json:
        print(json.dumps({"all_passed": report.all_passed,
                          "n_records": len(report.records)}, sort_keys=True))
    return EXIT_OK if report.all_passed else EXIT_FAILED


# name -> (function of the flag values, flags it needs in that order)
_FORMULAS = {
    "moments": (lambda alpha, beta, u, k: limits.moments_inverse_case(
        alpha, beta, u, int(k)), ("alpha", "beta", "u", "k")),
    "covariance": (lambda alpha, beta, t1, t2: limits.covariance_inverse_case(
        alpha, beta, t1, t2), ("alpha", "beta", "t1", "t2")),
    "rs": (lambda alpha, s: limits.stationary_covariance(alpha, s),
           ("alpha", "s")),
    "absmoment": (lambda alpha, r: abs_moment(alpha, r), ("alpha", "r")),
    "solvec": (lambda alpha, xm, t: solve_c(Pareto(alpha, xm), t),
               ("alpha", "xm", "t")),
}


def cmd_formula(args):
    name = args.name.lower()
    if name not in _FORMULAS:
        raise ConfigError(f"unknown formula {args.name!r}")
    fn, flags = _FORMULAS[name]
    values = [getattr(args, f) for f in flags]
    missing = [f"--{f}" for f, v in zip(flags, values) if v is None]
    if missing:
        raise ConfigError(f"formula {name} needs {' '.join(missing)}")
    given = " ".join(f"--{f} {v}" for f, v in zip(flags, values))
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"formula {name} needs finite flags; got {given}")
    if "k" in flags and not (args.k >= 1 and args.k.is_integer()):
        raise ConfigError(f"--k must be a whole number >= 1; got {args.k}")
    try:
        val = fn(*values)
    except OverflowError as exc:
        raise ConfigError(f"formula {name} overflows at {given}: {exc}") from exc
    # JSON has no NaN or Infinity, and neither is a value of the formula
    if not math.isfinite(val):
        raise ConfigError(f"formula {name} is not finite at {given}: {val}")
    if args.json:
        print(json.dumps({"formula": name, "value": val}, sort_keys=True))
    else:
        print(np.format_float_positional(val, precision=12, unique=False,
                                         fractional=False))
    return EXIT_OK


def cmd_path_dump(args):
    _check_out(args.out, opened=True)
    spec, kw, extras = load_config(args.config)
    seed = args.seed if args.seed is not None else kw["seed"]
    horizon = extras["horizon"]
    if horizon is None:
        if not kw["t_ladder"]:
            raise ConfigError("path-dump needs [run] horizon or a nonempty "
                              "[grid] t")
        horizon = kw["t_ladder"][-1]
    delay = {"zero": renewal.ZERO_DELAYED,
             "stationary": renewal.STATIONARY}.get(extras["delay"])
    if delay is None:
        raise ConfigError(f"unknown delay kind {extras['delay']!r}")
    # a ValueError (exit 2) for a horizon that is not positive and finite
    renewal.check_shot_cap(spec.law, horizon, 1, kw["max_shots"])
    rng = substream(seed, DOMAIN_AUX, 0)
    path = renewal.sample_path(spec.law, horizon, delay, rng)
    with open(args.out, "w", newline="", encoding="utf-8") as f:
        renewal.dump_csv(path, f)
    if args.json:
        print(json.dumps({"epochs": len(path), "horizon": horizon,
                          "seed": seed}, sort_keys=True))
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="renewalshot",
                                description="renewal shot noise laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, threads=True):
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=None)
        if threads:
            sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--json", action="store_true")

    common(sub.add_parser("simulate", help="write scaled-statistic samples"))
    common(sub.add_parser("verify", help="run a verification scenario"))
    common(sub.add_parser("path-dump", help="write one renewal path as CSV"),
           threads=False)

    f = sub.add_parser("formula", help="evaluate a closed-form quantity")
    f.add_argument("name")
    for flag in ("alpha", "beta", "u", "s", "r", "t", "t1", "t2", "xm", "k"):
        f.add_argument(f"--{flag}", type=float, default=None)
    f.add_argument("--json", action="store_true")
    return p


_DISPATCH = {"simulate": cmd_simulate, "verify": cmd_verify,
             "formula": cmd_formula, "path-dump": cmd_path_dump}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InadmissibleSpec as exc:
        print(f"inadmissible scenario: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except verify.ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConfigError, configparser.Error, FileNotFoundError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
