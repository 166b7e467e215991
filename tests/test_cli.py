"""Command line front end: config parsing, outputs, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from renewalshot import cli, limits, renewal, shotnoise, verify


A1_CONFIG = """\
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
u = 0.5, 1.0
t = 60

[run]
replicates = 120
seed = 11
plans = KS_MARGINAL
"""

EXP_LIMIT_CONFIG = """\
[law]
family = pareto
alpha = 0.5
xm = 1.0

[response]
kind = paretotailmatch
alpha = 0.5
xm = 1.0
c = 1.0

[regime]
name = D4
alpha = 0.5
beta = 0.5

[grid]
u = 1
t = 500

[run]
replicates = 400
seed = 2
plans = KS_MARGINAL, MOMENTS:4
"""

# A1_CONFIG's [regime]: alpha and beta are optional, and a no-scaling
# config that keeps them declares a beta its response does not have
A1_REGIME = "name = A1\nalpha = 2\nbeta = 0\n"


def _swap(text, *pairs):
    """text with each (old, new) of pairs replaced; every old must occur,
    so that a swap cannot silently do nothing."""
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new)
    return text


def _noscale(regime, response):
    """A1_CONFIG under a no-scaling regime with the given [response] lines
    and no declared alpha or beta."""
    return _swap(A1_CONFIG, (A1_REGIME, f"name = {regime}\n"),
                 ("kind = constant\nvalue = 1.0", response))


NOSCALE_DRI_CONFIG = _noscale("NOSCALE_DRI", "kind = expdecay\nlam = 1.0")


@pytest.fixture
def a1_config(tmp_path):
    p = tmp_path / "a1.ini"
    p.write_text(A1_CONFIG)
    return str(p)


def test_simulate_row_accounting(a1_config, tmp_path):
    out = tmp_path / "sim.csv"
    rc = cli.main(["simulate", "--config", a1_config, "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "replicate,u,value"
    assert len(lines) == 1 + 120 * 2          # n rows per u-grid point
    assert "\r" not in out.read_text()


def test_simulate_deterministic(a1_config, tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(["simulate", "--config", a1_config, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", a1_config, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_thread_invariance(a1_config, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "_FORK_MIN_S", 0.0)    # fork anyway
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    cli.main(["simulate", "--config", a1_config, "--out", str(out1),
              "--threads", "1"])
    cli.main(["simulate", "--config", a1_config, "--out", str(out2),
              "--threads", "3"])
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_come_from_the_flag_only(tmp_path, capsys, monkeypatch):
    # neither a config key nor an environment variable sets the count
    p = tmp_path / "threads.ini"
    p.write_text(A1_CONFIG + "threads = 2\n")
    assert cli.main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "k.csv")]) == 2
    assert "threads" in capsys.readouterr().err
    monkeypatch.setenv("RENEWALSHOT_THREADS", "zebra")
    p.write_text(A1_CONFIG)
    assert cli.main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "e.csv")]) == 0


def test_seed_flag_overrides_config(a1_config, tmp_path):
    out1, out2 = tmp_path / "o1.csv", tmp_path / "o2.csv"
    cli.main(["simulate", "--config", a1_config, "--out", str(out1)])
    cli.main(["simulate", "--config", a1_config, "--out", str(out2),
              "--seed", "99"])
    assert out1.read_bytes() != out2.read_bytes()


def test_inadmissible_beta_exits_3(tmp_path, capsys):
    bad = A1_CONFIG.replace("name = A1", "name = A3").replace(
        "family = exponential\nrate = 1.0", "family = pareto\nalpha = 1.5\nxm = 1.0"
    ).replace("kind = constant\nvalue = 1.0",
              "kind = powerdecay\nbeta = 0.8").replace(
        "alpha = 2\nbeta = 0", "alpha = 1.5\nbeta = 0.8")
    p = tmp_path / "bad.ini"
    p.write_text(bad)
    rc = cli.main(["simulate", "--config", str(p), "--out",
                   str(tmp_path / "x.csv")])
    assert rc == 3
    assert "[0, 1/alpha)" in capsys.readouterr().err


def test_response_without_power_decay_exits_3(tmp_path, capsys):
    # D4 scales by P(xi > t)/h(t); ExpDecay is not regularly varying, and
    # its h(1000) underflows to 0, so the spec must stop at admission
    bad = EXP_LIMIT_CONFIG.replace(
        "kind = paretotailmatch\nalpha = 0.5\nxm = 1.0\nc = 1.0",
        "kind = expdecay\nlam = 1.0").replace(
        "beta = 0.5", "beta = 0.25").replace("t = 500", "t = 1000")
    assert "expdecay" in bad and "t = 1000" in bad
    p = tmp_path / "d4exp.ini"
    p.write_text(bad)
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 3
    assert "regularly varying" in capsys.readouterr().err


def test_inadmissible_plan_exits_3(tmp_path, capsys):
    p = tmp_path / "plan.ini"
    one_point = A1_CONFIG.replace("u = 0.5, 1.0", "u = 1.0")
    wide = A1_CONFIG.replace("u = 0.5, 1.0", "u = 1, 10000").replace(
        "t = 60", "t = 1")
    # MOMENTS:400 and MOMENTS:200: the order-k reference holds (k-1)!! or
    # k!, which no float holds (an OverflowError exited 1 before); the
    # A1 MOMENTS:150 reference u^75 149!! is finite at u = 1 but not at
    # u = 10000 (admission probed u = 1 only, and verify wrote inf
    # references, warned of overflow and exited 1)
    for config, plan in ((A1_CONFIG, "STATIONARITY_LOGTIME"),
                         (A1_CONFIG, "MOMENTS:0"), (A1_CONFIG, "MOMENTS:-2"),
                         (A1_CONFIG, "KS_MARGINAL:zzz"),
                         (one_point, "SELF_SIMILARITY"),
                         (A1_CONFIG, "MOMENTS:400"),
                         (D4_BETA_BELOW_ALPHA_CONFIG, "MOMENTS:200"),
                         (wide, "MOMENTS:150")):
        p.write_text(config.replace("plans = KS_MARGINAL",
                                    f"plans = {plan}"))
        assert cli.main(["verify", "--config", str(p),
                         "--out", str(tmp_path / "r")]) == 3, plan
        err = capsys.readouterr().err
        assert plan in err
    # the last refusal names the hypothesis: the order and the grid
    assert ("it needs a finite closed-form moment of each order up to 150 "
            "at each u of (1.0, 10000.0)") in err


def test_unknown_plan_exits_2(tmp_path, capsys):
    # a misspelt name, a lower-case one and the plan '' of a trailing comma
    # exited 3 as inadmissible; an unknown name is a config error, as an
    # unknown key, regime, family or kind is
    p = tmp_path / "plan.ini"
    for plans in ("KS_MARGNAL", "ks_marginal", "KS_MARGINAL,"):
        p.write_text(A1_CONFIG.replace("plans = KS_MARGINAL",
                                       f"plans = {plans}"))
        assert cli.main(["verify", "--config", str(p),
                         "--out", str(tmp_path / "r")]) == 2, plans
        err = capsys.readouterr().err
        assert "unknown test plan" in err and ", ".join(verify.PLANS) in err


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_rung_without_a_normalizer_exits_3_before_any_path(
        tmp_path, capsys, monkeypatch, command):
    # A2's c(t) solves c^2 = 2 t x_m^2 ln(c/x_m), which has a root only for
    # t >= e: verify drew every replicate path and exited 2 from the
    # statistic at t = 2, and simulate, which reads the last rung, exited 0
    built = []
    rows = renewal.epoch_rows
    monkeypatch.setattr(renewal, "epoch_rows",
                        lambda *a: built.append(a) or rows(*a))
    p = tmp_path / "a2.ini"
    p.write_text(A1_CONFIG.replace(
        "family = exponential\nrate = 1.0",
        "family = pareto\nalpha = 2\nxm = 1").replace(
        "name = A1", "name = A2").replace("t = 60", "t = 2, 100"))
    assert cli.main([command, "--config", str(p),
                     "--out", str(tmp_path / "r.csv")]) == 3
    assert built == []
    assert "no g(t) at t = 2.0" in capsys.readouterr().err


def test_plan_named_twice_exits_3(tmp_path, capsys):
    # it ran twice: 16 records on this config, each (t, u, test) twice
    p = tmp_path / "twice.ini"
    p.write_text(A1_CONFIG.replace("u = 0.5, 1.0", "u = 1, 2").replace(
        "t = 60", "t = 100").replace(
        "plans = KS_MARGINAL",
        "plans = MOMENTS:2, MOMENTS:4, KS_MARGINAL, KS_MARGINAL"))
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 3
    assert "named twice" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_moments_without_closed_form_exit_3(tmp_path, capsys):
    # the A3 limit has a closed-form first moment only, so MOMENTS:2 would
    # test order 1 and silently skip order 2
    a3 = A1_CONFIG.replace("name = A1", "name = A3").replace(
        "family = exponential\nrate = 1.0",
        "family = pareto\nalpha = 1.5\nxm = 1.0").replace(
        "alpha = 2\nbeta = 0", "alpha = 1.5\nbeta = 0")
    p = tmp_path / "a3.ini"
    for plan, rc in (("MOMENTS:2", 3), ("MOMENTS", 3), ("MOMENTS:1", None)):
        p.write_text(a3.replace("plans = KS_MARGINAL", f"plans = {plan}"))
        got = cli.main(["verify", "--config", str(p),
                        "--out", str(tmp_path / "r")])
        if rc is None:
            assert got in (cli.EXIT_OK, cli.EXIT_FAILED), plan
        else:
            assert got == rc, plan
            assert plan in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("ladder", ["", "0", "-5, 10"],
                         ids=["empty", "zero", "negative"])
@pytest.mark.parametrize("config, t_line", [(A1_CONFIG, "t = 60"),
                                            (EXP_LIMIT_CONFIG, "t = 500")],
                         ids=["A1", "D4"])
def test_empty_or_nonpositive_t_ladder_exits_3(tmp_path, capsys, command,
                                               ladder, config, t_line):
    p = tmp_path / "ladder.ini"
    p.write_text(config.replace(t_line, f"t = {ladder}"))
    assert cli.main([command, "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 3
    assert "t-ladder" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("old, new, name", [
    ("t = 60", "t = inf", "t-ladder"),
    ("t = 60", "t = 1e400", "t-ladder"),
    ("t = 60", "t = 100, nan", "t-ladder"),
    ("u = 0.5, 1.0", "u = 1, inf", "u-grid"),
    ("u = 0.5, 1.0", "u = nan", "u-grid"),
], ids=["t-inf", "t-overflow", "t-nan", "u-inf", "u-nan"])
def test_nonfinite_grid_exits_3(tmp_path, capsys, command, old, new, name):
    # before, the infinite values exited 4 (resource cap) and the nan ones
    # 2, from math.ceil failing inside the path builder
    p = tmp_path / "grid.ini"
    p.write_text(A1_CONFIG.replace(old, new))
    assert cli.main([command, "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert name in err and "finite" in err


D4_BETA_BELOW_ALPHA_CONFIG = EXP_LIMIT_CONFIG.replace(
    "beta = 0.5", "beta = 0.25").replace(
    "kind = paretotailmatch\nalpha = 0.5\nxm = 1.0\nc = 1.0",
    "kind = powerdecay\nbeta = 0.25").replace(", MOMENTS:4", "")


@pytest.mark.parametrize("line, why", [
    ("reference_mesh_d = nan", "reference_mesh_d"),
    ("reference_mesh_d = inf", "reference_mesh_d"),
    ("reference_mesh_d = 0", "reference_mesh_d"),
    ("reference_mesh_d = -1", "reference_mesh_d"),
    ("x_star_truncation = inf", "x_star_truncation"),
], ids=["mesh-nan", "mesh-inf", "mesh-zero", "mesh-negative", "trunc-inf"])
def test_nonfinite_or_nonpositive_reference_setting_exits_2(
        tmp_path, capsys, monkeypatch, line, why):
    # before, on this config, these exited 1 with nan statistics, 1 with
    # D = 1, 2 only after the first rung's matrix was drawn (twice), and 0
    # (D4 has no X* reference to truncate)
    built = []
    rows = renewal.epoch_rows
    monkeypatch.setattr(renewal, "epoch_rows",
                        lambda *a: built.append(a) or rows(*a))
    p = tmp_path / "mesh.ini"
    p.write_text(D4_BETA_BELOW_ALPHA_CONFIG + f"{line}\n")
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 2
    assert built == []
    assert why in capsys.readouterr().err


def test_powerdecay_without_beta_exits_2(tmp_path, capsys):
    p = tmp_path / "nobeta.ini"
    p.write_text(A1_CONFIG.replace("kind = constant\nvalue = 1.0",
                                   "kind = powerdecay\nc0 = 1.0"))
    assert cli.main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "'beta'" in capsys.readouterr().err


def test_centered_references_without_truncation_exit_2(tmp_path, capsys):
    p = tmp_path / "centered.ini"
    p.write_text(_noscale("NOSCALE_CENTERED",
                          "kind = powerdecay\nbeta = 0.75"))
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 2
    assert "x_star_truncation" in capsys.readouterr().err


def test_slowly_decaying_response_without_truncation_exits_2(tmp_path,
                                                             capsys):
    # PowerDecay(1.5) is integrable, but its X* tail bound is still 1.7e-3
    # at the 1e6 cap of the default truncation level
    p = tmp_path / "dri.ini"
    p.write_text(_noscale("NOSCALE_DRI", "kind = powerdecay\nbeta = 1.5"))
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 2
    assert "x_star_truncation" in capsys.readouterr().err


@pytest.mark.parametrize("line, argv, why", [
    ("significance = 1.5", [], "significance"),
    ("significance = -0.1", [], "significance"),
    ("max_shots = -1", [], "max_shots"),
    ("max_shots = inf", [], "max_shots"),
    ("max_shots = nan", [], "max_shots"),
    ("", ["--threads", "-2"], "threads"),
], ids=["significance-above-1", "negative-significance", "negative-max-shots",
        "infinite-max-shots", "nan-max-shots", "negative-threads"])
def test_run_setting_out_of_range_exits_2(tmp_path, capsys, line, argv, why):
    # before the range checks these exited 1, 0, 4, 0 and 0: every record
    # failing, every p-value record passing, a cap of -1, no cap with
    # "max_shots": Infinity in the report, a serial run; a nan cap was
    # refused already
    p = tmp_path / "range.ini"
    p.write_text(A1_CONFIG + f"\n{line}\n")
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r"), *argv]) == 2
    assert why in capsys.readouterr().err


@pytest.mark.parametrize("config, old, new", [
    (A1_CONFIG, "rate = 1.0", "rate = inf"),
    (A1_CONFIG, "rate = 1.0", "rate = nan"),
    (A1_CONFIG, "value = 1.0", "value = nan"),
    (NOSCALE_DRI_CONFIG, "name = NOSCALE_DRI",
     "name = NOSCALE_DRI\nalpha = nan"),
    (NOSCALE_DRI_CONFIG, "name = NOSCALE_DRI",
     "name = NOSCALE_DRI\nbeta = inf"),
], ids=["rate-inf", "rate-nan", "constant-nan", "alpha-nan", "beta-inf"])
def test_nonfinite_law_or_response_parameter_exits_2(tmp_path, capsys, config,
                                                     old, new):
    # before, these died on a ZeroDivisionError traceback, exited 3 ("A1
    # requires a finite-variance law"), exited 0 with every record passing,
    # and exited 0 with "alpha": NaN and "beta": Infinity in the report
    # (the no-scaling regimes read neither); a declared alpha or beta that
    # is not finite is a config error (2), not a disagreement (3)
    p = tmp_path / "nonfinite.ini"
    p.write_text(_swap(config, (old, new)))
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("config, swaps, values", [
    # the no-scaling regimes read neither, so this exited 0 and echoed
    # "alpha": 7.0 and "beta": -3.0 in the report
    (NOSCALE_DRI_CONFIG,
     [("name = NOSCALE_DRI", "name = NOSCALE_DRI\nalpha = 7\nbeta = -3")],
     ("7.0", "2.0")),
    # ExpDecay is not regularly varying: its beta is None, not 0
    (NOSCALE_DRI_CONFIG,
     [("name = NOSCALE_DRI", "name = NOSCALE_DRI\nbeta = 0")],
     ("0.0", "None")),
    # a declared beta against the decay index of the response
    (A1_CONFIG,
     [("kind = constant\nvalue = 1.0", "kind = powerdecay\nbeta = 0.4"),
      ("beta = 0\n", "beta = 0.25\n")], ("0.25", "0.4")),
    # a declared alpha against the law: exponential gaps are in the
    # Gaussian domain, alpha = 2
    (A1_CONFIG, [("alpha = 2\n", "alpha = 1.5\n")], ("1.5", "2.0")),
    (EXP_LIMIT_CONFIG, [("alpha = 0.5\nbeta", "alpha = 0.75\nbeta")],
     ("0.75", "0.5")),
], ids=["noscale-alpha-7-beta-minus-3", "noscale-beta-of-expdecay", "a1-beta",
        "a1-alpha", "d4-alpha"])
def test_declared_alpha_or_beta_that_disagrees_exits_3(
        tmp_path, capsys, monkeypatch, config, swaps, values):
    # alpha and beta follow from the law and the response; a [regime] that
    # declares one must declare that value, and is refused before any path
    def drawn(*args, **kwargs):
        raise AssertionError("a path was drawn for a refused config")

    monkeypatch.setattr(verify, "simulate_scaled_matrix", drawn)
    p = tmp_path / "declared.ini"
    p.write_text(_swap(config, *swaps))
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "disagrees" in err and all(v in err for v in values), err


def test_regime_section_is_optional(tmp_path):
    # the regime follows from the law and the response, so a config
    # without [regime], or with its name alone, reports byte for byte as
    # the one that declares name, alpha and beta
    texts = {"full": A1_CONFIG,
             "name": _swap(A1_CONFIG, (A1_REGIME, "name = A1\n")),
             "none": _swap(A1_CONFIG, ("[regime]\n" + A1_REGIME, ""))}
    reports = {}
    for key, text in texts.items():
        p = tmp_path / f"{key}.ini"
        p.write_text(text)
        assert cli.main(["verify", "--config", str(p),
                         "--out", str(tmp_path / key)]) in (0, 1)
        reports[key] = [(tmp_path / f"{key}{ext}").read_bytes()
                        for ext in (".json", ".csv", ".plot.csv")]
    assert reports["none"] == reports["name"] == reports["full"]


@pytest.mark.parametrize("name, code, fragments", [
    # a known name that disagrees with the pair names both regimes
    ("A1", 3, ("disagrees", "name = A1", "give D4")),
    ("bogus", 2, ("unknown regime 'bogus'",)),
    # matched case-insensitively, as family and kind are
    ("d4", 0, ()),
])
def test_declared_regime_name(tmp_path, capsys, name, code, fragments):
    p = tmp_path / "named.ini"
    p.write_text(_swap(EXP_LIMIT_CONFIG, ("name = D4", f"name = {name}")))
    assert cli.main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "s.csv")]) == code
    err = capsys.readouterr().err
    assert all(f in err for f in fragments), err


def test_too_few_replicates_exits_2(tmp_path, capsys):
    # exit 3 is for a violated hypothesis or a plan that does not apply
    p = tmp_path / "few.ini"
    p.write_text(A1_CONFIG.replace("replicates = 120", "replicates = 50"))
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 2
    assert "replicates" in capsys.readouterr().err


@pytest.mark.parametrize("swaps, lines", [
    # 2.06e7 expected shots in the X* references, 3.4e4 in the matrices
    ({A1_REGIME: "name = NOSCALE_DRI\n",
      "kind = constant\nvalue = 1.0": "kind = expdecay\nlam = 1.0",
      "u = 0.5, 1.0": "u = 1, 2", "t = 60": "t = 100"},
     "max_shots = 1e6\nx_star_truncation = 1e5"),
    # 1.1e6 expected shots in the MEAN_ABS_N counts, no matrix
    ({"u = 0.5, 1.0": "u = 1", "t = 60": "t = 10000",
      "plans = KS_MARGINAL": "plans = MEAN_ABS_N"}, "max_shots = 1e5"),
    # 1.2e4 expected shots in each stationary time-reversal loop
    ({"plans = KS_MARGINAL": "plans = TIME_REVERSAL"}, "max_shots = 1e4"),
], ids=["x-star-references", "mean-abs-n", "time-reversal"])
def test_shot_cap_covers_every_path_loop(tmp_path, capsys, swaps, lines):
    text = _swap(A1_CONFIG, ("replicates = 120", "replicates = 100"),
                 *swaps.items())
    p = tmp_path / "cap.ini"
    p.write_text(text + lines + "\n")
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 4
    assert "cap" in capsys.readouterr().err


def test_zero_x_star_truncation_exits_2(tmp_path, capsys):
    # 0 used to stand for the default truncation level, with the report
    # echoing x_star_truncation 0.0
    p = tmp_path / "zero_trunc.ini"
    p.write_text(NOSCALE_DRI_CONFIG + "\nx_star_truncation = 0\n")
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 2
    assert "x_star_truncation" in capsys.readouterr().err


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    p = tmp_path / "readme.ini"
    p.write_text(readme.split("```ini\n")[1].split("```")[0])
    spec, kw, _ = cli.load_config(str(p))
    # its [regime] declares no alpha or beta; they follow from the law
    # and the response
    assert (spec.regime, spec.alpha, spec.beta) == ("A3", 1.5, 0.25)
    verify.Scenario(spec=spec, **kw)


def test_readme_regime_table_lists_the_rows():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("## Regimes\n\n")[1].split("\n\n")[0]
    names = [row.split("|")[1].strip().strip("`")
             for row in table.splitlines()[2:]]
    assert names == list(shotnoise.REGIMES)


def test_readme_plan_table_lists_the_plans():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("## Plans\n\n")[1].split("\n\n")[0]
    # cells split at each pipe that is not escaped as \|
    rows = [[c.strip() for c in re.split(r"(?<!\\)\|", row)[1:-1]]
            for row in table.splitlines()]
    assert rows[0][2:4] == ["rungs", "reads the matrix"]
    # the name, the rungs and whether it reads the matrix, as PLANS has them
    assert [(name.strip("`"), rungs, reads) for name, _, rungs, reads, _
            in rows[2:]] == [
        (name, "every" if plan.every_rung else "first",
         "yes" if plan.needs_samples else "no")
        for name, plan in verify.PLANS.items()]


def test_unknown_key_exits_2(tmp_path):
    p = tmp_path / "typo.ini"
    # reference_u_mesh_cells: a removed knob is an unknown key
    for line in ("wobble = 3", "reference_u_mesh_cells = 256"):
        p.write_text(A1_CONFIG + f"\n{line}\n")
        assert cli.main(["verify", "--config", str(p),
                         "--out", str(tmp_path / "r")]) == 2, line


def test_missing_config_exits_2(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "x.csv")]) == 2


def test_resource_cap_exits_4(tmp_path):
    p = tmp_path / "big.ini"
    p.write_text(A1_CONFIG.replace("t = 60", "t = 1000000")
                 .replace("replicates = 120", "replicates = 100000"))
    assert cli.main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "x.csv")]) == 4


def test_verify_outputs_and_exit(a1_config, tmp_path):
    base = tmp_path / "report"
    rc = cli.main(["verify", "--config", a1_config, "--out", str(base)])
    assert rc in (0, 1)
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["seed"] == 11
    assert len(payload["records"]) == 2
    csv_text = (tmp_path / "report.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("t,u,test,")
    assert (tmp_path / "report.plot.csv").exists()


def test_verify_mean_abs_n_exits_0_or_1(tmp_path):
    # a KS_MARGINAL run to the same --out first: a run without a matrix
    # once left its plot file beside the new report
    ks = tmp_path / "ks.ini"
    ks.write_text(A1_CONFIG)
    assert cli.main(["verify", "--config", str(ks),
                     "--out", str(tmp_path / "r")]) in (0, 1)
    p = tmp_path / "mean_abs_n.ini"
    p.write_text(A1_CONFIG.replace("plans = KS_MARGINAL", "plans = MEAN_ABS_N"))
    rc = cli.main(["verify", "--config", str(p), "--out", str(tmp_path / "r")])
    assert rc in (0, 1)
    payload = json.loads((tmp_path / "r.json").read_text())
    assert [r["test"] for r in payload["records"]] == ["MEAN_ABS_N"]
    assert (tmp_path / "r.plot.csv").read_text() == "t,u,prob,quantile\n"


def test_verify_designed_failure_exits_1(tmp_path):
    # a t far too small for the CLT leaves the KS reference mismatched
    p = tmp_path / "fail.ini"
    p.write_text(A1_CONFIG.replace("t = 60", "t = 2")
                 .replace("replicates = 120", "replicates = 5000"))
    rc = cli.main(["verify", "--config", str(p), "--out", str(tmp_path / "r")])
    assert rc == 1


def test_exponential_limit_report_moment_references(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(EXP_LIMIT_CONFIG)
    cli.main(["verify", "--config", p.as_posix(), "--out",
              str(tmp_path / "exp_report")])
    payload = json.loads((tmp_path / "exp_report.json").read_text())
    refs = {r["test"]: r["reference"] for r in payload["records"]
            if r["test"].startswith("MOMENTS")}
    expected = {"MOMENTS:k=1": 1.0, "MOMENTS:k=2": 2.0,
                "MOMENTS:k=3": 6.0, "MOMENTS:k=4": 24.0}
    assert set(refs) == set(expected)
    for name, want in expected.items():
        assert refs[name] == pytest.approx(want, rel=1e-9)


def test_formula_values(capsys):
    assert cli.main(["formula", "moments", "--alpha", "0.5", "--beta", "0.25",
                     "--u", "1", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip().startswith("0.971175894023")
    assert cli.main(["formula", "Rs", "--alpha", "0.5", "--s", "0"]) == 0
    assert capsys.readouterr().out.strip() == "1.00000000000"
    assert cli.main(["formula", "absmoment", "--alpha", "1.5", "--r", "1"]) == 0
    assert abs(float(capsys.readouterr().out) - 3.4343) < 1e-3
    assert cli.main(["formula", "solvec", "--alpha", "1.5", "--xm", "1",
                     "--t", "1000"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(100.0)
    assert cli.main(["formula", "covariance", "--alpha", "0.5", "--beta",
                     "0.25", "--t1", "1", "--t2", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.9711758940233491, rel=1e-6)


def test_formula_covariance_at_alpha_equals_beta(capsys):
    # beta = alpha: Y(1) ~ Exp(1), whose second moment is 2
    assert cli.main(["formula", "covariance", "--alpha", "0.9", "--beta",
                     "0.9", "--t1", "1", "--t2", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2.00000000000"
    # beta > alpha is no limit of the theorem
    assert cli.main(["formula", "covariance", "--alpha", "0.5", "--beta",
                     "0.6", "--t1", "1", "--t2", "2"]) == 2
    assert "0 <= beta <= alpha" in capsys.readouterr().err


@pytest.mark.parametrize("argv, why", [
    (["moments", "--alpha", "0.5", "--beta", "0.9", "--u", "1", "--k", "4"],
     "0 <= beta <= alpha"),
    (["moments", "--alpha", "0.5", "--beta", "-0.5", "--u", "1", "--k", "2"],
     "0 <= beta <= alpha"),
    (["moments", "--alpha", "0.5", "--beta", "0.25", "--u", "-1", "--k", "2"],
     "u must be positive"),
    (["absmoment", "--alpha", "1", "--r", "0.5"], "alpha = 1"),
    (["moments", "--alpha", "0.5", "--beta", "0.25", "--u", "1", "--k", "2.7"],
     "--k must be a whole number >= 1"),
    (["moments", "--alpha", "0.5", "--beta", "0.25", "--u", "1", "--k", "inf"],
     "needs finite flags"),
    (["moments", "--alpha", "0.5", "--beta", "0.25", "--u", "1", "--k", "400"],
     "overflows"),
    (["absmoment", "--alpha", "2", "--r", "400", "--json"], "is not finite"),
    (["solvec", "--alpha", "0.5", "--xm", "1", "--t", "inf", "--json"],
     "needs finite flags"),
    (["absmoment", "--alpha", "1.5", "--r", "nan", "--json"],
     "needs finite flags"),
], ids=["beta-above-alpha", "negative-beta", "negative-u", "absmoment-alpha-1",
        "fractional-k", "infinite-k", "overflowing-k", "infinite-value",
        "infinite-t", "nan-r"])
def test_formula_outside_the_limit_exits_2(argv, why, capsys):
    assert cli.main(["formula", *argv]) == 2
    out = capsys.readouterr()
    assert why in out.err
    assert out.out == ""            # no value, and no NaN or Infinity in JSON


def test_formula_unknown_name_exits_2():
    assert cli.main(["formula", "frobnicate"]) == 2


def test_formula_missing_flags_exit_2(capsys):
    assert cli.main(["formula", "moments", "--alpha", "0.5"]) == 2
    assert "needs --beta --u --k" in capsys.readouterr().err


def test_program_bug_is_not_a_config_error(monkeypatch):
    def broken(alpha, s):
        raise TypeError("a bug, not a config error")

    monkeypatch.setattr(limits, "stationary_covariance", broken)
    with pytest.raises(TypeError):
        cli.main(["formula", "rs", "--alpha", "0.5", "--s", "0"])


@pytest.mark.parametrize("command", ["simulate", "verify", "path-dump"])
def test_missing_out_directory_exits_2_before_any_path(a1_config, tmp_path,
                                                       monkeypatch, capsys,
                                                       command):
    def drawn(*args, **kwargs):
        raise AssertionError("a path was drawn before --out was checked")

    monkeypatch.setattr(verify, "simulate_scaled_matrix", drawn)
    monkeypatch.setattr(renewal, "sample_path", drawn)
    out = tmp_path / "no" / "such" / "x"
    assert cli.main([command, "--config", a1_config, "--out", str(out)]) == 2
    assert "output directory" in capsys.readouterr().err
    # simulate and path-dump open --out itself, so a directory there is
    # refused too (it died on an IsADirectoryError, exit 1, after every
    # path was drawn); verify writes <out>.json and its siblings
    folder = tmp_path / "folder"
    folder.mkdir()
    if command == "verify":
        monkeypatch.undo()
        assert cli.main([command, "--config", a1_config,
                         "--out", str(folder)]) in (0, 1)
        assert (tmp_path / "folder.json").exists()
    else:
        assert cli.main([command, "--config", a1_config,
                         "--out", str(folder)]) == 2
        assert "is a directory" in capsys.readouterr().err


def test_path_dump(a1_config, tmp_path):
    out = tmp_path / "path.csv"
    rc = cli.main(["path-dump", "--config", a1_config, "--out", str(out),
                   "--json"])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,S_k"
    assert lines[1] == "0,0.0"


def test_path_dump_has_no_threads_flag(a1_config, tmp_path):
    # one path from one stream: the flag would be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["path-dump", "--config", a1_config,
                  "--out", str(tmp_path / "path.csv"), "--threads", "7"])
    assert exc.value.code == 2


def test_path_dump_without_horizon_or_ladder_exits_2(tmp_path, capsys):
    p = tmp_path / "noladder.ini"
    p.write_text(A1_CONFIG.replace("t = 60", "t ="))
    assert cli.main(["path-dump", "--config", str(p),
                     "--out", str(tmp_path / "path.csv")]) == 2
    assert "horizon" in capsys.readouterr().err


def test_path_dump_horizon_is_positive_or_the_last_t(tmp_path, capsys):
    # a horizon that is set must be positive and finite (0 is not
    # "unset"); an unset one is the last t of the ladder
    p = tmp_path / "horizon.ini"
    out = str(tmp_path / "path.csv")
    for horizon in ("0", "-1", "inf"):
        p.write_text(A1_CONFIG + f"horizon = {horizon}\n")
        assert cli.main(["path-dump", "--config", str(p), "--out", out]) == 2
        assert "horizon" in capsys.readouterr().err
    p.write_text(A1_CONFIG)
    assert cli.main(["path-dump", "--config", str(p), "--out", out,
                     "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["horizon"] == 60.0


def test_path_dump_is_under_the_shot_cap(tmp_path, capsys):
    # about 100,000 epochs on [0, 1e5] against a cap of 10 shots
    p = tmp_path / "cap.ini"
    p.write_text(A1_CONFIG + "max_shots = 10\nhorizon = 100000\n")
    out = tmp_path / "path.csv"
    assert cli.main(["path-dump", "--config", str(p), "--out", str(out)]) == 4
    assert "cap" in capsys.readouterr().err and not out.exists()


def test_config_scenario_round_trip(a1_config):
    spec, kw, _ = cli.load_config(a1_config)
    from renewalshot.verify import Scenario
    scn = Scenario(spec=spec, **kw)
    echo = scn.echo()
    assert echo["replicates"] == 120
    assert echo["seed"] == 11
    assert tuple(echo["u_grid"]) == (0.5, 1.0)
    assert echo["spec"]["regime"] == "A1"
    # rebuilding from the echo parameters reproduces the scenario
    scn2 = Scenario(spec=spec, u_grid=tuple(echo["u_grid"]),
                    t_ladder=tuple(echo["t_ladder"]),
                    replicates=echo["replicates"], seed=echo["seed"],
                    plans=tuple(echo["plans"]),
                    significance=echo["significance"],
                    max_shots=echo["max_shots"])
    assert scn2.echo()["spec"] == echo["spec"]


def test_scipy_stats_loads_only_for_a_two_sample_test(tmp_path):
    # scipy.stats is about half of the start-up time, so verify loads it
    # only in ks_two_sample and copula_independence_test.  A fresh
    # interpreter: this one holds it already, from other tests
    runs = []
    for name, text in (("d4_exp_limit", EXP_LIMIT_CONFIG), ("a1", A1_CONFIG),
                       ("noscale_dri", NOSCALE_DRI_CONFIG)):
        (tmp_path / f"{name}.ini").write_text(text)
        runs.append([str(tmp_path / f"{name}.ini"), str(tmp_path / name)])
    script = (
        "import json, sys\n"
        "from renewalshot import cli\n"
        "seen = [[None, 'scipy.stats' in sys.modules]]\n"
        "for config, out in json.loads(sys.argv[1]):\n"
        "    rc = cli.main(['verify', '--config', config, '--out', out])\n"
        "    seen.append([rc, 'scipy.stats' in sys.modules])\n"
        "print(json.dumps(seen))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    # import, D4 with beta = alpha (exact Exp(1) marginal), A1 (exact
    # normal), NOSCALE_DRI (two-sample KS against X* draws)
    assert json.loads(out.stdout) == [[None, False], [0, False], [0, False],
                                      [0, True]]


def test_scipy_special_loads_only_where_a_special_function_is_evaluated(
        tmp_path):
    # scipy.special is about three quarters of `import renewalshot` under
    # scipy 1.17, so only the functions that evaluate one import it.  Fresh
    # interpreters, as above; the D4 MOMENTS set-up runs in its own, since
    # verify loads scipy.special first otherwise
    configs = {}
    for name, text in (("a1", A1_CONFIG), ("noscale_dri", NOSCALE_DRI_CONFIG),
                       ("d4_exp_limit", EXP_LIMIT_CONFIG),
                       ("bad_key", A1_CONFIG.replace("[grid]", "[grid]\nv = 1"))):
        (tmp_path / f"{name}.ini").write_text(text)
        configs[name] = str(tmp_path / f"{name}.ini")
    out = str(tmp_path / "out")
    script = (
        "import json, sys\n"
        "from renewalshot import cli\n"
        "seen = [[None, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if argv[0] == 'setup':     # config parsing and admission\n"
        "        spec, kw, _ = cli.load_config(argv[1])\n"
        "        cli.verify.Scenario(spec=spec, **kw)\n"
        "        rc = None\n"
        "    else:\n"
        "        rc = cli.main(argv)\n"
        "    seen.append([rc, 'scipy.special' in sys.modules])\n"
        "print(json.dumps(seen))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(steps):
        done = subprocess.run([sys.executable, "-c", script, json.dumps(steps)],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    io = lambda name: ["--config", configs[name], "--out", out]
    assert run([["simulate", *io("a1")], ["path-dump", *io("a1")],
                ["simulate", *io("noscale_dri")], ["verify", *io("bad_key")],
                ["verify", *io("a1")]]) == [
        [None, []], [0, False], [0, False], [0, False], [2, False], [0, True]]
    # D4 MOMENTS admission evaluates the closed-form moments
    assert run([["setup", configs["d4_exp_limit"]]]) == [[None, []], [None, True]]


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "renewalshot.cli", "formula",
                          "Rs", "--alpha", "0.5", "--s", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "1.00000000000"
