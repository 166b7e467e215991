"""Command line front end: config parsing, outputs, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from renewalshot import cli, limits, verify


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


def test_simulate_thread_invariance(a1_config, tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    cli.main(["simulate", "--config", a1_config, "--out", str(out1),
              "--threads", "1"])
    cli.main(["simulate", "--config", a1_config, "--out", str(out2),
              "--threads", "3"])
    assert out1.read_bytes() == out2.read_bytes()


def test_threads_env_fallback(a1_config, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    cli.main(["simulate", "--config", a1_config, "--out", str(out1)])
    monkeypatch.setenv("RENEWALSHOT_THREADS", "2")
    cli.main(["simulate", "--config", a1_config, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    monkeypatch.setenv("RENEWALSHOT_THREADS", "zebra")
    assert cli.main(["simulate", "--config", a1_config,
                     "--out", str(tmp_path / "e3.csv")]) == 2


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
    assert "(0,1/alpha)" in capsys.readouterr().err


def test_inadmissible_plan_exits_3(tmp_path, capsys):
    p = tmp_path / "plan.ini"
    one_point = A1_CONFIG.replace("u = 0.5, 1.0", "u = 1.0")
    for config, plan in ((A1_CONFIG, "STATIONARITY_LOGTIME"),
                         (A1_CONFIG, "MOMENTS:0"), (A1_CONFIG, "MOMENTS:-2"),
                         (A1_CONFIG, "KS_MARGINAL:zzz"),
                         (one_point, "SELF_SIMILARITY")):
        p.write_text(config.replace("plans = KS_MARGINAL",
                                    f"plans = {plan}"))
        assert cli.main(["verify", "--config", str(p),
                         "--out", str(tmp_path / "r")]) == 3, plan
        assert plan in capsys.readouterr().err


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


def test_powerdecay_without_beta_exits_2(tmp_path, capsys):
    p = tmp_path / "nobeta.ini"
    p.write_text(A1_CONFIG.replace("kind = constant\nvalue = 1.0",
                                   "kind = powerdecay\nc0 = 1.0"))
    assert cli.main(["simulate", "--config", str(p),
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "'beta'" in capsys.readouterr().err


def test_centered_references_without_truncation_exit_2(tmp_path, capsys):
    p = tmp_path / "centered.ini"
    p.write_text(A1_CONFIG.replace("name = A1", "name = NOSCALE_CENTERED")
                 .replace("kind = constant\nvalue = 1.0",
                          "kind = powerdecay\nbeta = 0.75"))
    assert cli.main(["verify", "--config", str(p),
                     "--out", str(tmp_path / "r")]) == 2
    assert "x_star_truncation" in capsys.readouterr().err


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    p = tmp_path / "readme.ini"
    p.write_text(readme.split("```ini\n")[1].split("```")[0])
    spec, kw, _ = cli.load_config(str(p))
    assert spec.regime == "A3"
    verify.Scenario(spec=spec, **kw)


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
    p = tmp_path / "mean_abs_n.ini"
    p.write_text(A1_CONFIG.replace("plans = KS_MARGINAL", "plans = MEAN_ABS_N"))
    rc = cli.main(["verify", "--config", str(p), "--out", str(tmp_path / "r")])
    assert rc in (0, 1)
    payload = json.loads((tmp_path / "r.json").read_text())
    assert [r["test"] for r in payload["records"]] == ["MEAN_ABS_N"]


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


def test_path_dump(a1_config, tmp_path):
    out = tmp_path / "path.csv"
    rc = cli.main(["path-dump", "--config", a1_config, "--out", str(out),
                   "--json"])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,S_k"
    assert lines[1] == "0,0.0"


def test_path_dump_without_horizon_or_ladder_exits_2(tmp_path, capsys):
    p = tmp_path / "noladder.ini"
    p.write_text(A1_CONFIG.replace("t = 60", "t ="))
    assert cli.main(["path-dump", "--config", str(p),
                     "--out", str(tmp_path / "path.csv")]) == 2
    assert "horizon" in capsys.readouterr().err


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


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "renewalshot.cli", "formula",
                          "Rs", "--alpha", "0.5", "--s", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "1.00000000000"
