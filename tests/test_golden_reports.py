"""Golden reports: sha256 of every report output for a fixed seed.

One small scenario per admissible (regime, plan) pair.  The hashes in
golden_reports.json pin `TestReport.to_json()`, `write_csv` and
`write_plot_data` byte for byte, so a refactor that changes any float
expression, stream key or record order fails here.  Its "matrices" entry
pins the raw bytes of `simulate_scaled_matrix` for one spec per regime,
which report quantiles alone could let a one-ulp change slip past.

Regenerate the fixture (only for an intended output change) with
`PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json`.
With `--diff` the script prints only the (case, output) pairs whose hash
differs from the fixture, with the old and the new hash.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from renewalshot.laws import (Constant, ExpDecay, Exponential, Pareto,
                              ParetoTailMatch, PowerDecay)
from renewalshot.shotnoise import LimitSpec
from renewalshot.verify import Scenario, run_scenario, simulate_scaled_matrix

FIXTURE = Path(__file__).with_name("golden_reports.json")

# the no-scaling and A3 limits have a closed-form moment of order 1 only
NOSCALE_PLANS = ("KS_MARGINAL", "MOMENTS:1", "JOINT_PAIRWISE_INDEPENDENCE",
                 "TIME_REVERSAL")
FINITE_MEAN_SCALED_PLANS = ("KS_MARGINAL", "MOMENTS:4", "TIME_REVERSAL",
                            "SELF_SIMILARITY", "MEAN_ABS_N")
A3_PLANS = ("KS_MARGINAL", "MOMENTS:1") + FINITE_MEAN_SCALED_PLANS[2:]
D4_PLANS = ("KS_MARGINAL", "MOMENTS:4", "SELF_SIMILARITY")

CASES = {
    "noscale_dri": (LimitSpec(Exponential(1.0), ExpDecay(1.0)),
                    NOSCALE_PLANS, {}),
    "noscale_centered": (LimitSpec(Exponential(1.0), PowerDecay(0.75)),
                         NOSCALE_PLANS, {"x_star_truncation": 200.0}),
    "a1": (LimitSpec(Exponential(1.0), PowerDecay(0.25)),
           FINITE_MEAN_SCALED_PLANS, {}),
    "a2": (LimitSpec(Pareto(2.0, 1.0), Constant(1.0)),
           FINITE_MEAN_SCALED_PLANS, {}),
    "a3": (LimitSpec(Pareto(1.5, 1.0), PowerDecay(0.25)), A3_PLANS, {}),
    "d4_beta_below_alpha": (LimitSpec(Pareto(0.5, 1.0), PowerDecay(0.25)),
                            D4_PLANS, {}),
    "d4_beta_equals_alpha": (LimitSpec(Pareto(0.5, 1.0),
                                       ParetoTailMatch(0.5, 1.0, 1.0)),
                             D4_PLANS + ("STATIONARITY_LOGTIME",), {}),
}


# (spec, t, replicates) on the u-grid (0.5, 1, 2), seed 11: one per regime
# table entry (D4 twice), an A1 case whose paths hold more than one
# 4096-gap block, and a D4 case that spans several sub-batches
MATRIX_CASES = {
    "noscale_dri": (CASES["noscale_dri"][0], 100.0, 200),
    "noscale_centered": (CASES["noscale_centered"][0], 100.0, 200),
    "a1": (CASES["a1"][0], 100.0, 200),
    "a1_past_one_block": (CASES["a1"][0], 3000.0, 100),
    "a2": (LimitSpec(Pareto(2.0, 1.0), Constant(3.0)), 100.0, 200),
    "a3": (CASES["a3"][0], 100.0, 200),
    "d4_beta_below_alpha": (CASES["d4_beta_below_alpha"][0], 1000.0, 200),
    "d4_beta_equals_alpha": (CASES["d4_beta_equals_alpha"][0], 1e4, 600),
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report(name, u_grid=(1.0, 2.0), t_ladder=(100.0, 400.0)):
    spec, plans, knobs = CASES[name]
    return run_scenario(Scenario(spec=spec, u_grid=u_grid,
                                 t_ladder=t_ladder, replicates=100,
                                 seed=5, plans=plans, **knobs))


def report_hashes(name, **grids):
    rep = report(name, **grids)
    csv_buf, plot_buf = io.StringIO(), io.StringIO()
    rep.write_csv(csv_buf)
    rep.write_plot_data(plot_buf)
    return {"json": _sha(rep.to_json()), "csv": _sha(csv_buf.getvalue()),
            "plot": _sha(plot_buf.getvalue())}


def matrix_hash(name):
    spec, t, n = MATRIX_CASES[name]
    m = simulate_scaled_matrix(spec, (0.5, 1.0, 2.0), t, n, 11)
    return hashlib.sha256(m.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert report_hashes(name) == golden[name]


def test_integer_parameters_report_as_floats(monkeypatch):
    # alpha and beta are derived as floats and the laws and responses store
    # their parameters as floats, so integer arguments change no byte
    spec = LimitSpec(Pareto(2, 1), Constant(1))
    monkeypatch.setitem(CASES, "a2", (spec,) + CASES["a2"][1:])
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert report_hashes("a2") == golden["a2"]
    # so are integer and array grids: a numpy t-ladder used to fail
    # MEAN_ABS_N's ladder.index(t) after simulating, and integer grids to
    # echo 100 for 100.0
    assert report_hashes("a1", u_grid=(1, 2),
                         t_ladder=np.array([100, 400])) == golden["a1"]


def test_one_pass_rule_for_every_record():
    # a record passes on its p-value when it has one and on |z| < 3 when
    # not; MEAN_ABS_N alone keeps a 5% relative-error rule
    seen = set()
    for name in sorted(CASES):
        rep = report(name)
        significance = rep.scenario["significance"]
        for r in rep.records:
            seen.add(r.test.split(":")[0])
            if r.test == "MEAN_ABS_N":
                continue
            want = (r.p_value > significance if r.p_value is not None
                    else abs(r.z_score) < 3)
            assert r.passed == want, (name, r)
    assert {"KS_MARGINAL", "MOMENTS", "CORRELATION", "COPULA_PRODUCT",
            "TIME_REVERSAL", "SELF_SIMILARITY", "STATIONARITY_LOGTIME",
            "MEAN_ABS_N"} == seen


@pytest.mark.parametrize("name", sorted(MATRIX_CASES))
def test_matrix_bytes_match_golden(name):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert matrix_hash(name) == golden["matrices"][name]


if __name__ == "__main__":
    fixture = {name: report_hashes(name) for name in sorted(CASES)}
    fixture["matrices"] = {name: matrix_hash(name)
                           for name in sorted(MATRIX_CASES)}
    if "--diff" in sys.argv[1:]:
        golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
        for case, hashes in fixture.items():
            for output, new in hashes.items():
                old = golden.get(case, {}).get(output)
                if old != new:
                    print(f"{case} {output} {old} -> {new}")
    else:
        print(json.dumps(fixture, indent=1, sort_keys=True))
