"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    s = Spans()
    s.spans = [
        ["job", 0.0, 10.0, None, 1, None],
        ["a", 1.0, 4.0, 0, 1, None],
        ["a.child", 1.5, 3.5, 1, 1, None],
        ["b", 3.0, 5.0, 0, 1, None],      # overlaps a: union of a, b is 1..5
        ["c", 7.0, 8.0, 0, 1, None],
    ]
    assert s.self_times() == pytest.approx([5.0, 1.0, 2.0, 2.0, 1.0])


def test_wrapped_calls_nest_and_count():
    box = types.SimpleNamespace()
    box.inner = lambda n: list(range(n))
    box.outer = lambda n: box.inner(n)
    inner, outer = box.inner, box.outer
    s = Spans()
    s.wrap(box, "inner", "inner", lambda out, n: {"items": len(out)})
    s.wrap(box, "outer", "outer")
    assert box.outer(3) == [0, 1, 2]
    s.unwrap_all()
    assert [(sp[0], sp[3], sp[5]) for sp in s.spans] == [
        ("outer", None, None), ("inner", 0, {"items": 3})]
    assert (box.inner, box.outer) == (inner, outer)


def test_digest_check_catches_perturbed_matrix():
    m = np.random.default_rng(0).exponential(size=(50, 3))
    bumped = m.copy()
    bumped[7, 1] = np.nextafter(bumped[7, 1], np.inf)
    runner = workloads.Runner(job=None, probe=workloads.MatrixProbe())
    runner.check(1, {"matrix0": workloads.sha(m), "r.json@1": "x"})
    runner.check(2, {"matrix0": workloads.sha(m), "r.json@2": "y"})
    with pytest.raises(workloads.OutputError):
        runner.check(2, {"matrix0": workloads.sha(bumped), "r.json@2": "y"})
    with pytest.raises(workloads.OutputError):
        runner.check(1, {"matrix0": workloads.sha(m), "r.json@1": "z"})


def test_names_are_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: (u, b) for k, (u, b, _) in run.PER_LAYER.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
