"""The benchmark's hooks still find every name they wrap.

`bench/run.py --trace 1` wraps public entry points of each renewalshot
layer by name (`run.instrument`), and every benchmark run times the
engine through `workloads.MatrixProbe`, which replaces
`verify.simulate_scaled_matrix`.  A change that removes or renames one of
them, or that simulates a rung around the probe, breaks the benchmark;
these tests make it fail here too, without running a workload.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from renewalshot import limits, renewal, verify
from renewalshot.laws import Constant, Exponential
from renewalshot.shotnoise import LimitSpec

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    """bench/NAME.py as a module registered in sys.modules (its dataclasses
    look their module up there) for the length of the test."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_every_hooked_name(monkeypatch):
    spans = _load(monkeypatch, "spans").Spans()
    workloads = _load(monkeypatch, "workloads")
    run = _load(monkeypatch, "run")
    try:
        run.instrument(spans, workloads)
        assert limits.sample_path is not renewal.sample_path
    finally:
        spans.unwrap_all()
    assert limits.sample_path is renewal.sample_path


def test_every_rung_passes_the_matrix_probe(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    # restored after the test: install() rebinds the module attribute
    monkeypatch.setattr(verify, "simulate_scaled_matrix",
                        verify.simulate_scaled_matrix)
    probe = workloads.MatrixProbe()
    probe.install()
    scn = verify.Scenario(
        spec=LimitSpec(Exponential(1.0), Constant(1.0)),
        u_grid=(0.5, 1.0, 2.0), t_ladder=(50.0, 100.0), replicates=100,
        seed=5)
    digests = {}
    for threads in (1, 2):
        probe.calls.clear()
        verify.run_scenario(dataclasses.replace(scn, threads=threads))
        # the probe raises OutputError unless a call returns (n, len(u_grid))
        assert [n for n, _, _ in probe.calls] == [100, 100]
        digests[threads] = [d for _, _, d in probe.calls]
    assert digests[1] == digests[2]


def test_a_direct_matrix_call_passes_the_probe_once(monkeypatch):
    # bench/workloads.part_b and `renewalshot simulate` call the engine
    # directly: the probe must time that one call, not an inner one too
    workloads = _load(monkeypatch, "workloads")
    monkeypatch.setattr(verify, "simulate_scaled_matrix",
                        verify.simulate_scaled_matrix)
    probe = workloads.MatrixProbe()
    probe.install()
    spec = LimitSpec(Exponential(1.0), Constant(1.0))
    for threads in (1, 2):
        probe.calls.clear()
        verify.simulate_scaled_matrix(spec, (0.5, 1.0, 2.0), 100.0, 100, 5,
                                      threads)
        assert [n for n, _, _ in probe.calls] == [100]
