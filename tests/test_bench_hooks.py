"""The benchmark's trace hooks still find every name they wrap.

`bench/run.py --trace 1` wraps public entry points of each renewalshot
layer by name (`run.instrument`).  A change that removes or renames one of
them breaks the traced benchmark; this test makes it fail here too,
without running a workload.
"""

import importlib.util
import sys
from pathlib import Path

from renewalshot import limits, renewal

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
