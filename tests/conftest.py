"""pytest set-up shared by every test module."""

import multiprocessing
import os

import numpy as np
import scipy


def pytest_report_header(config):
    """The numpy and scipy versions and numpy's SIMD extensions: the golden
    hashes and shotnoise's exact pairwise sums rest on numpy's reduction,
    so a golden failure names the numpy that produced it.  Then the CPU
    count and the multiprocessing start method, which set the worker pool
    that the thread tests run on."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        simd = ", ".join(f"{k} {' '.join(v)}" for k, v in simd.items())
    except (TypeError, KeyError):          # numpy without mode="dicts"
        simd = "unknown"
    # the platform default (listed first) unless a start method was set
    method = (multiprocessing.get_start_method(allow_none=True)
              or multiprocessing.get_all_start_methods()[0])
    return [f"numpy {np.__version__}, scipy {scipy.__version__}",
            f"numpy SIMD extensions: {simd}",
            f"CPUs: {os.cpu_count()}, multiprocessing start method: {method}"]
