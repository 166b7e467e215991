"""pytest set-up shared by every test module."""

import os

import numpy as np
import scipy

from renewalshot import verify


def pytest_report_header(config):
    """The numpy and scipy versions and numpy's SIMD extensions: the golden
    hashes and shotnoise's exact pairwise sums rest on numpy's reduction,
    so a golden failure names the numpy that produced it.  Then the CPU
    count and whether the pool forks here, which set the processes that
    the thread tests run on."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        simd = ", ".join(f"{k} {' '.join(v)}" for k, v in simd.items())
    except (TypeError, KeyError):          # numpy without mode="dicts"
        simd = "unknown"
    cpus = os.cpu_count()
    pool = (f"forks, a map at threads 2 runs on "
            f"{verify._Pool(2).workers(2)} processes" if verify._FORKS
            else "every map in-process on this platform")
    return [f"numpy {np.__version__}, scipy {scipy.__version__}",
            f"numpy SIMD extensions: {simd}",
            f"CPUs: {cpus}, pool: {pool}"]
