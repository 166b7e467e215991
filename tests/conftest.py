"""pytest set-up shared by every test module."""

import numpy as np
import scipy


def pytest_report_header(config):
    """The numpy and scipy versions and numpy's SIMD extensions: the golden
    hashes and shotnoise's exact pairwise sums rest on numpy's reduction,
    so a golden failure names the numpy that produced it."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        simd = ", ".join(f"{k} {' '.join(v)}" for k, v in simd.items())
    except (TypeError, KeyError):          # numpy without mode="dicts"
        simd = "unknown"
    return [f"numpy {np.__version__}, scipy {scipy.__version__}",
            f"numpy SIMD extensions: {simd}"]
