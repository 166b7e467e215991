"""renewalshot: simulation and statistical verification of renewal shot
noise limit theorems."""

from .laws import (Constant, ExpDecay, Exponential, Gamma, IncrementLaw,
                   Pareto, ParetoTailMatch, PowerDecay, ResponseFunction,
                   Uniform, Window)
from .renewal import (RenewalPath, STATIONARY, ZERO_DELAYED, count,
                      count_increment, sample_path, undershoot)
from .shotnoise import (A1, A2, A3, D4, NOSCALE_CENTERED, NOSCALE_DRI,
                        InadmissibleSpec, LimitSpec, evaluate,
                        scaled_statistic, scaling_g, solve_c)
from .stable import StableSpec, abs_moment, sample_positive_stable, sample_stable
from .streams import substream
from .verify import Scenario, TestReport, run_scenario

__version__ = "0.1.0"

__all__ = [
    "A1", "A2", "A3", "D4", "NOSCALE_CENTERED", "NOSCALE_DRI",
    "Constant", "ExpDecay", "Exponential", "Gamma", "IncrementLaw",
    "InadmissibleSpec", "LimitSpec", "Pareto", "ParetoTailMatch",
    "PowerDecay", "RenewalPath", "ResponseFunction", "STATIONARY",
    "Scenario", "StableSpec", "TestReport", "Uniform", "Window",
    "ZERO_DELAYED", "abs_moment", "count", "count_increment", "evaluate",
    "run_scenario", "sample_path", "sample_positive_stable",
    "sample_stable", "scaled_statistic", "scaling_g", "solve_c",
    "substream", "undershoot",
]
