"""renewalshot: simulation and statistical verification of renewal shot
noise limit theorems."""

from .laws import (Constant, ExpDecay, Exponential, Gamma, IncrementLaw,
                   Pareto, ParetoTailMatch, PowerDecay, ResponseFunction,
                   Uniform, Window)
from .shotnoise import (A1, A2, A3, D4, NOSCALE_CENTERED, NOSCALE_DRI,
                        InadmissibleSpec, LimitSpec)
from .verify import Scenario, TestReport, run_scenario, simulate_scaled_matrix

__version__ = "0.1.0"

__all__ = [
    "A1", "A2", "A3", "D4", "NOSCALE_CENTERED", "NOSCALE_DRI",
    "Constant", "ExpDecay", "Exponential", "Gamma", "IncrementLaw",
    "InadmissibleSpec", "LimitSpec", "Pareto", "ParetoTailMatch",
    "PowerDecay", "ResponseFunction", "Scenario", "TestReport", "Uniform",
    "Window", "run_scenario", "simulate_scaled_matrix",
]
