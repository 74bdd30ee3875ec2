"""Secrecy-rate toolkit for waveguide-fed pinching antennas.

Models a dielectric waveguide feeding on/off switchable radiating points,
scores antenna coalitions by the secrecy rate they deliver against a
passive eavesdropper, and selects the active set with a payoff-driven
merge/split game.  Exhaustive, annealing, value-greedy, and fixed-array
baselines plus a seeded Monte Carlo harness round out the package.
"""

from . import coalitions
from .baselines import (AnnealingSchedule, brute_force_secrecy_optimum,
                        coalition_value_activation, enumerate_secrecy_values,
                        simulated_annealing)
from .channel import channel_vector, wavelengths
from .coalitions import CapacityError
from .game import payoff_reports, run_activation, shapley_value
from .geometry import AntennaLayout, Scenario, sample_drop, uniform_layout
from .harness import (ExperimentConfig, aggregate_rows, run_antenna_sweep,
                      run_convergence_study, run_power_sweep, write_outputs)
from .secrecy import LinkBudget, SecrecyEvaluator

__version__ = "0.1.0"

__all__ = [
    "AnnealingSchedule", "AntennaLayout", "CapacityError", "ExperimentConfig",
    "LinkBudget", "Scenario", "SecrecyEvaluator", "aggregate_rows",
    "brute_force_secrecy_optimum", "channel_vector", "coalition_value_activation",
    "coalitions", "enumerate_secrecy_values", "payoff_reports", "run_activation",
    "run_antenna_sweep", "run_convergence_study", "run_power_sweep", "sample_drop",
    "shapley_value", "simulated_annealing", "uniform_layout", "wavelengths",
    "write_outputs",
]
