"""Budget-constrained collaborative bandit simulation library."""

from .env import (
    BlockingLedger,
    BudgetError,
    ConfigurationError,
    GeneratorSpec,
    Instance,
    NoiseModel,
    ProtocolError,
    Simulation,
    generate_instance,
    instance_from_json,
    instance_to_json,
    mean_reward_matrix,
)
from .harness import ALGORITHMS, RegretTrace, SweepSpec, build_trace, run_algorithm, sweep

__all__ = [
    "ALGORITHMS",
    "BlockingLedger",
    "BudgetError",
    "ConfigurationError",
    "GeneratorSpec",
    "Instance",
    "NoiseModel",
    "ProtocolError",
    "RegretTrace",
    "Simulation",
    "SweepSpec",
    "build_trace",
    "generate_instance",
    "instance_from_json",
    "instance_to_json",
    "mean_reward_matrix",
    "run_algorithm",
    "sweep",
]

__version__ = "0.1.0"
