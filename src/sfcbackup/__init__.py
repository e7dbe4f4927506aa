"""Backup selection and placement for service function chains at the edge.

A time-slotted simulator plus three policies: a learned latency-aware scheme
(rtsd), a learned first-fit baseline (bandit), and an uninformed random
baseline, with exhaustive oracles for small instances.

The package exports what a caller needs to describe an instance, run an
experiment and write its trace. The lower-level pieces (learners, kernels,
batched simulators, the per-slot policy step) are imported from their
submodules.
"""

from .model import Catalog, EdgeNetwork, validate_instance
from .workload import GroundTruth, make_ground_truth
from .policy import InvariantViolation, RewardWeights
from .oracle import OracleResult, SearchSpaceTooLarge, optimal_slot_value
from .harness import (ConfigError, ExperimentConfig, RunResult, apply_overrides,
                      default_config_path, emit, load_config, run)

__version__ = "0.1.0"

__all__ = [
    "Catalog", "EdgeNetwork", "validate_instance",
    "GroundTruth", "make_ground_truth",
    "RewardWeights", "InvariantViolation",
    "OracleResult", "SearchSpaceTooLarge", "optimal_slot_value",
    "ConfigError", "ExperimentConfig", "RunResult", "apply_overrides",
    "default_config_path", "emit", "load_config", "run",
    "__version__",
]
