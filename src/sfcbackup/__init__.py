"""Backup selection and placement for service function chains at the edge.

A time-slotted simulator plus three policies: a learned latency-aware scheme
(rtsd), a learned first-fit baseline (bandit), and an uninformed random
baseline, with exhaustive oracles for small instances.

The package exports what a caller needs to describe an instance, run an
experiment and write its trace. The lower-level pieces are imported from
their submodules: lockstep holds the learned policies' one learner state,
lockstep.Learners, and the batched stages that advance many of its rows at
once; policy.learned_rows advances a few rows a chunk at a time, seed by
seed; kernels holds the selection scan and the placement walks.
"""

from .model import Catalog, EdgeNetwork, InvariantViolation, RewardWeights, validate_instance
from .workload import GroundTruth, make_ground_truth
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
