"""Backup selection and placement for service function chains at the edge.

A time-slotted simulator plus three policies: a learned latency-aware scheme
(rtsd), a learned first-fit baseline (bandit), and an uninformed random
baseline, with exhaustive oracles for small instances.
"""

from .model import (Catalog, EdgeNetwork, PlacementPlan, cheapest_link_anchor,
                    validate_instance)
from .workload import (GroundTruth, SlotObservation, make_ground_truth, sample_slot,
                       sample_slots, true_popularity)
from .learning import (FailureLearner, PopularityLearner, chain_failure_rate,
                       failure_estimate, failure_update, init_learners,
                       popularity_estimate, popularity_update)
from .policy import (InvariantViolation, RewardWeights, SlotDecision, learned_slot,
                     verify_decision)
from .oracle import (OracleResult, SearchSpaceTooLarge, optimal_chain_latency,
                     optimal_slot_value, shortest_path_matrix)
from .harness import (ConfigError, ExperimentConfig, RunResult, apply_overrides,
                      default_config_path, emit, load_config, run, simulate_run)

__version__ = "0.1.0"

__all__ = [
    "Catalog", "EdgeNetwork", "cheapest_link_anchor", "validate_instance",
    "GroundTruth", "SlotObservation", "make_ground_truth", "sample_slot", "sample_slots",
    "true_popularity",
    "FailureLearner", "PopularityLearner", "chain_failure_rate",
    "failure_estimate", "failure_update", "init_learners",
    "popularity_estimate", "popularity_update",
    "PlacementPlan",
    "InvariantViolation", "RewardWeights", "SlotDecision",
    "learned_slot", "verify_decision",
    "OracleResult", "SearchSpaceTooLarge", "optimal_chain_latency",
    "optimal_slot_value", "shortest_path_matrix",
    "ConfigError", "ExperimentConfig", "RunResult", "apply_overrides",
    "default_config_path", "emit", "load_config", "run", "simulate_run",
    "__version__",
]
