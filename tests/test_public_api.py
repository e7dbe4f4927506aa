"""The package's exported names, and the module attributes the benchmark reaches for."""

from __future__ import annotations

import importlib

import sfcbackup

PUBLIC = {
    # the instance
    "Catalog", "EdgeNetwork", "validate_instance",
    # its hidden parameters
    "GroundTruth", "make_ground_truth",
    # policy types
    "RewardWeights", "InvariantViolation",
    # the oracle
    "OracleResult", "SearchSpaceTooLarge", "optimal_slot_value",
    # running an experiment
    "ConfigError", "ExperimentConfig", "RunResult", "apply_overrides",
    "default_config_path", "emit", "load_config", "run",
    "__version__",
}

# perfbench/ reads or wraps these by module and name; a missing one would fail
# a benchmark run or show up only as an absent traced layer.
BENCHMARK_NAMES = {
    "sfcbackup": ("make_ground_truth",),
    "sfcbackup.harness": ("load_config", "apply_overrides", "default_config_path", "run",
                          "emit", "simulate_run", "make_ground_truth", "optimal_slot_value"),
    "sfcbackup.policy": ("popularity_estimate", "failure_estimate", "popularity_update",
                         "failure_update"),
    "sfcbackup.kernels": ("NUMBA_ENABLED", "slot_decide", "greedy_chain_walk",
                          "first_fit_chain_walk"),
    "sfcbackup.workload": ("slot_stream",),
}


def test_all_lists_exactly_the_public_names() -> None:
    assert len(sfcbackup.__all__) == len(set(sfcbackup.__all__)) == 19
    assert set(sfcbackup.__all__) == PUBLIC


def test_every_exported_name_resolves() -> None:
    for name in sfcbackup.__all__:
        assert getattr(sfcbackup, name) is not None, name


def test_star_import_binds_exactly_the_public_names() -> None:
    namespace: dict = {}
    exec("from sfcbackup import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == PUBLIC


def test_benchmark_names_resolve() -> None:
    missing = [f"{module}.{name}" for module, names in BENCHMARK_NAMES.items()
               for name in names if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing
