"""Experiment harness: config parsing, the slot loop, trace emission.

Configs are JSON documents; the bundled configs/default.json carries the
six-server testbed. Traces are per-slot rows in a fixed column order

    t, policy, seed, realized_reward, expected_reward,
    remaining_resource, num_deployed, oracle_value, regret

with the last two left empty unless regret evaluation is requested. A
summary sidecar aggregates per-policy means and sample standard deviations
across seeds.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.resources
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .learning import init_learners
from .model import Catalog, EdgeNetwork, validate_instance
from .oracle import optimal_slot_value
from .policy import (RewardWeights, bandit_scheme_slot, expected_slot_value,
                     random_scheme_slot, realized_reward, rtsd_slot)
from .workload import (POLICY_DOMAIN, make_ground_truth, rewind_stream, sample_slots,
                       slot_stream)

POLICY_ORDER = ("rtsd", "bandit", "random")

CSV_COLUMNS = ("t", "policy", "seed", "realized_reward", "expected_reward",
               "remaining_resource", "num_deployed", "oracle_value", "regret")


# simulate_run draws observations this many slots at a time: one Philox call
# per block, and memory that stays bounded however long the run is.
OBS_BLOCK_SLOTS = 256


class ConfigError(ValueError):
    """The experiment config is malformed or internally inconsistent."""


@dataclass(frozen=True)
class Row:
    t: int
    policy: str
    seed: int
    realized_reward: float
    expected_reward: float
    remaining_resource: int
    num_deployed: int
    oracle_value: float | None
    regret: float | None


@dataclass(eq=False)
class ExperimentConfig:
    network: EdgeNetwork
    catalog: Catalog
    request_prob: object            # scalar, per-SFC list, or full matrix
    failure_mean: np.ndarray
    weights: RewardWeights
    users: int
    slots: int
    seeds: tuple[int, ...]
    policies: tuple[str, ...]
    failure_bonus_scale: float | None   # None means the per-user default
    failure_bonus_sign: int
    capacity_scale: float
    regret: bool


@dataclass(eq=False)
class RunResult:
    config: ExperimentConfig
    rows: list[Row]
    summary: dict


def default_config_path() -> Path:
    return Path(str(importlib.resources.files("sfcbackup") / "configs" / "default.json"))


def parse_seeds(spec) -> tuple[int, ...]:
    """Accept a single int, a list of ints, or an inclusive 'A..B' range string."""
    if isinstance(spec, bool):
        raise ConfigError("seeds must be integers")
    if isinstance(spec, int):
        seeds = (spec,)
    elif isinstance(spec, str):
        text = spec.strip()
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as exc:
                raise ConfigError(f"bad seed range {spec!r}") from exc
            if hi < lo:
                raise ConfigError(f"empty seed range {spec!r}")
            seeds = tuple(range(lo, hi + 1))
        else:
            try:
                seeds = (int(text),)
            except ValueError as exc:
                raise ConfigError(f"bad seed {spec!r}") from exc
    elif isinstance(spec, (list, tuple)):
        try:
            seeds = tuple(int(s) for s in spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError("seeds list must contain integers") from exc
    else:
        raise ConfigError(f"cannot parse seeds from {spec!r}")
    if not seeds:
        raise ConfigError("need at least one seed")
    if any(s < 0 for s in seeds):
        raise ConfigError("seeds must be nonnegative")
    return seeds


def parse_policies(spec) -> tuple[str, ...]:
    if spec in (None, "all"):
        return POLICY_ORDER
    if isinstance(spec, str):
        spec = [spec]
    out = []
    for name in spec:
        if name == "all":
            return POLICY_ORDER
        if name not in POLICY_ORDER:
            raise ConfigError(f"unknown policy {name!r}; choose from {POLICY_ORDER}")
        if name not in out:
            out.append(name)
    if not out:
        raise ConfigError("need at least one policy")
    return tuple(out)


def _check(cfg: ExperimentConfig) -> ExperimentConfig:
    problems = validate_instance(cfg.network, cfg.catalog)
    if problems:
        raise ConfigError("bad instance: " + "; ".join(problems))
    if cfg.slots < 1:
        raise ConfigError("slots must be >= 1")
    if cfg.users < 1:
        raise ConfigError("users must be >= 1")
    if not (cfg.capacity_scale > 0.0):
        raise ConfigError("capacity_scale must be positive")
    if cfg.failure_mean.shape[0] != cfg.catalog.n_vnfs:
        raise ConfigError(f"failure_mean needs {cfg.catalog.n_vnfs} entries")
    try:
        # shakes out request_prob shape problems and out-of-range probabilities
        make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                          cfg.catalog.n_sfcs, cfg.seeds[0])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or an equivalent dict."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    try:
        net_spec = raw["network"]
        cat_spec = raw["catalog"]
        gt_spec = raw["ground_truth"]
        network = EdgeNetwork(net_spec["capacities"], net_spec.get("links", ()))
        catalog = Catalog(cat_spec["vnf_demand"], cat_spec["sfc_chain"])
        request_prob = gt_spec["request_prob"]
        failure_mean = np.asarray(gt_spec["failure_mean"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"config missing or malformed section: {exc}") from exc

    weights_spec = raw.get("weights", {})
    try:
        weights = RewardWeights(omega=float(weights_spec.get("omega", 1.0)),
                                mu=float(weights_spec.get("mu", 1.0)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    learner_spec = raw.get("learner", {})
    scale = learner_spec.get("failure_bonus_scale")
    cfg = ExperimentConfig(
        network=network,
        catalog=catalog,
        request_prob=request_prob,
        failure_mean=failure_mean,
        weights=weights,
        users=int(raw.get("users", 10)),
        slots=int(raw.get("slots", 500)),
        seeds=parse_seeds(raw.get("seeds", 1)),
        policies=parse_policies(raw.get("policies", "all")),
        failure_bonus_scale=None if scale is None else float(scale),
        failure_bonus_sign=int(learner_spec.get("failure_bonus_sign", 1)),
        capacity_scale=float(raw.get("capacity_scale", 1.0)),
        regret=bool(raw.get("regret", False)),
    )
    return _check(cfg)


def apply_overrides(cfg: ExperimentConfig, *, slots: int | None = None,
                    seeds=None, policy: str | None = None,
                    regret: bool | None = None,
                    capacity_scale: float | None = None,
                    users: int | None = None) -> ExperimentConfig:
    """Command-line style overrides on top of a loaded config."""
    updates = {}
    if slots is not None:
        updates["slots"] = int(slots)
    if seeds is not None:
        updates["seeds"] = parse_seeds(seeds)
    if policy is not None:
        updates["policies"] = parse_policies(policy)
    if regret is not None:
        updates["regret"] = bool(regret)
    if capacity_scale is not None:
        updates["capacity_scale"] = float(capacity_scale)
    if users is not None:
        updates["users"] = int(users)
    if not updates:
        return cfg
    return _check(dataclasses.replace(cfg, **updates))


def simulate_run(network: EdgeNetwork, catalog: Catalog, gt, weights: RewardWeights,
                 policy: str, slots: int, *, users: int,
                 failure_bonus_scale: float | None = None,
                 failure_bonus_sign: int = 1) -> dict[str, np.ndarray]:
    """One (policy, seed) trajectory; slot 0 only initializes the learners.

    Returns per-slot arrays (index 0 is slot 1) of realized reward, expected
    reward, total remaining resource, and deployment count.
    """
    realized: list[float] = []
    expected: list[float] = []
    remaining: list[int] = []
    deployed: list[int] = []

    observations = _observations(gt, slots + 1)
    learners = init_learners(next(observations), users,
                             failure_bonus_scale=failure_bonus_scale,
                             failure_bonus_sign=failure_bonus_sign)
    # one generator for the whole run, rewound to slot t's stream each slot
    policy_rng = slot_stream(gt.rng_seed, 1, POLICY_DOMAIN) if policy == "random" else None
    for t, obs in enumerate(observations, start=1):
        if policy == "rtsd":
            decision = rtsd_slot(network, catalog, learners, t, obs, weights)
        elif policy == "bandit":
            decision = bandit_scheme_slot(network, catalog, learners, t, obs, weights)
        elif policy == "random":
            rng = rewind_stream(policy_rng, gt.rng_seed, t, POLICY_DOMAIN)
            decision = random_scheme_slot(network, catalog, t, obs, rng)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        _, total = realized_reward(weights, obs, decision, catalog)
        realized.append(total)
        expected.append(expected_slot_value(weights, gt, decision, catalog))
        remaining.append(sum(decision.residual_after.tolist()))
        deployed.append(len(decision.deployed))
    return {"realized": np.array(realized, dtype=np.float64),
            "expected": np.array(expected, dtype=np.float64),
            "remaining": np.array(remaining, dtype=np.int64),
            "deployed": np.array(deployed, dtype=np.int64)}


def _observations(gt, n_slots: int):
    """Observations of slots 0 .. n_slots-1, drawn OBS_BLOCK_SLOTS at a time."""
    for t0 in range(0, n_slots, OBS_BLOCK_SLOTS):
        yield from sample_slots(gt, t0, min(t0 + OBS_BLOCK_SLOTS, n_slots))


def _mean_std(values: list[float]) -> dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "std": std}


def run(cfg: ExperimentConfig) -> RunResult:
    """Run every (policy, seed) pair and collect the trace plus aggregates."""
    network = cfg.network if cfg.capacity_scale == 1.0 else cfg.network.scaled(cfg.capacity_scale)
    catalog = cfg.catalog

    oracle_value: float | None = None
    if cfg.regret:
        gt0 = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                                catalog.n_sfcs, cfg.seeds[0])
        oracle_value = optimal_slot_value(network, catalog, gt0, cfg.weights).best_value

    rows: list[Row] = []
    per_policy: dict[str, dict[str, list[float]]] = {
        p: {"realized": [], "expected": [], "remaining": [], "deployed": []}
        for p in cfg.policies}
    for policy in cfg.policies:
        for seed in cfg.seeds:
            gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                                   catalog.n_sfcs, seed)
            series = simulate_run(network, catalog, gt, cfg.weights, policy,
                                  cfg.slots, users=cfg.users,
                                  failure_bonus_scale=cfg.failure_bonus_scale,
                                  failure_bonus_sign=cfg.failure_bonus_sign)
            for t in range(1, cfg.slots + 1):
                expected_t = float(series["expected"][t - 1])
                regret_t = None if oracle_value is None else oracle_value - expected_t
                rows.append(Row(
                    t=t, policy=policy, seed=seed,
                    realized_reward=float(series["realized"][t - 1]),
                    expected_reward=expected_t,
                    remaining_resource=int(series["remaining"][t - 1]),
                    num_deployed=int(series["deployed"][t - 1]),
                    oracle_value=oracle_value, regret=regret_t,
                ))
            agg = per_policy[policy]
            agg["realized"].append(float(series["realized"].mean()))
            agg["expected"].append(float(series["expected"].mean()))
            agg["remaining"].append(float(series["remaining"].mean()))
            agg["deployed"].append(float(series["deployed"].mean()))

    total_capacity = int(network.caps_array.sum())
    summary = {
        "slots": cfg.slots,
        "seeds": list(cfg.seeds),
        "users": cfg.users,
        "capacity_scale": cfg.capacity_scale,
        "total_capacity": total_capacity,
        "oracle_value": oracle_value,
        "policies": {
            p: {
                "time_avg_realized": _mean_std(agg["realized"]),
                "time_avg_expected": _mean_std(agg["expected"]),
                "mean_remaining": _mean_std(agg["remaining"]),
                "mean_deployed": _mean_std(agg["deployed"]),
            }
            for p, agg in per_policy.items()
        },
    }
    return RunResult(config=cfg, rows=rows, summary=summary)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(result: RunResult, out_dir, fmt: str = "csv") -> list[Path]:
    """Write trace.csv and/or trace.jsonl plus summary.json into ``out_dir``."""
    if fmt not in ("csv", "jsonl", "both"):
        raise ConfigError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if fmt in ("csv", "both"):
        path = out / "trace.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in result.rows:
                writer.writerow([_cell(getattr(row, col)) for col in CSV_COLUMNS])
        written.append(path)

    if fmt in ("jsonl", "both"):
        path = out / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for row in result.rows:
                fh.write(json.dumps({col: getattr(row, col) for col in CSV_COLUMNS}))
                fh.write("\n")
        written.append(path)

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=False)
        fh.write("\n")
    written.append(summary_path)
    return written
