"""Experiment harness: config parsing, the simulator loop, trace emission.

Configs are JSON documents; the bundled configs/default.json carries the
six-server testbed. A run's trace is a set of columns, one list per name
in the fixed order

    t, policy, seed, realized_reward, expected_reward,
    remaining_resource, num_deployed, oracle_value, regret

with one entry per (policy, seed, slot) and the last two left empty unless
regret evaluation is requested. A summary sidecar aggregates per-policy means
and sample standard deviations across seeds.

simulate_run is the one simulator loop. run builds the hidden parameters
once, one GroundTruth that every seed shares, and calls simulate_run once
per group of seeds, for every policy at once, so that each seed's
observations are drawn once and the learned policies' learners, one
lockstep.Learners for the group, advance together. Only its decide step
depends on the policy, and on each chunk on the group's learner row count.
It returns each policy's series as (seeds, slots) arrays, and run reads the
trace columns and the summary's per-seed means off them. Its batched stages
live in lockstep.

emit writes the trace EMIT_ROWS rows at a time. Within a block it formats
each distinct value of a column once, by repr for trace.csv and json.dumps
for trace.jsonl, and looks every cell up in that table, so a float's
shortest round-trip digits are worked out once per value, not per cell. Two
cells share a table entry only when their values share a bit pattern, so the
bytes are those of formatting each cell alone.
"""

from __future__ import annotations

import dataclasses
import difflib
import gc
import importlib.resources
import json
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path

import numpy as np

from . import lockstep
from .kernels import FIRST_FIT, GREEDY, PlanGraph
from .model import Catalog, EdgeNetwork, RewardWeights, validate_instance
from .oracle import optimal_slot_value
from .policy import learned_rows
from .workload import (OBS_BLOCK_SLOTS, GroundTruth, check_parameters, make_ground_truth,
                       policy_uniform_block, sample_arrays)

POLICY_ORDER = ("rtsd", "bandit", "random")

# the learned policies' kernel placement walks; each plans on a PlanGraph
PLACEMENT_MODES = {"rtsd": GREEDY, "bandit": FIRST_FIT}

CSV_COLUMNS = ("t", "policy", "seed", "realized_reward", "expected_reward",
               "remaining_resource", "num_deployed", "oracle_value", "regret")


# Residuals, demands and the remaining-resource column are int64, and a seed is one
# 64-bit Philox key word.
INT64_MAX = 2 ** 63 - 1
SEED_LIMIT = 2 ** 64
# A run takes at most this many seeds; a longer range is rejected from its
# endpoints, before any seed tuple is built.
MAX_SEEDS = 1_000_000
# users x n_sfcs, the request draws of one slot, is at most this. A draw, one
# uniform drawn, thresholded and counted, takes about 11 ns (2 shared CPUs), so
# a seed's slot takes at most about 0.7 ms to draw, and GroundTruth's (users, F)
# request_prob matrix holds at most this many doubles, 512 KiB. A draw's memory
# is bounded apart from it: sample_arrays holds at most workload.MAX_DRAW_DOUBLES
# uniforms at a time.
MAX_REQUEST_DRAWS = 2 ** 16
# policies x seeds x slots, the trace rows a run holds, is at most this: a row
# takes about 170 bytes until emit writes it, so a run holds at most about 0.7 GB.
MAX_TRACE_ROWS = 2 ** 22

# A seed group keeps its learned policies' learners in one lockstep.Learners,
# and the row count (learned policies x seeds) picks, on each chunk, how the
# chunk advances them: from this many rows on, lockstep's numpy stages, all
# rows a slot at a time; below it, one policy.learned_rows call per policy,
# which reads its rows into lists and writes them back. Both write the same
# trace; only speed picks. Timed at 2, 4, 6, 8 and 12 seeds x 100 slots
# (harness.run, regret off, min of 11 alternating runs, 2 shared CPUs), numpy /
# per-seed time, the median of three such timings, with the per-seed side at
# one policy.learned_rows call per policy and chunk. rtsd and bandit together
# (4 to 24 rows): canonical 1.38 0.94 0.81 0.74 0.65; wide-edge 0.95 0.90 0.84
# 0.82 0.79; small-regret 2.05 1.30 1.08 0.90 0.74. rtsd alone, then bandit
# alone (2 to 12 rows): canonical 2.01 1.38 1.09 0.92 0.84, 2.07 1.38 1.09 0.95
# 0.80; wide-edge 1.02 0.94 0.88 0.87 0.83, 1.06 0.94 0.87 0.89 0.90;
# small-regret 3.11 2.09 1.58 1.28 1.06, 3.26 2.12 1.61 1.36 1.02. On canonical
# and wide-edge numpy still wins from 8 rows on (by 5-13%) and loses at 6 on
# canonical; on small-regret the per-seed side now wins up to 12 rows, by
# 28-36% at 8. The crossover on the bundled instance is still between 6 and
# 8 rows, and the three instances together are at par at 8 (geometric mean
# 1.03 for both policies, 1.01 and 1.05 alone), so the bound stays; none of
# perfbench's workloads is near it (canonical's groups hold 60 rows,
# wide-edge 4, small-regret 2).
LOCKSTEP_MIN_SEEDS = 8
# simulate_run holds a seed group's draws a block of slots ahead, once for
# every policy: per (slot, seed) row, F request counts, I failure flags and,
# when random runs, W policy uniforms. A group has at most
# LOCKSTEP_MAX_VALUES // (F + I + W + N) seeds, and a chunk of the learned
# policies as many rows (and at least one); each learned policy's records of
# a chunk are checked and valued on their own, each row then also holding an
# N-server residual. So a chunk's draws and the records checked with them
# hold at most this many values, 256 KiB at 8 bytes each. A block is at most
# one chunk, or OBS_BLOCK_SLOTS slots where a chunk is shorter, so its draws
# hold at most OBS_BLOCK_SLOTS times that, 64 MiB, however many seeds a run
# has. A block is drawn by one call of each over all of the group's seeds:
# sample_arrays draws its call's D = users x F + I uniforms a row,
# 4 * ceil(D / 4) doubles, at most workload.MAX_DRAW_DOUBLES of them at a
# time, and keeps only their counts; policy_uniform_block keeps the block's
# uniforms as drawn, 4 * ceil(W / 4) a row, up to three more than W.
# simulate_run decides the random policy as soon as they are drawn, reads
# them in place and drops them before the learned chunks run. It splits the
# block only into the fewest equal whole-slot pieces whose R rows give
# random_rows' (L, R) tables, one row per chain occurrence, at most
# 2 * LOCKSTEP_MAX_VALUES entries: 2730 rows on the bundled layout (L = 24),
# which peak at about 2.6 MiB in random_rows, measured with tracemalloc. One
# slot of a group always fits, as L < W. Each piece is checked and valued as
# one. At this bound a 2-seed, 50-slot run with 178 values a row
# (perfbench's wide-edge) decides its block in one chunk and one piece, and a
# 1-seed run with 20 values a row (perfbench's small-regret) takes 1638 slots
# a chunk, all of its 1000 slots at once. The bundled config's 30 seeds take
# chunks of 19 slots and pieces of at most 91: perfbench's canonical 50 slots
# are one random_rows call, and a full run's two blocks of 256 and 244 slots
# six. Learned chunks of a whole block on the bundled config (a bound of
# 2 ** 17) raised
# perfbench's canonical peak_rss_mb by 1.0-1.7 MB (3 runs, 2 shared CPUs).
# Deciding the random policy a whole block at a time raised a full bundled
# run's harness.run tracemalloc peak from 7.7 MiB to 11.8 MiB, a 256-slot
# block of 30 seeds peaking at 7.4 MiB in random_rows, and a block's memory
# would grow with the group's seeds.
LOCKSTEP_MAX_VALUES = 2 ** 15

# Slot rewards are summed over chains and slots, and their spread across seeds
# is squared, all in float64. A config whose slot reward could pass this bound
# is rejected rather than left to overflow to inf or nan.
REWARD_LIMIT = 1e150


class ConfigError(ValueError):
    """The experiment config is malformed or internally inconsistent."""


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
    trace: dict[str, list]      # CSV_COLUMNS name -> one value per (policy, seed, t)
    summary: dict


def default_config_path() -> Path:
    return Path(str(importlib.resources.files("sfcbackup") / "configs" / "default.json"))


def parse_seeds(spec, name: str = "seeds") -> tuple[int, ...]:
    """Accept a single int, a list of ints, or an inclusive 'A..B' range string."""
    if isinstance(spec, bool):
        raise ConfigError(f"{name} must be integers")
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
            parse_seeds([lo, hi], name)     # bound-check the ends before building the range
            if hi - lo + 1 > MAX_SEEDS:
                raise ConfigError(f"seed range {spec!r} holds more than {MAX_SEEDS} seeds")
            seeds = tuple(range(lo, hi + 1))
        else:
            try:
                seeds = (int(text),)
            except ValueError as exc:
                raise ConfigError(f"bad seed {spec!r}") from exc
    elif isinstance(spec, (list, tuple)):
        if len(spec) > MAX_SEEDS:
            raise ConfigError(f"{name} list holds more than {MAX_SEEDS} seeds")
        seeds = tuple(_as_int(s, f"{name}[{k}]") for k, s in enumerate(spec))
    else:
        raise ConfigError(f"cannot parse seeds from {spec!r}")
    if not seeds:
        raise ConfigError("need at least one seed")
    if any(s < 0 for s in seeds):
        raise ConfigError(f"{name} must be nonnegative")
    if any(s >= SEED_LIMIT for s in seeds):
        raise ConfigError(f"{name} must be below 2**64")
    return seeds


def parse_policies(spec, name: str = "policies") -> tuple[str, ...]:
    if spec == "all":
        return POLICY_ORDER
    if isinstance(spec, str):
        spec = [spec]
    if not isinstance(spec, (list, tuple)):
        raise ConfigError(f"{name} must be a name or a list of names, got {spec!r}")
    for policy in spec:
        if policy != "all" and policy not in POLICY_ORDER:
            raise ConfigError(f"unknown policy {policy!r}; choose from {POLICY_ORDER}")
    if "all" in spec:
        return POLICY_ORDER
    if not spec:
        raise ConfigError("need at least one policy")
    return tuple(dict.fromkeys(spec))


def _check(cfg: ExperimentConfig) -> ExperimentConfig:
    problems = validate_instance(cfg.network, cfg.catalog)
    if problems:
        raise ConfigError("bad instance: " + "; ".join(problems))
    scale, sign = cfg.failure_bonus_scale, cfg.failure_bonus_sign
    if scale is not None and scale < 0.0:
        raise ConfigError(f"learner.failure_bonus_scale must be >= 0, got {scale!r}")
    if sign not in (1, -1):
        raise ConfigError(f"learner.failure_bonus_sign must be 1 or -1, got {sign!r}")
    if cfg.slots < 1:
        raise ConfigError("slots must be >= 1")
    rows = len(cfg.policies) * len(cfg.seeds) * cfg.slots
    if rows > MAX_TRACE_ROWS:
        raise ConfigError(f"policies x seeds x slots = {len(cfg.policies)} x {len(cfg.seeds)} "
                          f"x {cfg.slots} passes {MAX_TRACE_ROWS} trace rows; lower slots "
                          f"or seeds")
    if cfg.users < 1:
        raise ConfigError("users must be >= 1")
    if cfg.users > INT64_MAX:
        raise ConfigError(f"users must be at most 2**63 - 1, got {cfg.users}")
    if cfg.users * cfg.catalog.n_sfcs > MAX_REQUEST_DRAWS:
        raise ConfigError(f"users x n_sfcs = {cfg.users} x {cfg.catalog.n_sfcs} passes "
                          f"{MAX_REQUEST_DRAWS} request draws per slot; lower users")
    if not (math.isfinite(cfg.capacity_scale) and cfg.capacity_scale > 0.0):
        raise ConfigError(f"capacity_scale must be a finite positive number, "
                          f"got {cfg.capacity_scale!r}")
    try:
        total_capacity = sum(cfg.network.scaled(cfg.capacity_scale).capacities)
    except OverflowError:       # a capacity scaled to +inf, or too large for a float
        total_capacity = math.inf
    if total_capacity > INT64_MAX:
        raise ConfigError(f"capacity_scale {cfg.capacity_scale!r} takes the total "
                          f"capacity past 2**63 - 1")
    if any(d > INT64_MAX for d in cfg.catalog.vnf_demand):
        raise ConfigError("catalog.vnf_demand entries must be at most 2**63 - 1")
    if cfg.failure_mean.shape[0] != cfg.catalog.n_vnfs:
        raise ConfigError(f"failure_mean needs {cfg.catalog.n_vnfs} entries")
    try:
        check_parameters(cfg.request_prob, cfg.failure_mean, cfg.users, cfg.catalog.n_sfcs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    # a chain earns at most omega per user and pays at most mu per hop at the
    # dearest link
    max_latency = max((lat for _, _, lat in cfg.network.links), default=0.0)
    reward_bound = sum(cfg.weights.omega * cfg.users
                       + cfg.weights.mu * max_latency * (len(chain) - 1)
                       for chain in cfg.catalog.sfc_chain)
    if not reward_bound <= REWARD_LIMIT:
        raise ConfigError(f"a slot reward could reach {reward_bound:g}, past "
                          f"{REWARD_LIMIT:g}; lower omega, mu, users or the link latencies")
    return cfg


def _as_int(value, name: str) -> int:
    """A config integer; a float, a string or a bool is rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _as_number(value, name: str) -> float:
    """A finite config number; a string, a bool or a non-finite value is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _as_bool(value, name: str) -> bool:
    """A config flag; only true or false, nothing that merely tests truthy."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _as_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return value


def _as_real(value, name: str):
    """A JSON number, finite or not; a bool, a string or null is rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def _number_tree(value, name: str):
    """A number or nested lists of numbers; make_ground_truth checks the shape."""
    if isinstance(value, (list, tuple)):
        return [_number_tree(v, f"{name}[{k}]") for k, v in enumerate(value)]
    return _as_real(value, name)


def _int_list(value, name: str) -> list[int]:
    return [_as_int(v, f"{name}[{k}]") for k, v in enumerate(_as_list(value, name))]


def _links(value) -> list[tuple[int, int, float]]:
    """network.links: [u, v, latency] triples, integer endpoints and a finite latency."""
    links = []
    for k, link in enumerate(_as_list(value, "network.links")):
        name = f"network.links[{k}]"
        if not isinstance(link, (list, tuple)) or len(link) != 3:
            raise ConfigError(f"{name} must be [u, v, latency], got {link!r}")
        links.append((_as_int(link[0], f"{name}[0]"), _as_int(link[1], f"{name}[1]"),
                      _as_number(link[2], f"{name}[2]")))
    return links


@dataclass(frozen=True)
class Setting:
    """A scalar run setting. load_config reads SETTINGS in order, apply_overrides takes its
    keywords, and cli.build_parser adds its flags in order."""
    key: str                    # the config key, "section.key" inside a section
    parse: Callable             # (value, key) -> the checked value, or a ConfigError
    default: object             # a None default is left unparsed
    keyword: str | None = None  # for a top-level setting the CLI overrides: apply_overrides'
    flag: str | None = None     # keyword, the flag and the flag's other argparse arguments
    cli: dict | None = None


SETTINGS = (
    Setting("weights.omega", _as_number, 1.0),
    Setting("weights.mu", _as_number, 1.0),
    Setting("learner.failure_bonus_scale", _as_number, None),   # None: the per-user default
    Setting("learner.failure_bonus_sign", _as_int, 1),
    Setting("slots", _as_int, 500, "slots", "--slots",
            {"type": int, "metavar": "T", "help": "override the number of time slots"}),
    Setting("seeds", parse_seeds, 1, "seeds", "--seed",
            {"metavar": "N|A..B", "help": "override seeds: a single seed or an inclusive range"}),
    Setting("policies", parse_policies, "all", "policy", "--policy",
            {"choices": [*POLICY_ORDER, "all"],
             "help": "run a single policy instead of the configured set"}),
    Setting("regret", _as_bool, False, "regret", "--regret",
            {"action": "store_true", "default": None,
             "help": "evaluate the exhaustive oracle and emit per-slot regret "
                     "(small instances only)"}),
    Setting("capacity_scale", _as_number, 1.0, "capacity_scale", "--capacity-scale",
            {"type": float, "metavar": "X",
             "help": "scale every server capacity by X (floored to int)"}),
    Setting("users", _as_int, 10, "users", "--users",
            {"type": int, "metavar": "K", "help": "override the user count"}),
)


def _config_keys(*paths: str) -> dict[str, tuple[str, ...]]:
    """Each section's keys, the top level's under "", from dotted key paths."""
    keys = {"": ()}
    for section, _, key in (path.rpartition(".") for path in paths):
        if section not in keys:
            keys[""] += (section,)
        keys[section] = keys.get(section, ()) + (key,)
    return keys


# load_config rejects any key this does not list, so a misspelt one cannot
# leave its setting at the default.
CONFIG_KEYS = _config_keys("comment", "network.capacities", "network.links",
                           "catalog.vnf_demand", "catalog.sfc_chain", "ground_truth.request_prob",
                           "ground_truth.failure_mean", *(setting.key for setting in SETTINGS))


def _known_keys(spec, section: str) -> None:
    """Reject a key of the section's object that CONFIG_KEYS does not list.

    The error names the key's dotted path and the nearest known key. A
    section that is not an object is left to the parsing that reads it.
    """
    known = CONFIG_KEYS[section]
    for key in spec if isinstance(spec, dict) else ():
        if key not in known:
            path = f"{section}.{key}" if section else str(key)
            [nearest] = difflib.get_close_matches(str(key), known, n=1, cutoff=0.0)
            raise ConfigError(f"unknown config key {path!r}; the nearest known key is "
                              f"{nearest!r}")


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
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
            except RecursionError as exc:
                raise ConfigError("config nests too deeply to parse") from exc
    else:
        raw = source
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _known_keys(raw, "")
    try:
        net_spec, cat_spec, gt_spec = raw["network"], raw["catalog"], raw["ground_truth"]
        for section in ("network", "catalog", "ground_truth"):
            _known_keys(raw[section], section)
        network = EdgeNetwork(_int_list(net_spec["capacities"], "network.capacities"),
                              _links(net_spec.get("links", [])))
        catalog = Catalog(_int_list(cat_spec["vnf_demand"], "catalog.vnf_demand"),
                          [_int_list(chain, f"catalog.sfc_chain[{f}]") for f, chain
                           in enumerate(_as_list(cat_spec["sfc_chain"], "catalog.sfc_chain"))])
        request_prob = _number_tree(gt_spec["request_prob"], "ground_truth.request_prob")
        failure_mean = np.array([_as_real(v, f"ground_truth.failure_mean[{k}]") for k, v
                                 in enumerate(_as_list(gt_spec["failure_mean"],
                                                       "ground_truth.failure_mean"))],
                                dtype=np.float64)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config missing or malformed section: {exc}") from exc

    specs, values = {"": raw}, {}
    for setting in SETTINGS:
        section, _, key = setting.key.rpartition(".")
        if section not in specs:
            specs[section] = raw.get(section, {})
            if not isinstance(specs[section], dict):
                raise ConfigError(f"{section} must be an object")
            _known_keys(specs[section], section)
        value = specs[section].get(key, setting.default)
        if value is not None or setting.default is not None:
            value = setting.parse(value, setting.key)
        values[key] = value
    try:
        weights = RewardWeights(omega=values.pop("omega"), mu=values.pop("mu"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _check(ExperimentConfig(network=network, catalog=catalog,
                                   request_prob=request_prob, failure_mean=failure_mean,
                                   weights=weights, **values))


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Command-line overrides on a loaded config; each value is checked, never coerced.

    The keywords are slots, seeds, policy, regret, capacity_scale and users
    (SETTINGS' keyword column); one left None keeps its setting.
    """
    for keyword in overrides.keys() - {setting.keyword for setting in SETTINGS}:
        raise TypeError(f"apply_overrides() got an unexpected keyword argument {keyword!r}")
    updates = {setting.key: setting.parse(overrides[setting.keyword], setting.key)
               for setting in SETTINGS if overrides.get(setting.keyword) is not None}
    return _check(dataclasses.replace(cfg, **updates)) if updates else cfg


def simulate_run(network: EdgeNetwork, catalog: Catalog, gt: GroundTruth, seeds: Sequence[int],
                 weights: RewardWeights, policies: tuple[str, ...], slots: int, *, users: int,
                 failure_bonus_scale: float | None = None,
                 failure_bonus_sign: int = 1,
                 graphs: dict[str, PlanGraph] | None = None) -> dict[str, dict[str, np.ndarray]]:
    """The trajectories of every seed in seeds under each of policies, over slots 1 .. slots.

    gt holds the hidden parameters every seed shares; each seed keys its own
    draws, and gt.rng_seed is not read. Returns, per policy, its
    lockstep.SERIES as (seeds, slots) arrays, row s for seeds[s] and column
    0 for slot 1: realized and expected reward
    (float64), total remaining resource and deployment count (int64).
    graphs maps each learned policy to its kernels.PlanGraph, shared across
    seeds; None gives the run fresh ones.

    The group draws its observations, and when random runs its policy
    uniforms, a block of slots at a time, once for all policies: one
    sample_arrays and one policy_uniform_block call over all of the group's
    seeds, a Philox stream per seed in each. The block's request rows and
    its chains' survival flags are computed once, slot-major, and every
    policy's accounting reads its rows of them. The random policy keeps no
    state across slots, so it is decided right after the draw: one
    lockstep.random_rows call per piece of the block (_random_piece), each
    on a (slots, seeds, W) view of the uniforms, which are then dropped.
    The learned policies then run the block in chunks of at most _batch_rows
    (slot, seed) rows; _chunk_and_block sizes chunks and blocks, so that a
    run of few seeds, whose chunks are long, pays each stage once per chunk.
    They keep one lockstep.Learners for all seeds, which stacks the
    policies' seeds as row blocks, and _learned_chunk picks how each chunk
    advances it from its learner rows. Every piece and chunk is then checked
    by lockstep.check and accounted by lockstep.slot_values, one policy at
    a time, random's pieces before the learned policies' chunks of the same
    block.
    """
    for policy in policies:
        if policy not in POLICY_ORDER:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICY_ORDER}")
    learned = [policy for policy in policies if policy in PLACEMENT_MODES]
    if graphs is None:
        graphs = {policy: PlanGraph(network, catalog, PLACEMENT_MODES[policy])
                  for policy in learned}
    plan_graphs = [graphs[policy] for policy in learned]
    n_seeds, n_sfcs, n_vnfs = len(seeds), catalog.n_sfcs, catalog.n_vnfs
    layout = lockstep.Layout.of(network, catalog)
    omega, mu = weights.omega, weights.mu
    chunk, block = _chunk_and_block(layout, n_seeds)
    # every row of a block reads the same (F,) values and gates
    value_true, gate_true = (np.broadcast_to(a, (block * n_seeds, n_sfcs))
                             for a in lockstep.true_values(layout, gt, weights))
    learners = lockstep.Learners.fresh(len(learned) * n_seeds, n_sfcs, n_vnfs, users,
                                       failure_bonus_scale, failure_bonus_sign)
    # each policy's series, one slot-major list per key
    series = {policy: {key: [] for key in lockstep.SERIES} for policy in policies}
    for b0 in range(1, slots + 1, block):
        n = min(block, slots + 1 - b0)
        requests, failed = sample_arrays(gt, seeds, b0, b0 + n)
        req_rows = requests.reshape(n * n_seeds, n_sfcs)
        # each chain's survival in each row, shared by every policy's accounting
        survived = (failed.reshape(n * n_seeds, n_vnfs) @ layout.uses) == 0

        def account(policy: str, t0: int, rec: lockstep.Records, x=None, placed=None) -> None:
            """Check and value policy's records of the rows from slot t0 on."""
            lockstep.check(layout, rec, lambda k: (seeds[k % n_seeds], t0 + k // n_seeds),
                           x, placed)
            r0 = (t0 - b0) * n_seeds
            rows = slice(r0, r0 + rec.residual.shape[0])
            values = lockstep.slot_values(layout, omega, mu, req_rows[rows], survived[rows],
                                          rec, value_true[rows], gate_true[rows])
            for key, column in values.items():
                series[policy][key] += column

        if "random" in policies:
            uniforms = policy_uniform_block(seeds, b0, b0 + n, layout.width)
            piece = _random_piece(layout, n_seeds, n)
            for p0 in range(0, n, piece):
                account("random", b0 + p0,
                        lockstep.random_rows(layout, uniforms[p0:p0 + piece]))
            del uniforms
        if not learned:
            continue
        for c0 in range(0, n, chunk):
            t0 = b0 + c0
            decided = _learned_chunk(learners, plan_graphs, weights, layout, t0,
                                     requests[c0:c0 + chunk], failed[c0:c0 + chunk])
            for policy, (ids, counts, residuals, x, placed) in zip(learned, decided):
                account(policy, t0, lockstep.gather(graphs[policy], ids, counts, residuals),
                        x, placed)
    return {policy: {key: np.array(column).reshape(slots, n_seeds).T.copy()
                     for key, column in out.items()} for policy, out in series.items()}


def _learned_chunk(learners: lockstep.Learners, graphs: list[PlanGraph],
                   weights: RewardWeights, layout: lockstep.Layout, t0: int,
                   requests: np.ndarray, failed: np.ndarray) -> list[tuple]:
    """The learned policies' decisions on a chunk of slots from t0, learning from each slot.

    requests and failed are the chunk's (slots, S, F) and (slots, S, I)
    observations, and graphs[k] is learned policy k's plan graph. learners'
    rows [k*S, (k+1)*S) are policy k's seeds. From LOCKSTEP_MIN_SEEDS
    learner rows on, lockstep's stages advance them all a slot at a time;
    below that, one policy.learned_rows call per policy runs its block
    through the whole chunk. Returns per policy its rows' edge ids, commits
    per row and residuals, for lockstep.gather, and what its learners were
    updated with, for lockstep.check to hold the records to: the rows'
    (R, F) backup vectors and (R, I) copies per VNF. Rows are slot-major.
    """
    n_slots, n_seeds, n_sfcs = requests.shape
    if len(graphs) * n_seeds < LOCKSTEP_MIN_SEEDS:
        # each seed's slots as lists, for the per-seed loop
        requests, failed = requests.swapaxes(0, 1).tolist(), failed.swapaxes(0, 1).tolist()
        return [learned_rows(learners, k * n_seeds, t0, requests, failed, weights, graph)
                for k, graph in enumerate(graphs)]
    n_vnfs = failed.shape[2]
    n_policies = len(graphs)
    ids, counts, residuals = ([[] for _ in graphs] for _ in range(3))
    # every policy's block of learner rows learns from the same observations
    stacked = (np.concatenate((requests,) * n_policies, axis=1),
               np.concatenate((failed,) * n_policies, axis=1))
    xs, copies = [], []
    for t, req, fail in zip(count(t0), *stacked):
        q, v = lockstep.estimates(learners, t)
        slot = lockstep.decide_learned(graphs, layout, q, v, weights.omega, weights.mu,
                                       ids, counts, residuals)
        x, placed = slot > 0, slot @ layout.copies
        lockstep.update(learners, req, fail, x, placed)
        xs.append(x)
        copies.append(placed)
    # (slots, P * S, .) arrays; policy k's rows are block k of each slot
    xs = np.array(xs, dtype=np.int64).reshape(n_slots, n_policies, n_seeds, n_sfcs)
    copies = np.array(copies, dtype=np.int64).reshape(n_slots, n_policies, n_seeds, n_vnfs)
    return [(ids[k], counts[k], residuals[k], xs[:, k].reshape(-1, n_sfcs),
             copies[:, k].reshape(-1, n_vnfs)) for k in range(n_policies)]


def _chunk_and_block(layout: lockstep.Layout, n_seeds: int) -> tuple[int, int]:
    """simulate_run's chunk and block lengths, in slots, for a group of n_seeds seeds.

    A chunk is _batch_rows // n_seeds slots, and at least one. A block is
    OBS_BLOCK_SLOTS slots, or one chunk where that is longer.
    """
    chunk = max(1, _batch_rows(layout) // n_seeds)
    return chunk, max(OBS_BLOCK_SLOTS, chunk)


def _random_piece(layout: lockstep.Layout, n_seeds: int, n: int) -> int:
    """Slots per lockstep.random_rows call on a block of n slots of n_seeds seeds.

    The fewest equal whole-slot pieces whose (L, R) tables, L chain
    occurrences by R rows, hold at most 2 * LOCKSTEP_MAX_VALUES entries; one
    slot where a slot alone holds more.
    """
    most = max(1, 2 * LOCKSTEP_MAX_VALUES // (layout.chain_flat.shape[0] * n_seeds))
    pieces = -(-n // most)
    return -(-n // pieces)


def _batch_rows(layout: lockstep.Layout) -> int:
    """The most seeds in a simulate_run group, and rows in its chunks.

    LOCKSTEP_MAX_VALUES // (F + I + W + N); 0 where one row passes the bound.
    """
    catalog = layout.catalog
    return LOCKSTEP_MAX_VALUES // (catalog.n_sfcs + catalog.n_vnfs + layout.width
                                   + layout.network.n_servers)


def _mean_std(values: np.ndarray) -> dict[str, float]:
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return {"mean": float(values.mean()), "std": std}


# summary.json's statistic of each series: its time average per seed, then
# their mean and std across seeds
SUMMARY_KEYS = {"time_avg_realized": "realized", "time_avg_expected": "expected",
                "mean_remaining": "remaining", "mean_deployed": "deployed"}


def run(cfg: ExperimentConfig) -> RunResult:
    """Run every (policy, seed) pair and collect the trace plus aggregates.

    The cyclic garbage collector is paused for the run and left as it was
    found, also when the run raises. The plan graphs and per-slot lists a run
    allocates would trigger collections that traverse the growing graphs
    again and again, about a tenth of a pass on an instance whose graphs stay
    cold, yet a run frees all it allocates by reference counting: it makes
    no reference cycle, and a plan-graph node whose zero-demand chain
    commits back onto it keeps that edge off the node (kernels.PlanGraph.commit).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        network = (cfg.network if cfg.capacity_scale == 1.0
                   else cfg.network.scaled(cfg.capacity_scale))
        catalog = cfg.catalog

        # the hidden parameters of every seed, built once per run
        gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users, catalog.n_sfcs,
                               cfg.seeds[0])
        oracle_value: float | None = None
        if cfg.regret:
            oracle_value = optimal_slot_value(network, catalog, gt, cfg.weights).best_value

        size = max(1, _batch_rows(lockstep.Layout.of(network, catalog)))  # seeds per group
        # one plan graph per learned policy, shared by its seeds and dropped after the run
        graphs = {policy: PlanGraph(network, catalog, mode)
                  for policy, mode in PLACEMENT_MODES.items() if policy in cfg.policies}
        groups = [simulate_run(network, catalog, gt, cfg.seeds[k:k + size], cfg.weights,
                               cfg.policies, cfg.slots, users=cfg.users,
                               failure_bonus_scale=cfg.failure_bonus_scale,
                               failure_bonus_sign=cfg.failure_bonus_sign, graphs=graphs)
                  for k in range(0, len(cfg.seeds), size)]

        trace: dict[str, list] = {col: [] for col in CSV_COLUMNS}
        rows = len(cfg.seeds) * cfg.slots           # per policy, seed-major
        t_column = list(range(1, cfg.slots + 1)) * len(cfg.seeds)
        seed_column = [seed for seed in cfg.seeds for _ in range(cfg.slots)]
        per_policy = {}
        for policy in cfg.policies:
            # (seeds, slots) arrays, the groups' rows one after another
            series = {key: np.concatenate([group[policy][key] for group in groups])
                      for key in lockstep.SERIES}
            expected = series["expected"]
            trace["t"] += t_column
            trace["policy"] += [policy] * rows
            trace["seed"] += seed_column
            trace["realized_reward"] += series["realized"].ravel().tolist()
            trace["expected_reward"] += expected.ravel().tolist()
            trace["remaining_resource"] += series["remaining"].ravel().tolist()
            trace["num_deployed"] += series["deployed"].ravel().tolist()
            trace["oracle_value"] += [oracle_value] * rows
            trace["regret"] += ([None] * rows if oracle_value is None
                                else (oracle_value - expected).ravel().tolist())
            per_policy[policy] = {name: _mean_std(series[key].mean(axis=1))
                                  for name, key in SUMMARY_KEYS.items()}

        summary = {
            "slots": cfg.slots,
            "seeds": list(cfg.seeds),
            "users": cfg.users,
            "capacity_scale": cfg.capacity_scale,
            "total_capacity": sum(network.capacities),
            "oracle_value": oracle_value,
            "policies": per_policy,
        }
        return RunResult(config=cfg, trace=trace, summary=summary)
    finally:
        if enabled:
            gc.enable()


# trace rows formatted and joined per write: the text of one write stays a few MB
EMIT_ROWS = 2 ** 16


def _csv_text(value) -> str:
    return "" if value is None else repr(value)


def _jsonl_text(name: str):
    """A column's trace.jsonl text of one value: its key, then json.dumps of the value."""
    key = json.dumps(name) + ": "
    return lambda value: key + json.dumps(value)


# per format, the text of one value in each column; policy names go to CSV as they are
CSV_TEXTS = {name: str if name == "policy" else _csv_text for name in CSV_COLUMNS}
JSONL_TEXTS = {name: _jsonl_text(name) for name in CSV_COLUMNS}


class _TextTable(dict):
    """Each distinct value's text, made by text(value) on its first lookup.

    Keys are the values, and a column holds ints or floats, never both, so
    values that share a key share their bit pattern and so their text, save
    0.0 and -0.0, which compare equal: a float zero is never stored, and is
    formatted on every lookup. A NaN is stored under its own object, which
    only that object matches.
    """

    __slots__ = ("text",)

    def __init__(self, text) -> None:
        super().__init__()
        self.text = text

    def __missing__(self, value) -> str:
        text = self.text(value)
        if value or not isinstance(value, float):
            self[value] = text
        return text


def _blocks(trace: dict[str, list], texts: dict, sep: str):
    """The trace's rows, EMIT_ROWS per block, each row its cells' texts joined by sep.

    Each column of a block looks its cells up in a table of its own, so a
    table holds at most one block's distinct values.
    """
    columns = [(iter(trace[name]), texts[name]) for name in CSV_COLUMNS]
    for _ in range(0, len(trace["t"]), EMIT_ROWS):
        yield map(sep.join, zip(*(map(_TextTable(text).__getitem__, islice(values, EMIT_ROWS))
                                  for values, text in columns)))


def emit(result: RunResult, out_dir, fmt: str = "csv") -> list[Path]:
    """Write trace.csv and/or trace.jsonl plus summary.json into ``out_dir``."""
    if fmt not in ("csv", "jsonl", "both"):
        raise ConfigError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if fmt in ("csv", "both"):
        path = out / "trace.csv"
        # no cell needs quoting: policy names are fixed, the rest numbers or empty
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS))
            for block in _blocks(result.trace, CSV_TEXTS, ","):
                fh.write("\n")
                fh.write("\n".join(block))
            fh.write("\n")
        written.append(path)

    if fmt in ("jsonl", "both"):
        path = out / "trace.jsonl"
        # each line is json.dumps of the row's dict, written out cell by cell
        with open(path, "w", encoding="utf-8") as fh:
            for block in _blocks(result.trace, JSONL_TEXTS, ", "):
                fh.write("{")
                fh.write("}\n{".join(block))
                fh.write("}\n")
        written.append(path)

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=False)
        fh.write("\n")
    written.append(summary_path)
    return written
