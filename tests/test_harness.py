from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfcbackup
from sfcbackup import (Catalog, ConfigError, InvariantViolation, apply_overrides,
                       default_config_path, emit, load_config, make_ground_truth,
                       optimal_slot_value, run, validate_instance)
from sfcbackup import harness, workload
from sfcbackup.cli import build_parser, main
from sfcbackup.harness import (CONFIG_KEYS, CSV_COLUMNS, LOCKSTEP_MIN_SEEDS, MAX_REQUEST_DRAWS,
                               MAX_TRACE_ROWS, OBS_BLOCK_SLOTS, POLICY_ORDER, SETTINGS,
                               parse_policies, parse_seeds, simulate_run)
from sfcbackup.kernels import PlanGraph

from reference import (assert_matches_reference, draw_slot, reference_run, reference_series,
                       reference_trace_text)


def tiny_config(**extra) -> dict:
    base = {
        "network": {"capacities": [10, 8], "links": [[0, 1, 0.5]]},
        "catalog": {"vnf_demand": [4, 3, 2],
                    "sfc_chain": [[0, 1], [2, 2], [1]]},
        "ground_truth": {"request_prob": [0.8, 0.5, 0.3],
                         "failure_mean": [0.05, 0.1, 0.02]},
        "users": 5,
        "slots": 20,
        "seeds": [1, 2],
        "policies": "all",
        "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
    }
    base.update(extra)
    return base


# --- parsing ----------------------------------------------------------------

def test_parse_seeds_forms() -> None:
    assert parse_seeds(7) == (7,)
    assert parse_seeds("7") == (7,)
    assert parse_seeds("3..6") == (3, 4, 5, 6)
    assert parse_seeds([4, 2]) == (4, 2)
    for bad in ("6..3", "x", [], -1, [0, -2], True, 1.5):
        with pytest.raises(ConfigError):
            parse_seeds(bad)


def test_parse_policies_forms() -> None:
    assert parse_policies("all") == POLICY_ORDER
    with pytest.raises(ConfigError, match="policies must be a name or a list of names, got None"):
        parse_policies(None)
    assert parse_policies("rtsd") == ("rtsd",)
    assert parse_policies(["random", "rtsd", "random"]) == ("random", "rtsd")
    with pytest.raises(ConfigError):
        parse_policies("greedy")
    with pytest.raises(ConfigError):
        parse_policies([])
    # every name is checked, also after "all"
    for spec in (["all", "bogus"], ["rtsd", "bogus"]):
        with pytest.raises(ConfigError, match="unknown policy 'bogus'"):
            parse_policies(spec)


def test_bundled_config_loads_clean() -> None:
    path = default_config_path()
    assert path.exists()
    cfg = load_config(path)
    assert cfg.network.n_servers == 6
    assert cfg.catalog.n_sfcs == 6
    assert cfg.catalog.n_vnfs == 15
    assert cfg.seeds == tuple(range(1, 31))
    assert cfg.policies == POLICY_ORDER
    assert cfg.slots == 500
    assert validate_instance(cfg.network, cfg.catalog) == []


def test_load_config_rejects_broken_inputs(tmp_path: Path) -> None:
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(["not", "a", "dict"])
    with pytest.raises(ConfigError):
        load_config(tiny_config(catalog={"vnf_demand": [1],
                                         "sfc_chain": [[9]]}))
    with pytest.raises(ConfigError):
        load_config(tiny_config(slots=0))
    with pytest.raises(ConfigError):
        load_config(tiny_config(users=0))
    with pytest.raises(ConfigError):
        load_config(tiny_config(capacity_scale=0.0))
    with pytest.raises(ConfigError):
        load_config(tiny_config(ground_truth={"request_prob": [0.5, 0.5, 1.4],
                                              "failure_mean": [0.1, 0.1, 0.1]}))
    with pytest.raises(ConfigError):
        load_config(tiny_config(ground_truth={"request_prob": 0.5,
                                              "failure_mean": [0.1]}))
    with pytest.raises(ConfigError):
        load_config(tiny_config(weights={"omega": -1.0}))


def test_apply_overrides_replaces_and_validates() -> None:
    cfg = load_config(tiny_config())
    out = apply_overrides(cfg, slots=7, seeds="2..3", policy="random",
                          regret=True, capacity_scale=1.5, users=9)
    assert (out.slots, out.seeds, out.policies) == (7, (2, 3), ("random",))
    assert out.regret and out.capacity_scale == 1.5 and out.users == 9
    # untouched fields survive
    assert out.network is cfg.network and out.catalog is cfg.catalog
    assert apply_overrides(cfg) is cfg
    with pytest.raises(ConfigError):
        apply_overrides(cfg, slots=0)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, policy="nope")
    # a mistyped value is rejected by name, not truncated or truth-tested
    for field, value in (("slots", 2.7), ("users", 2.9), ("users", True),
                         ("regret", "no"), ("capacity_scale", "2"), ("slots", "5")):
        with pytest.raises(ConfigError, match=field):
            apply_overrides(cfg, **{field: value})


def test_apply_overrides_takes_only_its_keywords() -> None:
    cfg = load_config(tiny_config())
    # an unknown keyword is named, before any value is parsed
    for overrides in ({"slot": 3}, {"slots": 0, "slot": 3}):
        with pytest.raises(TypeError, match="unexpected keyword argument 'slot'"):
            apply_overrides(cfg, **overrides)
    # None leaves its setting as it is
    assert apply_overrides(cfg, **{s.keyword: None for s in SETTINGS if s.keyword}) is cfg
    out = apply_overrides(cfg, slots=None, users=9)
    assert (out.slots, out.seeds, out.users) == (cfg.slots, cfg.seeds, 9)


@pytest.mark.parametrize("extra, message", [
    ({"weights": {"omega": "x"}}, "weights.omega must be a finite number, got 'x'"),
    ({"weights": {"mu": "x"}}, "weights.mu must be a finite number, got 'x'"),
    ({"learner": {"failure_bonus_scale": -1}},
     "learner.failure_bonus_scale must be >= 0, got -1.0"),
    ({"learner": {"failure_bonus_sign": 5}}, "learner.failure_bonus_sign must be 1 or -1, got 5"),
    ({"learner": {"failure_bonus_scale": "x"}},
     "learner.failure_bonus_scale must be a finite number, got 'x'"),
    ({"learner": {"failure_bonus_sign": 1.5}},
     "learner.failure_bonus_sign must be an integer, got 1.5"),
], ids=["omega", "mu", "negative-scale", "sign-5", "string-scale", "fractional-sign"])
def test_a_section_setting_error_names_its_section(extra: dict, message: str) -> None:
    with pytest.raises(ConfigError) as exc:
        load_config(tiny_config(**extra))
    assert str(exc.value) == message


# --- simulation bookkeeping --------------------------------------------------

def test_simulate_run_shapes_and_determinism() -> None:
    cfg = load_config(tiny_config())
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                           cfg.catalog.n_sfcs, 3)
    kw = dict(users=cfg.users, failure_bonus_scale=1.0, failure_bonus_sign=-1)
    every = simulate_run(cfg.network, cfg.catalog, gt, [3], cfg.weights, POLICY_ORDER, 25, **kw)
    assert list(every) == list(POLICY_ORDER)
    for policy in POLICY_ORDER:
        a = every[policy]
        [b] = simulate_run(cfg.network, cfg.catalog, gt, [3], cfg.weights, (policy,),
                           25, **kw).values()
        assert list(a) == ["realized", "expected", "remaining", "deployed"]
        for key, kind in (("realized", np.float64), ("expected", np.float64),
                          ("remaining", np.int64), ("deployed", np.int64)):
            assert a[key].shape == (1, 25)
            assert a[key].dtype == kind
            # a policy alone runs as it does next to the others
            assert a[key].tolist() == b[key].tolist()
        assert (a["remaining"] >= 0).all()
        assert (a["deployed"] >= 0).all()
    with pytest.raises(ValueError, match=repr("nope")):
        simulate_run(cfg.network, cfg.catalog, gt, [3], cfg.weights, ("rtsd", "nope"), 5,
                     users=cfg.users)


def test_simulate_run_keys_each_seed_by_its_own_seed() -> None:
    # a GroundTruth keyed 0 over seeds 5 and 6 runs what the reference runs
    # for seeds 5 and 6: the seeds key the draws, never gt.rng_seed
    cfg = apply_overrides(load_config(tiny_config()), seeds=[5, 6], slots=20)
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                           cfg.catalog.n_sfcs, 0)
    out = simulate_run(cfg.network, cfg.catalog, gt, (5, 6), cfg.weights, cfg.policies,
                       cfg.slots, users=cfg.users, failure_bonus_scale=cfg.failure_bonus_scale,
                       failure_bonus_sign=cfg.failure_bonus_sign)
    trace, _ = reference_run(cfg)
    columns = {"realized": "realized_reward", "expected": "expected_reward",
               "remaining": "remaining_resource", "deployed": "num_deployed"}
    for p, policy in enumerate(cfg.policies):
        for s in range(2):
            start = (2 * p + s) * cfg.slots
            assert trace["seed"][start] == cfg.seeds[s]
            for key, col in columns.items():
                assert out[policy][key][s].tolist() == trace[col][start:start + cfg.slots], \
                    (policy, s, key)



def test_simulate_run_refuses_an_empty_chain(monkeypatch) -> None:
    # a chain that runs no VNF has no worst failure rate to gate it by; it is
    # refused before any slot is drawn, first, middle or last in the catalog
    cfg = load_config(tiny_config())
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users, cfg.catalog.n_sfcs, 0)
    monkeypatch.setattr(harness, "sample_arrays",
                        lambda *a: pytest.fail("drew slots for an empty chain"))
    chains = cfg.catalog.sfc_chain
    for f in range(len(chains)):
        catalog = Catalog(cfg.catalog.vnf_demand,
                          [() if g == f else chain for g, chain in enumerate(chains)])
        with pytest.raises(ValueError, match="at least one VNF"):
            simulate_run(cfg.network, catalog, gt, (1, 2), cfg.weights, cfg.policies, 5,
                         users=cfg.users)


def test_summary_means_past_the_reduction_buffer() -> None:
    # 9000 slots: numpy sums a long row in blocks of 8192 (its buffer), so a
    # mean over a seed's whole row must still be np.mean of that seed's rows
    cfg = apply_overrides(load_config(tiny_config()), seeds=[4, 9], slots=9000)
    result = run(cfg)
    trace = result.trace
    assert len(trace["t"]) == len(POLICY_ORDER) * 2 * 9000
    for k, policy in enumerate(POLICY_ORDER):
        for name, col in (("time_avg_realized", "realized_reward"),
                          ("time_avg_expected", "expected_reward"),
                          ("mean_remaining", "remaining_resource"),
                          ("mean_deployed", "num_deployed")):
            means = [float(np.mean(trace[col][start:start + 9000]))
                     for start in range((2 * k) * 9000, (2 * k + 2) * 9000, 9000)]
            assert result.summary["policies"][policy][name] == {
                "mean": float(np.mean(means)), "std": float(np.std(means, ddof=1))}, \
                (policy, name)


@pytest.mark.parametrize("policy", ["rtsd", "bandit", "random"])
def test_run_across_a_block_of_drawn_slots_equals_the_reference(policy: str,
                                                                monkeypatch) -> None:
    # each policy on one seed, past the first block of drawn slots, with the
    # oracle columns on
    cfg = load_config(tiny_config())
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                           cfg.catalog.n_sfcs, 8)
    _, block = harness._chunk_and_block(harness.lockstep.Layout.of(cfg.network, cfg.catalog), 1)
    cfg = apply_overrides(cfg, seeds=[8], regret=True, policy=policy, slots=block + 44)
    assert_matches_reference(cfg, monkeypatch)
    # the run pays some deployed chains and voids others on a failed VNF
    draws = [draw_slot(gt, t) for t in range(1, cfg.slots + 1)]
    _, decisions = reference_series(cfg, cfg.network, gt, draws, policy)
    voided = [any(failed[i] for i in cfg.catalog.sfc_chain[f])
              for (_, failed), decision in zip(draws, decisions) for f, _ in decision.deployed]
    assert any(voided) and not all(voided)


def small_regret_doc() -> dict:
    """perfbench's small-regret instance: 3 servers, 3 chains, regret on, 1 seed x 1000 slots."""
    return {
        "network": {"capacities": [10, 8, 6],
                    "links": [[0, 1, 0.4], [1, 2, 0.7], [0, 2, 1.1]]},
        "catalog": {"vnf_demand": [3, 4, 2, 5], "sfc_chain": [[0, 1], [2, 3, 2], [1, 1]]},
        "ground_truth": {"request_prob": [0.7, 0.5, 0.4],
                         "failure_mean": [0.05, 0.1, 0.02, 0.2]},
        "users": 4, "slots": 1000, "seeds": 1, "policies": "all", "regret": True,
        "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
    }


def test_one_seed_runs_its_slots_as_one_chunk(monkeypatch) -> None:
    # one seed's 1000 slots fit one chunk of LOCKSTEP_MAX_VALUES values, so each
    # stage runs once per policy, however many OBS_BLOCK_SLOTS blocks they span
    checked, drawn = [], []
    real_check, real_sample = harness.lockstep.check, harness.sample_arrays

    def check(layout, rec, *args):
        checked.append(rec.residual.shape[0])
        return real_check(layout, rec, *args)

    def sample(gt, seeds, t0, t1):
        drawn.append((t0, t1))
        return real_sample(gt, seeds, t0, t1)

    monkeypatch.setattr(harness.lockstep, "check", check)
    monkeypatch.setattr(harness, "sample_arrays", sample)
    cfg = load_config(small_regret_doc())
    assert cfg.slots > OBS_BLOCK_SLOTS
    run(cfg)
    assert checked == [cfg.slots] * len(POLICY_ORDER)
    assert drawn == [(1, cfg.slots + 1)]


def one_chain_doc(users: int, slots: int, seeds) -> dict:
    """One one-VNF chain on one server: five values a chunk row, users request draws a slot."""
    return {"network": {"capacities": [5], "links": []},
            "catalog": {"vnf_demand": [1], "sfc_chain": [[0]]},
            "ground_truth": {"request_prob": 1e-4, "failure_mean": [0.1]},
            "users": users, "slots": slots, "seeds": seeds, "policies": "all"}


def record_draws(monkeypatch) -> list[tuple[list[int], int, int]]:
    """Every harness.sample_arrays call from now on, as (seeds, t0, t1)."""
    calls = []
    real = harness.sample_arrays

    def sample(gt, seeds, t0, t1):
        calls.append((list(seeds), t0, t1))
        return real(gt, seeds, t0, t1)

    monkeypatch.setattr(harness, "sample_arrays", sample)
    return calls


@pytest.mark.parametrize("users, seeds, limits, lengths", [
    # the most request draws a slot may take, 2**16 users x one chain, on one
    # seed: its chunk of 6553 slots holds the whole run, one block
    (MAX_REQUEST_DRAWS, "1", {}, (6553, 6553)),
    # five seeds at 2**14 draws a slot in chunks of two slots and blocks of four
    (2 ** 14, "1..5", {"OBS_BLOCK_SLOTS": 4, "LOCKSTEP_MAX_VALUES": 50}, (2, 4))])
def test_a_block_is_one_draw_over_its_group(monkeypatch, users: int, seeds: str,
                                            limits: dict, lengths: tuple[int, int]) -> None:
    # each block takes one sample_arrays call over all of the group's seeds,
    # each slot of each seed is drawn once, and sample_arrays's pieces keep the
    # run's memory within a budget however many uniforms a call reads
    for name, value in limits.items():
        monkeypatch.setattr(harness, name, value)
    cfg = load_config(one_chain_doc(users, 2 * harness.OBS_BLOCK_SLOTS + 3, seeds))
    chunk, block = harness._chunk_and_block(harness.lockstep.Layout.of(cfg.network, cfg.catalog),
                                            len(cfg.seeds))
    assert (chunk, block) == lengths
    calls = record_draws(monkeypatch)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
    assert calls == [(list(cfg.seeds), t0, min(t0 + block, cfg.slots + 1))
                     for t0 in range(1, cfg.slots + 1, block)]
    # the reference draws a slot user by user, about 24 s for the one-seed case
    if len(cfg.seeds) > 1:
        trace = assert_matches_reference(cfg, monkeypatch)
        assert any(trace["realized_reward"])


def test_a_run_at_the_request_draw_cap_equals_the_reference(monkeypatch) -> None:
    # MAX_REQUEST_DRAWS request uniforms a slot, on one seed, run just past
    # one piece of workload.MAX_DRAW_DOUBLES doubles, so that the second
    # piece goes on with the seed's stream where the first left it; the
    # reference draws each slot user by user from its own counter
    cfg = load_config(one_chain_doc(MAX_REQUEST_DRAWS, 18, "1"))
    slot_doubles = 4 * -(-(MAX_REQUEST_DRAWS + cfg.catalog.n_vnfs) // 4)
    span = workload.MAX_DRAW_DOUBLES // slot_doubles       # slots a piece
    assert span < cfg.slots < 2 * span
    trace = assert_matches_reference(cfg, monkeypatch)
    assert any(trace["realized_reward"])


def test_run_emits_one_row_per_policy_seed_slot() -> None:
    cfg = load_config(tiny_config())
    result = run(cfg)
    trace = result.trace
    n_rows = len(cfg.policies) * len(cfg.seeds) * cfg.slots
    assert tuple(trace) == CSV_COLUMNS
    assert all(len(column) == n_rows for column in trace.values())
    # exact Python scalars only: a numpy int64 would make json.dumps raise
    assert all(type(v) in (int, float, str, type(None))
               for column in trace.values() for v in column)
    keys = list(zip(trace["policy"], trace["seed"], trace["t"]))
    assert keys == [(p, s, t) for p in cfg.policies for s in cfg.seeds
                    for t in range(1, cfg.slots + 1)]
    assert trace["oracle_value"] == [None] * n_rows
    assert trace["regret"] == [None] * n_rows
    pol = result.summary["policies"]
    assert set(pol) == set(cfg.policies)
    for stats in pol.values():
        assert stats["time_avg_realized"]["std"] >= 0.0
    assert result.summary["total_capacity"] == 18


def test_run_drops_one_plan_graph_per_learned_policy(monkeypatch) -> None:
    # each learned policy plans on one graph for all its seeds, and no graph
    # outlives the run
    built = []

    class RecordedGraph(PlanGraph):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(harness, "PlanGraph", RecordedGraph)
    cfg = load_config(tiny_config())
    assert len(cfg.seeds) > 1
    run(cfg)
    assert len(built) == 2
    assert all(ref() is None for ref in built)


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic garbage collector enabled or disabled inside, and as it was after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


# two servers; chain 0 runs only VNF 0, of demand 0, so committing it leaves
# the residual as it was
ZERO_DEMAND_DOC = {
    "network": {"capacities": [4, 3], "links": [[0, 1, 0.5]]},
    "catalog": {"vnf_demand": [0, 2], "sfc_chain": [[0], [1, 0]]},
    "ground_truth": {"request_prob": 0.8, "failure_mean": [0.1, 0.05]},
    "users": 3, "slots": 30, "seeds": "1..3", "policies": "all",
}


def test_run_and_the_oracle_leave_no_reference_cycle() -> None:
    # run pauses the collector, so a cycle made inside it would outlive the
    # run: with the collector off, nothing either leaves is unreachable, also
    # where a chain of zero demand commits back onto its plan-graph node
    cfg = load_config(small_regret_doc())
    bundled = apply_overrides(load_config(default_config_path()), slots=20)
    zero_demand = load_config(ZERO_DEMAND_DOC)
    with collector(False):
        gc.collect()
        optimal_slot_value(cfg.network, cfg.catalog,
                           make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                                             cfg.catalog.n_sfcs, 1), cfg.weights)
        assert gc.collect() == 0
        run(bundled)
        assert gc.collect() == 0
        run(zero_demand)
        assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state(monkeypatch, enabled: bool) -> None:
    # the collector is paused inside run and left as run found it, also when
    # the run raises
    paused = []
    real_check = harness.lockstep.check

    def check(*args):
        paused.append(not gc.isenabled())
        return real_check(*args)

    monkeypatch.setattr(harness.lockstep, "check", check)
    cfg = load_config(tiny_config())
    with collector(enabled):
        run(cfg)
        assert gc.isenabled() == enabled
    assert paused and all(paused)

    def refuse(*args):
        raise InvariantViolation("refused")

    monkeypatch.setattr(harness.lockstep, "check", refuse)
    with collector(enabled):
        with pytest.raises(InvariantViolation, match="refused"):
            run(cfg)
        assert gc.isenabled() == enabled


def test_run_with_regret_attaches_nonnegative_regret() -> None:
    cfg = apply_overrides(load_config(tiny_config(slots=15, seeds=[4])),
                          regret=True)
    result = run(cfg)
    oracle = result.summary["oracle_value"]
    assert oracle is not None and oracle > 0.0
    trace = result.trace
    assert trace["oracle_value"] == [oracle] * len(trace["t"])
    for regret, expected in zip(trace["regret"], trace["expected_reward"]):
        assert regret == pytest.approx(oracle - expected)
        assert regret >= -1e-9


def test_capacity_scale_shrinks_the_run_network() -> None:
    cfg = load_config(tiny_config(capacity_scale=0.5, seeds=[1],
                                  policies="rtsd"))
    result = run(cfg)
    assert result.summary["total_capacity"] == 9
    assert all(r <= 9 for r in result.trace["remaining_resource"])


# --- emission ----------------------------------------------------------------

def test_emit_csv_round_trip(tmp_path: Path) -> None:
    cfg = load_config(tiny_config(slots=6, seeds=[1]))
    result = run(cfg)
    paths = emit(result, tmp_path, "both")
    names = {p.name for p in paths}
    assert names == {"trace.csv", "trace.jsonl", "summary.json"}

    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    trace = result.trace
    assert len(rows) == 1 + len(trace["t"])
    first = dict(zip(CSV_COLUMNS, rows[1]))
    assert first["t"] == "1"
    assert first["policy"] == trace["policy"][0]
    assert float(first["realized_reward"]) == trace["realized_reward"][0]
    assert first["oracle_value"] == "" and first["regret"] == ""

    with open(tmp_path / "trace.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == len(trace["t"])
    assert lines[0]["num_deployed"] == trace["num_deployed"][0]

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["policies"].keys() == result.summary["policies"].keys()

    with pytest.raises(ConfigError):
        emit(result, tmp_path, "xml")


def test_emit_is_byte_stable(tmp_path: Path) -> None:
    cfg = load_config(tiny_config(slots=8, seeds=[2], policies=["rtsd"]))
    emit(run(cfg), tmp_path / "a", "both")
    emit(run(cfg), tmp_path / "b", "both")
    for name in ("trace.csv", "trace.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


# floats that equal-keyed formatting could get wrong: both zeros, NaNs (one
# object repeated and distinct ones, either sign), both infinities, the least
# subnormal, values repr writes with an exponent, and repeats across rows
EXACT_FLOATS = [0.0, -0.0, math.nan, -math.nan, float("nan"), math.inf, -math.inf, 5e-324,
                -5e-324, 1e16, 1e-05, 0.1, 2.5, 1e16, 0.0, -0.0, 0.1, math.nan, -0.0, 2.5,
                1e-05, 0.0]


def synthetic_result(floats: list[float], regret: list | None = None) -> harness.RunResult:
    """A RunResult with floats in its reward columns and ints up to 2**64 - 1.

    regret fills the oracle_value and regret columns; None leaves them all None.
    """
    n = len(floats)
    trace = {"t": list(range(1, n + 1)),
             "policy": [POLICY_ORDER[k % len(POLICY_ORDER)] for k in range(n)],
             "seed": [(0, 2 ** 64 - 1, 7, 2 ** 63)[k % 4] for k in range(n)],
             "realized_reward": floats,
             "expected_reward": floats[::-1],
             "remaining_resource": [(0, 2 ** 63 - 1, 5)[k % 3] for k in range(n)],
             "num_deployed": [k % 2 for k in range(n)],
             "oracle_value": [None] * n if regret is None else [regret[0]] * n,
             "regret": [None] * n if regret is None else regret}
    return harness.RunResult(config=None, trace=trace, summary={})


def assert_emits_as_the_plain_writer(result: harness.RunResult, out: Path) -> None:
    emit(result, out, "both")
    csv_text, jsonl_text = reference_trace_text(result.trace)
    assert (out / "trace.csv").read_bytes() == csv_text.encode()
    assert (out / "trace.jsonl").read_bytes() == jsonl_text.encode()


@pytest.mark.parametrize("rows", [1, 3, 7, 2 ** 16])
def test_emit_formats_each_cell_as_the_plain_writer(tmp_path: Path, rows: int,
                                                     monkeypatch: pytest.MonkeyPatch) -> None:
    # blocks of a few rows make cells and distinct values cross block boundaries
    monkeypatch.setattr(harness, "EMIT_ROWS", rows)
    assert_emits_as_the_plain_writer(synthetic_result(EXACT_FLOATS), tmp_path)


@settings(max_examples=100, deadline=None)
@given(floats=st.lists(st.one_of(st.sampled_from(EXACT_FLOATS), st.floats()), min_size=1,
                       max_size=30),
       rows=st.integers(1, 8))
def test_emit_matches_the_plain_writer_on_any_floats(floats: list[float], rows: int) -> None:
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(harness, "EMIT_ROWS", rows)
        assert_emits_as_the_plain_writer(synthetic_result(floats, regret=floats[1:] + floats[:1]),
                                         Path(tmp))


# sha256 of trace.csv from ``sfcbackup --slots 60 --seed 1..3`` (bundled config,
# all policies). A refactor must keep it; a change that alters decisions or
# sampling on purpose updates it and says so in CHANGES.md.
GOLDEN_TRACE_SHA256 = "e2798a6f922ccb5ddbb102e19961b1162e74cdd2a44d61b75c21637a25cd2cb9"


def test_golden_trace_digest(tmp_path: Path) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=60,
                          seeds="1..3", policy="all")
    assert cfg.policies == POLICY_ORDER
    emit(run(cfg), tmp_path, "csv")
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256


# sha256 of trace.csv from ``sfcbackup --slots 60 --seed 1..30`` (bundled config,
# all policies): lockstep's decide path, which GOLDEN_TRACE_SHA256's three
# seeds do not reach. The per-seed path, forced on all 30 seeds, writes the
# same bytes, and lockstep's, forced on three, GOLDEN_TRACE_SHA256's.
GOLDEN_LOCKSTEP_SHA256 = "d4796385d73f0cc92ad3062dccaf7e5f43d36cdd03ca8d510ab70fa71fdd7d00"


def test_golden_lockstep_trace_digest(tmp_path: Path) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=60,
                          seeds="1..30", policy="all")
    assert len(cfg.seeds) >= LOCKSTEP_MIN_SEEDS
    emit(run(cfg), tmp_path, "csv")
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_LOCKSTEP_SHA256


# trace.csv, trace.jsonl and summary.json of a regret run on the 3-server
# instance of acceptance criterion 9 (perfbench's small-regret workload)
GOLDEN_REGRET_SHA256 = {
    "trace.csv": "2911d12b4ca1ab7083b40ff68e6c80c1e561a5293fbd8465de89abd870dad4d9",
    "trace.jsonl": "949244f2306f24a78fb2cab7368887669ad0f375eef7314608f5c1bd248ca964",
    "summary.json": "a9be0753e17ee0321e578353578d0d36f791449a40916bc88b30f3c1d915b4de",
}


def test_golden_regret_outputs_digest(tmp_path: Path) -> None:
    cfg = load_config({
        "network": {"capacities": [10, 8, 6],
                    "links": [[0, 1, 0.4], [1, 2, 0.7], [0, 2, 1.1]]},
        "catalog": {"vnf_demand": [3, 4, 2, 5],
                    "sfc_chain": [[0, 1], [2, 3, 2], [1, 1]]},
        "ground_truth": {"request_prob": [0.7, 0.5, 0.4],
                         "failure_mean": [0.05, 0.1, 0.02, 0.2]},
        "users": 4, "slots": 40, "seeds": "2..4", "policies": "all", "regret": True,
        "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
    })
    paths = emit(run(cfg), tmp_path, "both")
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == \
           GOLDEN_REGRET_SHA256


# --- command line ------------------------------------------------------------

def write_config(tmp_path: Path, **extra) -> Path:
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(tiny_config(**extra)))
    return path


def test_cli_happy_path(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    cfg_path = write_config(tmp_path, slots=5, seeds=[1])
    out_dir = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--out", str(out_dir),
                 "--format", "both"])
    assert code == 0
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "trace.jsonl").exists()
    assert (out_dir / "summary.json").exists()
    text = capsys.readouterr().out
    for policy in POLICY_ORDER:
        assert policy in text
    assert "wrote" in text


def test_cli_overrides_reach_the_run(tmp_path: Path,
                                     capsys: pytest.CaptureFixture) -> None:
    cfg_path = write_config(tmp_path, slots=40)
    out_dir = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--out", str(out_dir),
                 "--slots", "4", "--seed", "5..6", "--policy", "rtsd",
                 "--regret"])
    assert code == 0
    capsys.readouterr()
    with open(out_dir / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r["policy"] for r in rows} == {"rtsd"}
    assert {r["seed"] for r in rows} == {"5", "6"}
    assert all(float(r["regret"]) >= -1e-9 for r in rows)


def test_cli_missing_config_fails_cleanly(tmp_path: Path,
                                          capsys: pytest.CaptureFixture) -> None:
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra, flags", [
    ({"users": "x"}, []),
    ({"network": {"capacities": [10, 8], "links": [[0, 1]]}}, []),
    ({"slots": 2.7}, []),
    ({"weights": {"omega": "inf"}}, []),
    ({"ground_truth": {"request_prob": [0.8, 0.5, 0.3],
                       "failure_mean": [0.05, float("nan"), 0.02]}}, []),
    ({"network": {"capacities": [10.7, 8], "links": [[0, 1, 0.5]]}}, []),
    ({"network": {"capacities": [2 ** 63, 8], "links": [[0, 1, 0.5]]}}, []),
    ({"network": {"capacities": [10, 8], "links": [[0, 1.0, 0.5]]}}, []),
    ({"network": {"capacities": [10, 8], "links": [[0, 1, "0.5"]]}}, []),
    ({"network": {"capacities": [10, 8], "links": [[0, 1, 1e308]]}}, []),
    ({"catalog": {"vnf_demand": [4, 3.9, 2], "sfc_chain": [[0, 1], [2, 2], [1]]}}, []),
    ({"catalog": {"vnf_demand": [4, 3, 2], "sfc_chain": [[0.5, 1], [2, 2], [1]]}}, []),
    ({"ground_truth": {"request_prob": [0.8, {}, 0.3],
                       "failure_mean": [0.05, 0.1, 0.02]}}, []),
    ({"seeds": [1.5]}, []),
    ({"seeds": [2 ** 64]}, []),
    ({"policies": 7}, []),
    ({"policies": None}, []),
    ({"learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": 5}}, []),
    ({"learner": {"failure_bonus_scale": -3.0, "failure_bonus_sign": -1}}, []),
    ({"capacity_scale": 1e308}, []),
    ({}, ["--capacity-scale", "inf"]),
    ({}, ["--users", "100000000000000000000"]),
    ({}, ["--seed", "0..18446744073709551616"]),
    ({}, ["--seed", "0..18446744073709551615"]),
    ({"users": 2 ** 63}, []),
    ({"ground_truth": {"request_prob": [0.8, 0.5, 0.3],
                       "failure_mean": [True, 0.1, 0.02]}}, []),
    ({"ground_truth": {"request_prob": ["0.8", 0.5, 0.3],
                       "failure_mean": [0.05, 0.1, 0.02]}}, []),
    ({"ground_truth": {"request_prob": True,
                       "failure_mean": [0.05, 0.1, 0.02]}}, []),
    ({}, ["--seed", "0..1000000000"]),
    ({}, ["--users", "10000000000"]),
    ({"policies": ["all", "bogus"]}, []),
    ({"policies": ["rtsd", "bogus"]}, []),
    ({"catalog": {"vnf_demand": [], "sfc_chain": []},
      "ground_truth": {"request_prob": 0.5, "failure_mean": []}}, []),
    ({"catalog": {"vnf_demand": [2 ** 63, 3, 2], "sfc_chain": [[0, 1], [2, 2], [1]]}}, []),
    ({}, ["--slots", "10000000000000", "--seed", "0..7", "--policy", "rtsd"]),
], ids=["users-string", "two-element-link", "fractional-slots", "omega-inf-string",
        "nan-failure-mean", "fractional-capacity", "int64-overflowing-capacity",
        "fractional-link-endpoint", "string-latency", "overflowing-latency",
        "fractional-demand", "fractional-chain-entry", "object-request-prob",
        "fractional-seed", "seed-past-64-bits", "numeric-policies", "null-policies",
        "bonus-sign-5", "negative-bonus-scale", "capacity-scale-1e308", "capacity-scale-flag-inf",
        "users-flag-past-int64", "seed-range-past-64-bits", "seed-range-past-maxsize",
        "users-past-int64", "bool-failure-mean", "string-request-prob", "bool-request-prob",
        "seed-range-past-max-seeds", "users-flag-past-request-draws",
        "unknown-policy-after-all", "unknown-policy", "empty-catalog",
        "int64-overflowing-demand", "slots-past-trace-rows"])
def test_cli_rejects_malformed_scalars(tmp_path: Path, capsys: pytest.CaptureFixture,
                                       extra: dict, flags: list[str]) -> None:
    cfg_path = write_config(tmp_path, **extra)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")] + flags) == 1
    [line] = capsys.readouterr().err.splitlines()      # one line, no traceback
    assert line.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    ({"slotz": 100}, "unknown config key 'slotz'; the nearest known key is 'slots'"),
    ({"weights": {"omega": 1.0, "omegaa": 2.0}},
     "unknown config key 'weights.omegaa'; the nearest known key is 'omega'"),
    ({"learner": {"bonus": 1.0}},
     "unknown config key 'learner.bonus'; the nearest known key is 'failure_bonus_sign'"),
], ids=["top-level", "weights", "learner"])
def test_cli_rejects_a_misspelt_key(tmp_path: Path, capsys: pytest.CaptureFixture,
                                    extra: dict, message: str) -> None:
    # a key no section knows would otherwise leave its setting at the default
    cfg_path = write_config(tmp_path, **extra)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# a value other than tiny_config's for each setting the CLI overrides, as the
# config and apply_overrides take it and as its flag's arguments
OVERRIDDEN = {"slots": (7, ["7"]), "seeds": ("2..3", ["2..3"]), "policies": ("random", ["random"]),
              "regret": (True, []), "capacity_scale": (1.5, ["1.5"]), "users": (9, ["9"])}


def scalar_settings(cfg) -> tuple:
    return (cfg.weights.omega, cfg.weights.mu, cfg.failure_bonus_scale, cfg.failure_bonus_sign,
            cfg.slots, cfg.seeds, cfg.policies, cfg.regret, cfg.capacity_scale, cfg.users)


@pytest.mark.parametrize("setting", [s for s in SETTINGS if s.flag], ids=lambda s: s.key)
def test_a_setting_reads_the_same_from_config_override_and_flag(tmp_path: Path, monkeypatch,
                                                                setting) -> None:
    value, arguments = OVERRIDDEN[setting.key]
    from_config = load_config(tiny_config(**{setting.key: value}))
    from_override = apply_overrides(load_config(tiny_config()), **{setting.keyword: value})
    # main's own overrides: its run is replaced by one that keeps the config
    seen = []

    def keep(cfg):
        seen.append(cfg)
        raise ConfigError("kept")

    monkeypatch.setattr("sfcbackup.cli.run", keep)
    argv = ["--config", str(write_config(tmp_path)), setting.flag, *arguments]
    assert vars(build_parser().parse_args(argv))[setting.keyword] is not None
    assert main(argv) == 1
    # a flag left out keeps the config's value
    assert main(["--config", str(write_config(tmp_path, **{setting.key: value}))]) == 1
    from_flag, unflagged = seen
    assert scalar_settings(from_config) != scalar_settings(load_config(tiny_config()))
    assert scalar_settings(from_config) == scalar_settings(from_override) \
        == scalar_settings(from_flag) == scalar_settings(unflagged)


def test_config_keys_are_the_settings_and_the_structured_sections() -> None:
    structured = ("network", "catalog", "ground_truth")
    sections = {s.key.partition(".")[0] for s in SETTINGS if "." in s.key}
    assert set(CONFIG_KEYS) == {"", *structured, *sections}
    paths = {f"{section}.{key}" if section else key for section, keys in CONFIG_KEYS.items()
             if section not in structured for key in keys}
    assert paths == {"comment", *structured, *sections, *(s.key for s in SETTINGS)}


KNOWN_KEYS = {key for keys in harness.CONFIG_KEYS.values() for key in keys}


@settings(max_examples=50, deadline=None)
@given(section=st.sampled_from(sorted(harness.CONFIG_KEYS)),
       key=st.text(min_size=1).filter(lambda key: key not in KNOWN_KEYS))
def test_an_unknown_key_in_any_section_is_named(section: str, key: str) -> None:
    doc = json.loads(default_config_path().read_text(encoding="utf-8"))
    (doc[section] if section else doc)[key] = 1
    path = f"{section}.{key}" if section else key
    with pytest.raises(ConfigError, match=re.escape(f"unknown config key {path!r}; the "
                                                    f"nearest known key is ")):
        load_config(doc)


def test_perfbench_workloads_load(monkeypatch) -> None:
    # perfbench builds each workload through load_config, canonical from the
    # bundled config: every key of their configs is a known one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        assert workloads.build(sfcbackup, name, 1).slots == workloads.WORKLOADS[name].slots


def test_config_errors_name_the_field() -> None:
    with pytest.raises(ConfigError, match=r"network\.capacities\[0\] must be an integer, got 10\.7"):
        load_config(tiny_config(network={"capacities": [10.7, 8], "links": [[0, 1, 0.5]]}))
    with pytest.raises(ConfigError, match=r"catalog\.sfc_chain\[0\]\[0\] must be an integer"):
        load_config(tiny_config(catalog={"vnf_demand": [4, 3, 2],
                                         "sfc_chain": [[0.5, 1], [2, 2], [1]]}))
    with pytest.raises(ConfigError, match=r"network\.links\[0\]\[2\] must be a finite number"):
        load_config(tiny_config(network={"capacities": [10, 8], "links": [[0, 1, None]]}))
    with pytest.raises(ConfigError, match=r"ground_truth\.failure_mean\[0\] must be a number, got True"):
        load_config(tiny_config(ground_truth={"request_prob": [0.8, 0.5, 0.3],
                                              "failure_mean": [True, 0.1, 0.02]}))
    with pytest.raises(ConfigError, match=r"ground_truth\.failure_mean\[1\] must be a number, got '0\.1'"):
        load_config(tiny_config(ground_truth={"request_prob": [0.8, 0.5, 0.3],
                                              "failure_mean": [0.05, "0.1", 0.02]}))
    with pytest.raises(ConfigError, match=r"ground_truth\.request_prob\[2\] must be a number, got True"):
        load_config(tiny_config(ground_truth={"request_prob": [0.8, 0.5, True],
                                              "failure_mean": [0.05, 0.1, 0.02]}))
    with pytest.raises(ConfigError, match=r"ground_truth\.request_prob\[0\]\[1\] must be a number, got '0\.1'"):
        load_config(tiny_config(ground_truth={"request_prob": [[0.8, "0.1", 0.3]] * 5,
                                              "failure_mean": [0.05, 0.1, 0.02]}))
    with pytest.raises(ConfigError, match=r"bad instance: catalog has no SFCs"):
        load_config(tiny_config(catalog={"vnf_demand": [], "sfc_chain": []},
                                ground_truth={"request_prob": 0.5, "failure_mean": []}))
    with pytest.raises(ConfigError, match=r"users must be at most 2\*\*63 - 1"):
        load_config(tiny_config(users=2 ** 63))
    # three chains: users x n_sfcs passes the per-slot request draws one past this
    load_config(tiny_config(users=MAX_REQUEST_DRAWS // 3))
    with pytest.raises(ConfigError, match=r"users x n_sfcs = 21846 x 3 passes 65536 "
                                          r"request draws per slot; lower users"):
        load_config(tiny_config(users=MAX_REQUEST_DRAWS // 3 + 1))
    # three policies x two seeds: the trace rows pass the bound one slot later
    load_config(tiny_config(slots=MAX_TRACE_ROWS // 6))
    with pytest.raises(ConfigError, match=r"policies x seeds x slots = 3 x 2 x 699051 passes "
                                          r"4194304 trace rows; lower slots or seeds"):
        load_config(tiny_config(slots=MAX_TRACE_ROWS // 6 + 1))


# config files that json.load cannot read: bytes that are not UTF-8, and
# objects nested past the parser's recursion limit
MALFORMED_BYTES = [
    pytest.param(b'{"network": "\xff\xfe"}', "config is not valid UTF-8", id="not-utf-8"),
    pytest.param(b'{"a":' * 100_000, "config nests too deeply to parse", id="nested-100000-deep"),
]


@pytest.mark.parametrize("data, message", MALFORMED_BYTES)
def test_malformed_config_bytes_raise_config_error(tmp_path: Path, data: bytes,
                                                   message: str) -> None:
    path = tmp_path / "exp.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


@pytest.mark.parametrize("data, message", MALFORMED_BYTES)
def test_cli_reports_malformed_config_bytes_in_one_line(tmp_path: Path,
                                                        capsys: pytest.CaptureFixture,
                                                        data: bytes, message: str) -> None:
    path = tmp_path / "exp.json"
    path.write_bytes(data)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def readme_quick_start() -> tuple[list[str], list[str]]:
    """The README's quick-start command, as argv after the program name, and the lines it prints."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    command, printed = section.split("```\n")[1:4:2]
    program, *argv = command.split()
    assert program == "sfcbackup"
    return argv, printed.splitlines()


def test_readme_quick_start_prints_what_the_readme_shows(tmp_path: Path, monkeypatch,
                                                         capsys: pytest.CaptureFixture) -> None:
    argv, printed = readme_quick_start()
    assert argv == ["--slots", "100", "--seed", "1..3", "--out", "runs"]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_readme_lists_every_flag_and_override_keyword() -> None:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    flags = text.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"`(--[\w-]+) ?([^`]*)`", flags)
    options = [(action.option_strings[0], action.metavar or "|".join(action.choices or ()))
               for action in build_parser()._actions if action.dest != "help"]
    assert sorted(listed) == sorted(options)
    library = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    assert all(f"`{s.keyword}`" in library for s in SETTINGS if s.keyword)


# Values that are wrong somewhere in a config: fractional, negative, zero, the
# wrong type (a numeric string among them), non-finite, or finite but far out
# of range.
BAD_LEAVES = (10.7, -1, 0, "x", "0.1", None, True, [], {}, math.nan, math.inf, 1e308)


def leaf_paths(node, path=()):
    """Key paths to every scalar in a nested config document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from leaf_paths(child, path + (k,))
    else:
        yield path


@settings(max_examples=200, deadline=None)
@example(path=("network", "capacities", 0), value=math.inf)
@given(path=st.sampled_from(list(leaf_paths(tiny_config()))),
       value=st.sampled_from(BAD_LEAVES))
def test_cli_survives_one_bad_leaf(path: tuple, value) -> None:
    # a config with one leaf replaced either runs or fails with a ConfigError:
    # exit code 0 or 1, never an exception, and never a longer run. No leaf of
    # tiny_config takes a bool or a string other than its own, so those must
    # fail rather than be coerced.
    doc = tiny_config()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "exp.json"
        cfg_path.write_text(json.dumps(doc))
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(cfg_path), "--out", str(out_dir)])
        assert code in (0, 1)
        if isinstance(value, (bool, str)):
            assert code == 1
        if code == 0:
            rows = (out_dir / "trace.csv").read_text().count("\n") - 1
            base = tiny_config()
            assert rows <= len(POLICY_ORDER) * len(base["seeds"]) * base["slots"]


def test_cli_rejects_unknown_policy_flag(tmp_path: Path) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["--policy", "greedy", "--out", str(tmp_path)])
    assert exc.value.code == 2
