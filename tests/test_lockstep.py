"""harness.simulate_run's batched stages against their one-seed and one-slot definitions.

A learned policy's run of at least LOCKSTEP_MIN_SEEDS seeds keeps its seeds'
learners in lockstep.Learners arrays; a single-seed run always keeps a
learning.py learner pair, so the concatenation of single-seed runs is the
reference for every column. The random policy decides whole chunks of rows
at once for every seed count: its run must equal the concatenation of its
single-seed runs, and lockstep.random_rows must equal
reference_kernels.random_placement row by row.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfcbackup import (Catalog, EdgeNetwork, InvariantViolation, apply_overrides,
                       default_config_path, load_config, run)
from sfcbackup import harness, kernels, lockstep
from sfcbackup import policy as policy_module
from sfcbackup.harness import (CSV_COLUMNS, LOCKSTEP_MIN_SEEDS, OBS_BLOCK_SLOTS, PLACEMENT_MODES,
                              POLICY_ORDER)
from sfcbackup.learning import (failure_estimate, failure_update, init_learners,
                                popularity_estimate, popularity_update)

from reference_kernels import random_placement, unpack_rows


def per_seed_reference(cfg):
    """run(cfg) assembled from single-seed runs, which keep per-seed learners."""
    trace = {col: [] for col in CSV_COLUMNS}
    means = {}
    for policy in cfg.policies:
        for seed in cfg.seeds:
            alone = run(apply_overrides(cfg, seeds=[seed], policy=policy))
            for col in CSV_COLUMNS:
                trace[col].extend(alone.trace[col])
            stats = alone.summary["policies"][policy]
            means[policy, seed] = {key: stats[key]["mean"] for key in stats}
    return trace, means


def per_seed_means(result):
    """Each (policy, seed)'s time averages, recomputed from the trace columns."""
    trace = result.trace
    out = {}
    for policy in result.config.policies:
        for seed in result.config.seeds:
            rows = [k for k, (p, s) in enumerate(zip(trace["policy"], trace["seed"]))
                    if p == policy and s == seed]
            out[policy, seed] = {
                name: float(np.mean([trace[col][k] for k in rows]))
                for name, col in (("time_avg_realized", "realized_reward"),
                                  ("time_avg_expected", "expected_reward"),
                                  ("mean_remaining", "remaining_resource"),
                                  ("mean_deployed", "num_deployed"))}
    return out


def assert_matches_per_seed(cfg, monkeypatch) -> None:
    assert len(cfg.seeds) >= LOCKSTEP_MIN_SEEDS
    batched = run(cfg)
    trace, means = per_seed_reference(cfg)
    for col in CSV_COLUMNS:
        assert batched.trace[col] == trace[col], col
    assert per_seed_means(batched) == means
    # the same config forced onto per-seed learners aggregates identically
    monkeypatch.setattr(harness, "LOCKSTEP_MIN_SEEDS", len(cfg.seeds) + 1)
    assert run(cfg).summary == batched.summary


def test_lockstep_path_is_taken_from_the_seed_threshold(monkeypatch) -> None:
    # the seed count picks a learned policy's learner state: lockstep.Learners
    # (one estimates call per slot for every seed) from LOCKSTEP_MIN_SEEDS seeds
    # on, a learning.py pair per seed (one popularity_estimate call per seed
    # and slot) below that
    calls = {"lockstep": 0, "per_seed": 0, "random": 0}

    def count(module, name: str, key: str) -> None:
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    count(lockstep, "estimates", "lockstep")
    count(policy_module, "popularity_estimate", "per_seed")
    count(lockstep, "random_rows", "random")
    cfg = load_config(default_config_path())
    learned = len(PLACEMENT_MODES)
    run(apply_overrides(cfg, slots=3, seeds=f"1..{LOCKSTEP_MIN_SEEDS}"))
    assert calls == {"lockstep": learned * 3, "per_seed": 0, "random": 1}
    run(apply_overrides(cfg, slots=3, seeds=f"1..{LOCKSTEP_MIN_SEEDS - 1}"))
    assert calls == {"lockstep": learned * 3, "per_seed": learned * 3 * (LOCKSTEP_MIN_SEEDS - 1),
                     "random": 2}


def test_ground_truths_are_built_once_per_run(monkeypatch) -> None:
    seen = []
    real_simulate = harness.simulate_run
    built = []
    real_make = harness.make_ground_truth

    def make(*args):
        built.append(args)
        return real_make(*args)

    def simulate(network, catalog, gts, *args, **kwargs):
        seen.extend(map(id, gts))
        return real_simulate(network, catalog, gts, *args, **kwargs)

    monkeypatch.setattr(harness, "make_ground_truth", make)
    monkeypatch.setattr(harness, "simulate_run", simulate)
    cfg = load_config(default_config_path())
    for n in (LOCKSTEP_MIN_SEEDS, 2):
        seen.clear()
        built.clear()
        run(apply_overrides(cfg, slots=2, seeds=f"1..{n}"))
        assert len(built) == 1
        # rtsd, bandit, random: the same n ground truths
        assert len(seen) == 3 * n and len(set(seen)) == n
        assert seen[:n] == seen[n:2 * n] == seen[2 * n:]


@st.composite
def instances(draw) -> dict:
    """Small configs with ties, linkless single servers, chains that never fit and repeats."""
    n_servers = draw(st.integers(1, 4))
    links = [[k, k + 1, draw(st.sampled_from([0.0, 0.5, 1.0]))]
             for k in range(n_servers - 1)]        # a path keeps the network connected
    for u in range(n_servers):
        for v in range(u + 2, n_servers):
            if draw(st.booleans()):
                links.append([u, v, draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))])
    n_vnfs = draw(st.integers(1, 4))
    chains = draw(st.lists(st.lists(st.integers(0, n_vnfs - 1), min_size=1, max_size=3),
                           min_size=1, max_size=4))
    probs = st.sampled_from([0.0, 0.3, 0.5, 1.0])
    first = draw(st.integers(0, 50))
    learner = {"failure_bonus_sign": draw(st.sampled_from([1, -1]))}
    scale = draw(st.sampled_from([None, 0.0, 1.0, 1e308]))    # None: the per-user default
    if scale is not None:
        learner["failure_bonus_scale"] = scale
    return {
        "network": {"capacities": draw(st.lists(st.integers(0, 12), min_size=n_servers,
                                                max_size=n_servers)),
                    "links": links},
        "catalog": {"vnf_demand": draw(st.lists(st.integers(0, 15), min_size=n_vnfs,
                                                max_size=n_vnfs)),
                    "sfc_chain": chains},
        "ground_truth": {"request_prob": draw(st.one_of(
                             probs, st.lists(probs, min_size=len(chains), max_size=len(chains)))),
                         "failure_mean": draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                                                       min_size=n_vnfs, max_size=n_vnfs))},
        "weights": {"omega": draw(st.sampled_from([0.5, 1.0, 2.0])),
                    "mu": draw(st.sampled_from([0.0, 1.0, 3.0]))},
        "users": draw(st.integers(1, 5)),
        "slots": draw(st.integers(1, 12)),
        "seeds": f"{first}..{first + LOCKSTEP_MIN_SEEDS - 1}",
        "learner": learner,
    }


@settings(max_examples=25, deadline=None)
@example(doc={
    # one linkless server, a repeated VNF, a chain that never fits, tied popularity
    "network": {"capacities": [9], "links": []},
    "catalog": {"vnf_demand": [2, 3, 20], "sfc_chain": [[0, 0], [1], [2], [0, 1]]},
    "ground_truth": {"request_prob": 0.5, "failure_mean": [0.1, 0.0, 0.5]},
    "weights": {"omega": 1.0, "mu": 1.0}, "users": 3, "slots": 10,
    "seeds": f"7..{6 + LOCKSTEP_MIN_SEEDS}", "learner": {"failure_bonus_sign": 1}})
@given(doc=instances())
def test_lockstep_run_equals_single_seed_runs(doc: dict) -> None:
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_per_seed(load_config(doc), monkeypatch)


def test_lockstep_bundled_run_equals_single_seed_runs(monkeypatch) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=30,
                          seeds=f"5..{4 + LOCKSTEP_MIN_SEEDS}")
    assert_matches_per_seed(cfg, monkeypatch)


def test_lockstep_matches_on_a_ten_chain_instance(monkeypatch) -> None:
    # ten chains: numpy sums a row of eight or more in pairwise blocks, not
    # left to right, which the smaller instances above never reach
    cfg = load_config({
        "network": {"capacities": [14, 9, 12, 7],
                    "links": [[0, 1, 0.4], [1, 2, 0.9], [2, 3, 0.3], [0, 3, 1.3]]},
        "catalog": {"vnf_demand": [2, 3, 1, 4, 2],
                    "sfc_chain": [[0, 1], [2], [3, 3], [4, 0, 2], [1], [2, 4], [0],
                                  [3, 1], [4], [1, 2, 0]]},
        "ground_truth": {"request_prob": [0.9, 0.3, 0.6, 0.45, 0.8, 0.2, 0.7, 0.5, 0.35, 0.65],
                         "failure_mean": [0.05, 0.1, 0.02, 0.2, 0.01]},
        "weights": {"omega": 1.3, "mu": 0.7},
        "users": 6, "slots": 40, "seeds": f"3..{2 + LOCKSTEP_MIN_SEEDS}",
        "learner": {"failure_bonus_scale": 0.5, "failure_bonus_sign": -1},
    })
    assert_matches_per_seed(cfg, monkeypatch)


def test_lockstep_learners_equal_the_per_seed_learners() -> None:
    rng = np.random.default_rng(5)
    n_seeds, n_sfcs, n_vnfs, users = 5, 4, 6, 7
    for sign, scale in ((1, None), (-1, 0.8), (1, 1e308)):
        batch = lockstep.Learners.fresh(n_seeds, n_sfcs, n_vnfs, users, scale, sign)
        singles = [init_learners(n_sfcs, n_vnfs, users, failure_bonus_scale=scale,
                                 failure_bonus_sign=sign) for _ in range(n_seeds)]
        for t in range(1, 40):
            q_rows, v_rows = lockstep.estimates(batch, t)
            for (pop, fail), q, v in zip(singles, q_rows, v_rows):
                assert q == popularity_estimate(pop, t)
                assert v == failure_estimate(fail, t)
            requests = rng.integers(0, users + 1, size=(n_seeds, n_sfcs))
            failed = (rng.random((n_seeds, n_vnfs)) < 0.3).astype(np.uint8)
            x = rng.random((n_seeds, n_sfcs)) < 0.5
            placed = rng.integers(0, 3, size=(n_seeds, n_vnfs)) * (rng.random((n_seeds, n_vnfs)) < 0.5)
            lockstep.update(batch, requests, failed, x, placed)
            for s, (pop, fail) in enumerate(singles):
                popularity_update(pop, requests[s].tolist(), x[s].tolist())
                failure_update(fail, failed[s].tolist(), placed[s].tolist())
                assert batch.request_mean[s].tolist() == pop.request_mean
                assert batch.failure_mean[s].tolist() == fail.failure_mean


def test_lockstep_matches_past_the_plan_graph_node_cap(monkeypatch) -> None:
    monkeypatch.setattr(kernels, "NODE_CAP", 2)
    cfg = apply_overrides(load_config(default_config_path()), slots=25,
                          seeds=f"1..{LOCKSTEP_MIN_SEEDS}", policy="rtsd")
    assert_matches_per_seed(cfg, monkeypatch)


def test_lockstep_groups_bound_the_seeds_advanced_together(monkeypatch) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=20,
                          seeds=f"1..{2 * LOCKSTEP_MIN_SEEDS + 3}")
    per_row = (cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + cfg.catalog.uniform_layout[0]
               + cfg.network.n_servers)
    # every policy: two groups of LOCKSTEP_MIN_SEEDS seeds, then the last three,
    # and check and slot_values calls of LOCKSTEP_MIN_SEEDS rows at most
    max_values = harness.LOCKSTEP_MAX_VALUES
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES",
                        per_row * LOCKSTEP_MIN_SEEDS + per_row - 1)
    sizes = {policy: [] for policy in POLICY_ORDER}
    # rows of every check and slot_values call, each one chunk
    rows = {"check": [], "slot_values": []}
    real_simulate = harness.simulate_run

    def recorded(network, catalog, gts, weights, policy, *args, **kwargs):
        sizes[policy].append(len(gts))
        return real_simulate(network, catalog, gts, weights, policy, *args, **kwargs)

    def bound() -> int:
        return max(1, harness._batch_rows(cfg.network, cfg.catalog))

    def counted(name, position):
        real = getattr(lockstep, name)

        def stage(*args):
            rows[name].append(args[position].residual.shape[0])
            return real(*args)
        return stage

    monkeypatch.setattr(harness, "simulate_run", recorded)
    monkeypatch.setattr(lockstep, "check", counted("check", 1))
    monkeypatch.setattr(lockstep, "slot_values", counted("slot_values", 5))
    assert_matches_per_seed(cfg, monkeypatch)
    # the run, then each seed alone, then the run forced onto per-seed learners
    groups = [LOCKSTEP_MIN_SEEDS] * 2 + [3]
    assert sizes == {policy: groups + [1] * len(cfg.seeds) + groups for policy in POLICY_ORDER}
    sizes["random"].clear()
    # two slots group the random policy's seeds as twenty do
    short = apply_overrides(cfg, slots=2, policy="random")
    assert_matches_per_seed(short, monkeypatch)
    assert sizes["random"] == groups + [1] * len(cfg.seeds) + groups
    assert rows["check"] and rows["slot_values"]
    assert max(rows["check"] + rows["slot_values"]) == bound()

    # at the default bounds a lockstep run checks many slots per call
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES", max_values)
    monkeypatch.setattr(harness, "LOCKSTEP_MIN_SEEDS", LOCKSTEP_MIN_SEEDS)
    sizes["rtsd"].clear()
    rows["check"].clear()
    run(apply_overrides(cfg, seeds=f"1..{LOCKSTEP_MIN_SEEDS}", policy="rtsd"))
    assert sizes["rtsd"] == [LOCKSTEP_MIN_SEEDS]
    assert 0 < len(rows["check"]) < cfg.slots
    assert max(rows["check"]) <= bound()


# --- the batched verification -------------------------------------------------

TAMPER_DOC = {
    "network": {"capacities": [10, 1], "links": [[0, 1, 0.5]]},
    "catalog": {"vnf_demand": [3, 2], "sfc_chain": [[0], [1, 1]]},
    "ground_truth": {"request_prob": 0.9, "failure_mean": [0.0, 0.0]},
    "users": 4, "slots": 3, "seeds": f"1..{LOCKSTEP_MIN_SEEDS}", "policies": "rtsd",
    "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
}


def _replace_first(deployed: list, **changes) -> None:
    f, plan = deployed[0]
    deployed[0] = (f, dataclasses.replace(plan, **changes))


def _overload(deployed: list, residual: list) -> None:
    # the first commit moves onto server 1, which holds 1, with the residual kept
    # equal to capacity minus load, so that only the capacity check can object
    f, plan = deployed[0]
    demand, chains = TAMPER_DOC["catalog"]["vnf_demand"], TAMPER_DOC["catalog"]["sfc_chain"]
    for server, i in zip(plan.assignment, chains[f]):
        residual[server] += demand[i]
        residual[1] -= demand[i]
    _replace_first(deployed, assignment=(1,) * len(plan.assignment))


TAMPERS = {
    "server load exceeds capacity": _overload,
    "residual bookkeeping mismatch":
        lambda deployed, residual: residual.__setitem__(0, residual[0] - 1),
    "committed a partial plan":
        lambda deployed, residual: _replace_first(
            deployed, assignment=deployed[0][1].assignment[:-1]),
    "assigned to unknown server 2":
        lambda deployed, residual: _replace_first(
            deployed, assignment=(2,) * len(deployed[0][1].assignment)),
    "committed twice": lambda deployed, residual: deployed.append(deployed[0]),
    "committed at infinite latency":
        lambda deployed, residual: _replace_first(deployed, latency=math.inf),
}


TAMPER_SEED_COUNTS = (1, LOCKSTEP_MIN_SEEDS - 1, LOCKSTEP_MIN_SEEDS)
LATE_TAMPER = "residual bookkeeping mismatch"


def _tamper_case(message: str, n_seeds: int, slot: int, slots: int):
    name = message if n_seeds == LOCKSTEP_MIN_SEEDS else f"{message}, seeds={n_seeds}"
    if slot != 2:
        name += f", slot={slot}"
    return pytest.param(message, n_seeds, slot, slots, id=name)


@pytest.mark.parametrize("message, n_seeds, slot, slots", [
    *(_tamper_case(message, n, 2, 3) for message in TAMPERS for n in TAMPER_SEED_COUNTS),
    # past the first block of drawn slots, in the block's last, partial chunk
    *(_tamper_case(LATE_TAMPER, n, OBS_BLOCK_SLOTS + 3, OBS_BLOCK_SLOTS + 7)
      for n in TAMPER_SEED_COUNTS)])
def test_batched_check_rejects_a_tampered_commit(monkeypatch, message: str, n_seeds: int,
                                                 slot: int, slots: int) -> None:
    # both learner states check a chunk of decisions after deciding it, and
    # name the earliest slot that fails
    cfg = apply_overrides(load_config(TAMPER_DOC), seeds=f"1..{n_seeds}", slots=slots)
    seed = min(3, n_seeds - 1)              # the fourth seed, or the last one
    # slot_decide runs slot by slot, each slot across the seeds, whichever the
    # learner state
    target = (slot - 1) * n_seeds + seed + 1
    calls = []
    real = kernels.slot_decide

    def tampered(graph, q_est, v_est, omega, mu, deployed, residual):
        out = real(graph, q_est, v_est, omega, mu, deployed, residual)
        calls.append(1)
        if len(calls) == target:
            assert deployed, "the tampered seed must have committed a chain"
            TAMPERS[message](deployed, residual)
        return out

    monkeypatch.setattr(kernels, "slot_decide", tampered)
    with pytest.raises(InvariantViolation,
                       match=f"^seed {cfg.seeds[seed]}, slot {slot}: .*{message}"):
        run(cfg)


def _first_record(rec, row: int) -> int:
    return int(np.flatnonzero(rec.row == row)[0])


def _tamper_server(rec, row: int) -> None:
    r = _first_record(rec, row)
    rec.servers[int(rec.positions[:r].sum())] = rec.residual.shape[1]


RANDOM_TAMPERS = {
    "assigned to unknown server 2": _tamper_server,
    "residual bookkeeping mismatch":
        lambda rec, row: rec.residual[row].__setitem__(-1, rec.residual[row, -1] + 1),
    "committed at infinite latency":
        lambda rec, row: rec.latency.__setitem__(_first_record(rec, row), math.inf),
}


def test_batched_check_rejects_a_tampered_random_commit(monkeypatch) -> None:
    cfg = apply_overrides(load_config(TAMPER_DOC), policy="random", slots=6)
    real = lockstep.random_rows
    for message, tamper in RANDOM_TAMPERS.items():
        def tampered(layout, u, tamper=tamper):
            rec = real(layout, u)
            # the rows are slot-major: row (2 - 1) * S + 3 is the fourth seed's
            # slot 2, where chain 0 always fits
            tamper(rec, (2 - 1) * len(cfg.seeds) + 3)
            return rec

        monkeypatch.setattr(lockstep, "random_rows", tampered)
        with pytest.raises(InvariantViolation,
                           match=f"^seed {cfg.seeds[3]}, slot 2: .*{message}"):
            run(cfg)


@pytest.mark.parametrize("policy", ["rtsd", "random"])
@pytest.mark.parametrize("n_seeds", [3, LOCKSTEP_MIN_SEEDS])
def test_check_names_the_earliest_failing_slot(monkeypatch, policy: str, n_seeds: int) -> None:
    # the first seed's slot 5 and the third seed's slot 2 are both tampered;
    # the error names slot 2, the earlier one, at every seed count
    cfg = apply_overrides(load_config(TAMPER_DOC), policy=policy, seeds=f"1..{n_seeds}",
                          slots=6)
    targets = {(5 - 1) * n_seeds, (2 - 1) * n_seeds + 2}   # slot-major rows, from 0
    if policy == "random":
        real_rows = lockstep.random_rows

        def tampered_rows(layout, u):
            rec = real_rows(layout, u)
            for row in targets:
                rec.residual[row, -1] += 1
            return rec
        monkeypatch.setattr(lockstep, "random_rows", tampered_rows)
    else:
        calls = []
        real_decide = kernels.slot_decide

        def tampered_decide(graph, q_est, v_est, omega, mu, deployed, residual):
            out = real_decide(graph, q_est, v_est, omega, mu, deployed, residual)
            if len(calls) in targets:
                residual[0] -= 1
            calls.append(1)
            return out
        monkeypatch.setattr(kernels, "slot_decide", tampered_decide)
    with pytest.raises(InvariantViolation,
                       match=f"^seed {cfg.seeds[2]}, slot 2: .*residual bookkeeping mismatch"):
        run(cfg)


# --- the random policy ----------------------------------------------------------

NEAR_ONE = math.nextafter(1.0, 0.0)


@st.composite
def random_policy_cases(draw) -> tuple:
    """An instance and rows of uniforms: ties, missing links, zero capacity, repeats."""
    n_servers = draw(st.integers(1, 4))
    links = [(u, v, draw(st.sampled_from([0.0, 0.5, 1.0])))
             for u in range(n_servers) for v in range(u + 1, n_servers)
             if draw(st.booleans())]
    n_vnfs = draw(st.integers(1, 4))
    chains = draw(st.lists(st.lists(st.integers(0, n_vnfs - 1), max_size=3), max_size=4))
    net = EdgeNetwork(draw(st.lists(st.integers(0, 12), min_size=n_servers,
                                    max_size=n_servers)), links)
    cat = Catalog(draw(st.lists(st.integers(0, 15), min_size=n_vnfs, max_size=n_vnfs)),
                  chains)
    value = st.one_of(st.sampled_from([0.0, 0.5, NEAR_ONE]),
                      st.floats(0.0, 1.0, exclude_max=True))
    width, _ = cat.uniform_layout
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    return net, cat, rows


@settings(max_examples=100, deadline=None)
@example(case=(EdgeNetwork([9], []), Catalog([2, 3, 20], [[0, 0], [1], [2], [0, 1]]),
               [[0.5] * 10, [NEAR_ONE] * 10, [0.0] * 10]))
@example(case=(EdgeNetwork([6, 6, 0], [(0, 1, 0.5)]), Catalog([3], [[0, 0, 0], [0]]),
               [[0.1, 0.1, 0.0, 0.9, NEAR_ONE, NEAR_ONE], [0.2, 0.1, NEAR_ONE, 0.0, 0.0, 0.5]]))
@example(case=(EdgeNetwork([5, 5], []), Catalog([3], [[0, 0]]),    # a split needs a missing link
               [[0.0, 0.0, NEAR_ONE], [0.5, NEAR_ONE, 0.0]]))
@given(case=random_policy_cases())
def test_random_rows_equal_the_per_slot_loop(case) -> None:
    net, cat, rows = case
    layout = lockstep.Layout.of(net, cat)
    u = np.array(rows, dtype=np.float64).reshape(len(rows), cat.uniform_layout[0])
    rec = lockstep.random_rows(layout, u)
    assert unpack_rows(rec, len(rows)) == [random_placement(net, cat, row) for row in rows]
    x, _ = lockstep.check(layout, rec, lambda k: (0, k + 1))
    assert [sorted(f for f, _ in deployed) for deployed, _ in unpack_rows(rec, len(rows))] == \
           [np.flatnonzero(row).tolist() for row in x]


@pytest.mark.parametrize("n_seeds", [1, LOCKSTEP_MIN_SEEDS - 1, LOCKSTEP_MIN_SEEDS, 30])
def test_random_run_equals_single_seed_runs(n_seeds: int) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=40, policy="random",
                          seeds=f"3..{2 + n_seeds}")
    batched = run(cfg)
    trace, means = per_seed_reference(cfg)
    for col in CSV_COLUMNS:
        assert batched.trace[col] == trace[col], col
    assert per_seed_means(batched) == means


# --- the reduction order the traces rely on -------------------------------------

def test_row_sums_of_a_matrix_equal_sums_of_its_rows() -> None:
    # lockstep.slot_values sums each row's per-chain rewards with
    # earned.sum(axis=1), whether its rows are the seeds of a slot or the slots
    # of a block; the reference realized_reward sums one slot's as a 1-D array.
    # Both paths match the reference, and each other, only while numpy reduces
    # both in the same (pairwise) order.
    rng = np.random.default_rng(2024)
    for n_cols in range(1, 65):
        a = rng.standard_normal((9, n_cols)) * 10.0 ** rng.integers(-8, 9, size=(9, n_cols))
        a = np.ascontiguousarray(a)
        sums = a.sum(axis=1).tolist()
        for row, total in zip(a.tolist(), sums):
            assert total == float(np.array(row).sum())
