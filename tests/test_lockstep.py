"""The batched simulators of harness.run against their one-seed and one-slot definitions.

A learned policy's run of at least LOCKSTEP_MIN_SEEDS seeds advances them
together (lockstep.simulate_seeds); a single-seed run always takes the
per-seed path, so the concatenation of single-seed runs is the reference for
every column. The random policy runs in lockstep.simulate_random for every
seed count: its run must equal the concatenation of its single-seed runs,
and lockstep.random_rows must equal reference_kernels.random_placement row
by row.
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
from sfcbackup.harness import CSV_COLUMNS, LOCKSTEP_MIN_SEEDS, PLACEMENT_MODES
from sfcbackup.learning import (failure_estimate, failure_update, init_learners,
                                popularity_estimate, popularity_update)

from reference_kernels import random_placement, unpack_rows


def per_seed_reference(cfg):
    """run(cfg) assembled from single-seed runs, which take the per-seed path."""
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
    # the same config forced onto the per-seed path aggregates identically
    monkeypatch.setattr(harness, "LOCKSTEP_MIN_SEEDS", len(cfg.seeds) + 1)
    assert run(cfg).summary == batched.summary


def test_lockstep_path_is_taken_from_the_seed_threshold(monkeypatch) -> None:
    calls = {"lockstep": 0, "per_seed": 0, "random": 0}
    real_lockstep, real_simulate = lockstep.simulate_seeds, harness.simulate_run
    real_random = lockstep.simulate_random

    def batched(*args, **kwargs):
        calls["lockstep"] += 1
        return real_lockstep(*args, **kwargs)

    def single(*args, **kwargs):
        calls["per_seed"] += 1
        return real_simulate(*args, **kwargs)

    def random_policy(*args, **kwargs):
        calls["random"] += 1
        return real_random(*args, **kwargs)

    monkeypatch.setattr(lockstep, "simulate_seeds", batched)
    monkeypatch.setattr(harness, "simulate_run", single)
    monkeypatch.setattr(lockstep, "simulate_random", random_policy)
    cfg = load_config(default_config_path())
    learned = len(PLACEMENT_MODES)
    run(apply_overrides(cfg, slots=3, seeds=f"1..{LOCKSTEP_MIN_SEEDS}"))
    assert calls == {"lockstep": learned, "per_seed": 0, "random": 1}
    run(apply_overrides(cfg, slots=3, seeds=f"1..{LOCKSTEP_MIN_SEEDS - 1}"))
    assert calls == {"lockstep": learned, "per_seed": learned * (LOCKSTEP_MIN_SEEDS - 1),
                     "random": 2}


def test_ground_truths_are_built_once_per_run(monkeypatch) -> None:
    seen = []
    real_lockstep, real_simulate = lockstep.simulate_seeds, harness.simulate_run
    real_random = lockstep.simulate_random
    built = []
    real_make = harness.make_ground_truth

    def make(*args):
        built.append(args)
        return real_make(*args)

    def batched(network, catalog, gts, *args, **kwargs):
        seen.extend(map(id, gts))
        return real_lockstep(network, catalog, gts, *args, **kwargs)

    def single(network, catalog, gt, *args, **kwargs):
        seen.append(id(gt))
        return real_simulate(network, catalog, gt, *args, **kwargs)

    def random_policy(network, catalog, gts, *args, **kwargs):
        seen.extend(map(id, gts))
        return real_random(network, catalog, gts, *args, **kwargs)

    monkeypatch.setattr(harness, "make_ground_truth", make)
    monkeypatch.setattr(lockstep, "simulate_seeds", batched)
    monkeypatch.setattr(harness, "simulate_run", single)
    monkeypatch.setattr(lockstep, "simulate_random", random_policy)
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
    # learned: two lockstep groups of LOCKSTEP_MIN_SEEDS, then three seeds one
    # by one; random: calls of LOCKSTEP_MIN_SEEDS rows at most, and of one
    # seed's 20 slots at least
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES",
                        per_row * LOCKSTEP_MIN_SEEDS + per_row - 1)
    sizes = {"simulate_seeds": [], "simulate_random": []}

    def recorded(name):
        real = getattr(lockstep, name)

        def batched(network, catalog, gts, *args, **kwargs):
            sizes[name].append(len(gts))
            return real(network, catalog, gts, *args, **kwargs)
        return batched

    for name in sizes:
        monkeypatch.setattr(lockstep, name, recorded(name))
    assert_matches_per_seed(cfg, monkeypatch)
    learned = sizes["simulate_seeds"]
    assert learned[:2] == [LOCKSTEP_MIN_SEEDS] * 2 and set(learned) == {LOCKSTEP_MIN_SEEDS}
    assert set(sizes["simulate_random"]) == {1}
    sizes["simulate_random"].clear()
    short = apply_overrides(cfg, slots=2, policy="random")
    assert_matches_per_seed(short, monkeypatch)
    half = LOCKSTEP_MIN_SEEDS // 2
    assert sizes["simulate_random"][:5] == [half] * 4 + [len(cfg.seeds) - 4 * half]


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


@pytest.mark.parametrize("message", list(TAMPERS))
def test_batched_check_rejects_a_tampered_commit(monkeypatch, message: str) -> None:
    cfg = load_config(TAMPER_DOC)
    target = LOCKSTEP_MIN_SEEDS + 4         # slot 2, the fourth seed
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
    with pytest.raises(InvariantViolation, match=f"^seed {cfg.seeds[3]}, slot 2: .*{message}"):
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
            # the rows are seed-major: row 3 * 6 + 1 is the fourth seed's slot 2,
            # where chain 0 always fits
            tamper(rec, 3 * cfg.slots + 1)
            return rec

        monkeypatch.setattr(lockstep, "random_rows", tampered)
        with pytest.raises(InvariantViolation,
                           match=f"^seed {cfg.seeds[3]}, slot 2: .*{message}"):
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
