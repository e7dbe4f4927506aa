"""End-to-end acceptance checks for the shipped experiment.

Ten criteria, one test each, run against the bundled canonical config
(6 servers, 15 VNF types, 6 chains, 10 users, 500 slots, seeds 1..30).
Each test prints a one-line verdict with the measured numbers; run with
-rP (the repo default) or -s to see the lines for passing tests. The
heavy canonical run happens once per session and is shared.

Ordering claims are statistical (gap > 1 pooled standard error over the
seed sample); everything else is exact or at the stated tolerance.
"""

from __future__ import annotations

import hashlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sfcbackup import (Catalog, EdgeNetwork, apply_overrides, default_config_path, emit,
                       load_config, make_ground_truth, run)
from sfcbackup import lockstep
from sfcbackup.harness import PLACEMENT_MODES
from sfcbackup.kernels import GREEDY, PlanGraph
from sfcbackup.oracle import optimal_chain_latency
from sfcbackup.workload import policy_uniform_block

from reference import (estimates, fresh_learners, get_consumption, learner_row, slot_rows,
                       unpack_rows, update, verified_slot)


def report(name: str, ok: bool, details: str) -> str:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'} - {details}"
    print(line)
    return line


def pooled_se(stats_a: dict, stats_b: dict, n: int) -> float:
    return math.sqrt((stats_a["std"] ** 2 + stats_b["std"] ** 2) / n)


@pytest.fixture(scope="session")
def canonical():
    """The headline experiment: every policy, seeds 1..30, 500 slots."""
    cfg = load_config(default_config_path())
    t0 = time.perf_counter()
    result = run(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, result, elapsed


@pytest.fixture(scope="session")
def user_sweep(canonical):
    """Mean rtsd metrics for 5, 10, and 15 users; the 10-user point is shared."""
    cfg, result, _ = canonical
    out = {cfg.users: result.summary["policies"]["rtsd"]}
    for users in (5, 15):
        swept = apply_overrides(cfg, users=users, policy="rtsd")
        out[users] = run(swept).summary["policies"]["rtsd"]
    return out


@pytest.fixture(scope="session")
def capacity_sweep(canonical):
    """Mean rtsd metrics at capacity scales 0.5, 1.0, 1.5 (1.0 shared)."""
    cfg, result, _ = canonical
    out = {1.0: (result.summary["policies"]["rtsd"], result.summary["total_capacity"])}
    for scale in (0.5, 1.5):
        swept = apply_overrides(cfg, capacity_scale=scale, policy="rtsd")
        r = run(swept)
        out[scale] = (r.summary["policies"]["rtsd"], r.summary["total_capacity"])
    return out


def test_01_reward_ordering(canonical) -> None:
    cfg, result, elapsed = canonical
    n = len(cfg.seeds)
    assert n >= 30
    pol = result.summary["policies"]
    r = {p: pol[p]["time_avg_realized"] for p in ("rtsd", "bandit", "random")}
    gap_rb = r["rtsd"]["mean"] - r["bandit"]["mean"]
    gap_br = r["bandit"]["mean"] - r["random"]["mean"]
    se_rb = pooled_se(r["rtsd"], r["bandit"], n)
    se_br = pooled_se(r["bandit"], r["random"], n)
    ok = gap_rb > se_rb and gap_br > se_br and elapsed < 60.0
    line = report(
        "1 (reward ordering)", ok,
        f"time-avg realized reward rtsd {r['rtsd']['mean']:.3f} > bandit "
        f"{r['bandit']['mean']:.3f} > random {r['random']['mean']:.3f}; gaps "
        f"{gap_rb:.3f} (se {se_rb:.3f}) and {gap_br:.3f} (se {se_br:.3f}); "
        f"{n} seeds in {elapsed:.1f}s")
    assert ok, line


def test_02_resource_waste_ordering(canonical) -> None:
    cfg, result, _ = canonical
    n = len(cfg.seeds)
    pol = result.summary["policies"]
    r = {p: pol[p]["mean_remaining"] for p in ("rtsd", "bandit", "random")}
    gap_br = r["bandit"]["mean"] - r["rtsd"]["mean"]
    gap_rb = r["random"]["mean"] - r["bandit"]["mean"]
    se_br = pooled_se(r["rtsd"], r["bandit"], n)
    se_rb = pooled_se(r["bandit"], r["random"], n)
    ok = gap_br > se_br and gap_rb > se_rb
    line = report(
        "2 (resource waste ordering)", ok,
        f"mean remaining resource rtsd {r['rtsd']['mean']:.3f} <= bandit "
        f"{r['bandit']['mean']:.3f} <= random {r['random']['mean']:.3f}; gaps "
        f"{gap_br:.3f} (se {se_br:.3f}) and {gap_rb:.3f} (se {se_rb:.3f})")
    assert ok, line


def test_03_user_sweep(user_sweep) -> None:
    rewards = [user_sweep[k]["time_avg_realized"]["mean"] for k in (5, 10, 15)]
    deployed = [user_sweep[k]["mean_deployed"]["mean"] for k in (5, 10, 15)]
    spread = max(deployed) - min(deployed)
    ok = rewards[0] < rewards[1] < rewards[2] and spread < 1.0
    line = report(
        "3 (user sweep)", ok,
        f"rtsd reward over 5/10/15 users {rewards[0]:.3f} < {rewards[1]:.3f} "
        f"< {rewards[2]:.3f}; deployments {deployed[0]:.2f}/{deployed[1]:.2f}/"
        f"{deployed[2]:.2f} spread {spread:.3f} < 1")
    assert ok, line


def test_04_capacity_sweep(capacity_sweep) -> None:
    scales = (0.5, 1.0, 1.5)
    dep, rew, frac = [], [], []
    for s in scales:
        stats, total = capacity_sweep[s]
        dep.append(stats["mean_deployed"]["mean"])
        rew.append(stats["time_avg_realized"]["mean"])
        frac.append(stats["mean_remaining"]["mean"] / total)
    ok = (dep[0] <= dep[1] <= dep[2] and rew[0] <= rew[1] <= rew[2]
          and frac[0] >= frac[1] >= frac[2])
    line = report(
        "4 (capacity sweep)", ok,
        f"over scales 0.5/1.0/1.5: deployed {dep[0]:.2f}/{dep[1]:.2f}/{dep[2]:.2f} "
        f"nondecreasing, reward {rew[0]:.2f}/{rew[1]:.2f}/{rew[2]:.2f} nondecreasing, "
        f"remaining fraction {frac[0]:.3f}/{frac[1]:.3f}/{frac[2]:.3f} nonincreasing")
    assert ok, line


def test_05_per_slot_invariants(canonical) -> None:
    """Capacity safety and completeness coupling, re-derived from raw plans.

    Every slot of every experiment already passes lockstep.check, which holds
    it to the conditions reference.verify_decision checks one commit at a
    time (an InvariantViolation aborts the run), so the headline runs
    enforce this by construction. Here a replay of the first
    three seeds, slot by slot through verified_slot for the learned policies,
    recomputes both invariants from the committed assignments alone.
    """
    cfg, _, _ = canonical
    network = cfg.network
    catalog = cfg.catalog
    caps = np.asarray(network.capacities)
    demands = catalog.vnf_demand
    checked = 0
    layout = lockstep.Layout.of(network, catalog)
    for policy in cfg.policies:
        for seed in cfg.seeds[:3]:
            if policy == "random":
                # the random policy decides every slot of the seed in one call
                u = policy_uniform_block([seed], 1, cfg.slots + 1, layout.width)[:, 0]
                rec = lockstep.random_rows(layout, u)
                xs, placed = lockstep.check(layout, rec, lambda k: (seed, k + 1))
                decisions = [SimpleNamespace(deployed=deployed, residual_after=residual,
                                             x=x, placed_counts=copies)
                             for (deployed, residual), x, copies
                             in zip(unpack_rows(rec, cfg.slots), xs.astype(int).tolist(),
                                    placed.tolist())]
            else:
                gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                                       catalog.n_sfcs, seed)
                learners = lockstep.Learners.fresh(1, catalog.n_sfcs, catalog.n_vnfs, cfg.users,
                                                   cfg.failure_bonus_scale,
                                                   cfg.failure_bonus_sign)
                graph = PlanGraph(network, catalog, PLACEMENT_MODES[policy])
                decisions = [verified_slot(learners, t, requests, failed, cfg.weights, graph)
                             for t, (requests, failed)
                             in enumerate(slot_rows(gt, 1, cfg.slots + 1), start=1)]
            for d in decisions:
                load = np.zeros(network.n_servers, dtype=np.int64)
                placed = np.zeros(catalog.n_vnfs, dtype=np.int64)
                covered = set()
                for f, plan in d.deployed:
                    chain = catalog.sfc_chain[f]
                    assert len(plan.assignment) == len(chain) and math.isfinite(plan.latency)
                    for i, s in zip(chain, plan.assignment):
                        assert 0 <= s < network.n_servers
                        load[s] += demands[i]
                        placed[i] += 1
                    covered.add(f)
                # capacity safety: committed load never exceeds any server
                assert np.all(load <= caps)
                assert np.array_equal(d.residual_after, caps - load)
                # completeness coupling: backed up iff every occurrence placed
                for f in range(catalog.n_sfcs):
                    assert d.x[f] == (1 if f in covered else 0)
                assert np.array_equal(d.placed_counts, placed)
                checked += 1
    line = report(
        "5 (per slot invariants)", True,
        f"capacity safety and completeness coupling re-derived on {checked} "
        f"slots across {len(cfg.policies)} policies x 3 seeds (and enforced "
        f"in-loop on every run in this suite)")
    assert checked == len(cfg.policies) * 3 * cfg.slots, line


def _replay_and_compare(history, pop, fail, users: int, scale: float,
                        sign: int) -> float:
    """Recomputation of both learners' statistics from the history; returns max error.

    The recomputation is numpy, on array copies of the history and of the
    learners' lists.
    """
    n_sfcs = len(pop.selected)
    n_vnfs = len(fail.placements)
    c = np.zeros(n_sfcs, dtype=np.int64)
    qsum = np.zeros(n_sfcs, dtype=np.float64)
    h = np.zeros(n_vnfs, dtype=np.int64)
    vsum = np.zeros(n_vnfs, dtype=np.float64)
    for requests, failed, x, placed in history:
        sel = np.array(x, dtype=bool)
        c[sel] += 1
        qsum[sel] += np.array(requests)[sel]
        placed = np.array(placed, dtype=np.int64)
        m = placed > 0
        h[m] += placed[m]
        vsum[m] += np.array(failed)[m]
    qbar = np.where(c > 0, qsum / np.maximum(c, 1), 0.0)
    vbar = np.where(h > 0, vsum / np.maximum(h, 1), 0.0)
    err = max(
        float(np.max(np.abs(np.array(pop.selected) - c), initial=0.0)),
        float(np.max(np.abs(np.array(pop.request_total) - qsum), initial=0.0)),
        float(np.max(np.abs(np.array(pop.request_mean) - qbar), initial=0.0)),
        float(np.max(np.abs(np.array(fail.placements) - h), initial=0.0)),
        float(np.max(np.abs(np.array(fail.failure_total) - vsum), initial=0.0)),
        float(np.max(np.abs(np.array(fail.failure_mean) - vbar), initial=0.0)),
    )
    # estimate formulas evaluated directly against the per-pair definitions
    for t in (1, 2, 37, 1000):
        q_est, v_est = map(np.array, estimates((pop, fail), t))
        q_direct = np.full(n_sfcs, math.inf)
        mask = c > 0
        q_direct[mask] = qbar[mask] + users * np.sqrt(
            3.0 * math.log(t) / (2.0 * c[mask]))
        v_direct = np.zeros(n_vnfs)
        vm = h > 0
        v_direct[vm] = np.clip(
            vbar[vm] + sign * scale * np.sqrt(3.0 * math.log(t) / (2.0 * h[vm])),
            0.0, 1.0)
        assert np.array_equal(np.isinf(q_est), np.isinf(q_direct))
        both = ~np.isinf(q_est)
        err = max(err, float(np.max(np.abs(q_est[both] - q_direct[both]), initial=0.0)))
        err = max(err, float(np.max(np.abs(v_est - v_direct), initial=0.0)))
    return err


def test_06_learner_replay_exactness() -> None:
    cfg = load_config(default_config_path())
    slots = 1000
    worst = 0.0

    # trace A: a live rtsd trajectory
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                           cfg.catalog.n_sfcs, rng_seed=424242)
    observations = slot_rows(gt, 1, slots + 1)
    n_sfcs, n_vnfs = cfg.catalog.n_sfcs, cfg.catalog.n_vnfs
    learners = lockstep.Learners.fresh(1, n_sfcs, n_vnfs, cfg.users, cfg.failure_bonus_scale,
                                       cfg.failure_bonus_sign)
    graph = PlanGraph(cfg.network, cfg.catalog, GREEDY)
    history = []
    for t, (requests, failed) in enumerate(observations, start=1):
        d = verified_slot(learners, t, requests, failed, cfg.weights, graph)
        history.append((requests, failed, d.x.copy(), d.placed_counts.copy()))
    pop, fail = learner_row(learners, 0)
    worst = max(worst, _replay_and_compare(history, pop, fail, cfg.users,
                                           fail.bonus_scale, fail.bonus_sign))

    # trace B: synthetic deployment vectors decoupled from any policy
    rng = np.random.default_rng(6)
    pop, fail = fresh_learners(n_sfcs, n_vnfs, cfg.users,
                               failure_bonus_scale=cfg.failure_bonus_scale,
                               failure_bonus_sign=cfg.failure_bonus_sign)
    history = []
    for requests, failed in observations:
        x = (rng.random(cfg.catalog.n_sfcs) < 0.5).astype(np.uint8)
        placed = rng.integers(0, 4, size=cfg.catalog.n_vnfs)
        update((pop, fail), requests, failed, x.tolist(), placed.tolist())
        history.append((requests, failed, x, placed.astype(np.int64)))
    worst = max(worst, _replay_and_compare(history, pop, fail, cfg.users,
                                           fail.bonus_scale, fail.bonus_sign))

    ok = worst <= 1e-12
    line = report(
        "6 (learner replay exactness)", ok,
        f"two {slots}-slot traces replayed offline; worst deviation across "
        f"counts, means, and estimate formulas {worst:.2e} <= 1e-12")
    assert ok, line


def test_07_learner_consistency() -> None:
    users, p, v, slots, n_seeds = 5, 0.4, 0.3, 10_000, 100
    q_true = users * p
    tol_q = 3.0 * math.sqrt(users * p * (1.0 - p) / slots)
    tol_v = 3.0 * math.sqrt(v * (1.0 - v) / slots)
    always = [1]
    one_copy = [1]
    ok_q = ok_v = 0
    for seed in range(n_seeds):
        gt = make_ground_truth(p, [v], users=users, n_sfcs=1, rng_seed=seed)
        pop, fail = fresh_learners(1, 1, users)
        for requests, failed in slot_rows(gt, 1, slots + 1):
            update((pop, fail), requests, failed, always, one_copy)
        ok_q += abs(float(pop.request_mean[0]) - q_true) < tol_q
        ok_v += abs(float(fail.failure_mean[0]) - v) < tol_v
    ok = ok_q >= 95 and ok_v >= 95
    line = report(
        "7 (learner consistency)", ok,
        f"always-deploy single chain, T={slots}: popularity mean within "
        f"{tol_q:.4f} of {q_true} in {ok_q}/100 seeds, failure mean within "
        f"{tol_v:.4f} of {v} in {ok_v}/100 seeds (need >= 95)")
    assert ok, line


def test_08_greedy_vs_exhaustive_latency() -> None:
    rng = np.random.default_rng(8)
    gaps = []
    colocated = 0
    for trial in range(200):
        n = int(rng.integers(1, 5))
        caps = rng.integers(3, 13, size=n)
        links = [(u, w, round(float(rng.uniform(0.2, 2.0)), 3))
                 for u in range(n) for w in range(u + 1, n)
                 if rng.random() < 0.7]
        network = EdgeNetwork(caps, links)
        n_vnfs = int(rng.integers(1, 6))
        demands = rng.integers(1, 7, size=n_vnfs)
        chain = rng.integers(0, n_vnfs, size=int(rng.integers(1, 6)))
        catalog = Catalog(demands.tolist(), [chain.tolist()])
        if trial % 2 == 0:
            residual = caps.astype(np.int64)
        else:
            residual = rng.integers(0, caps + 1).astype(np.int64)
        plan = get_consumption(network, catalog, residual, 0)
        glat = plan.latency
        olat = optimal_chain_latency(network, catalog, residual, 0)
        assert glat >= olat - 1e-12
        total = int(demands[chain].sum())
        if total <= int(residual.max()):
            colocated += 1
            assert glat == 0.0 and olat == 0.0
        if math.isfinite(glat):
            gaps.append(glat - olat)
    mean_gap = float(np.mean(gaps))
    line = report(
        "8 (greedy vs exhaustive placement)", True,
        f"200 random instances (<=4 servers, chains <=5): greedy latency never "
        f"below the exhaustive optimum, co-location equality on {colocated} "
        f"single-server fits, mean optimality gap {mean_gap:.4f} over "
        f"{len(gaps)} feasible cases")
    assert gaps and colocated > 0, line


def test_09_regret_nonnegative() -> None:
    instances = [
        {
            "network": {"capacities": [10, 8], "links": [[0, 1, 0.5]]},
            "catalog": {"vnf_demand": [4, 3, 2],
                        "sfc_chain": [[0, 1], [2, 2], [1]]},
            "ground_truth": {"request_prob": [0.8, 0.5, 0.3],
                             "failure_mean": [0.05, 0.1, 0.02]},
            "users": 5,
        },
        {
            "network": {"capacities": [10, 8, 6],
                        "links": [[0, 1, 0.4], [1, 2, 0.7], [0, 2, 1.1]]},
            "catalog": {"vnf_demand": [3, 4, 2, 5],
                        "sfc_chain": [[0, 1], [2, 3, 2], [1, 1]]},
            "ground_truth": {"request_prob": [0.7, 0.5, 0.4],
                             "failure_mean": [0.05, 0.1, 0.02, 0.2]},
            "users": 4,
        },
    ]
    worst = math.inf
    n_rows = 0
    for doc in instances:
        doc.update(slots=50, seeds="1..3", policies="all", regret=True,
                   learner={"failure_bonus_scale": 1.0, "failure_bonus_sign": -1})
        result = run(load_config(doc))
        regret = result.trace["regret"]
        assert None not in regret
        worst = min(worst, *regret)
        n_rows += len(regret)
    ok = worst >= -1e-9
    line = report(
        "9 (regret nonnegative)", ok,
        f"oracle value minus expected policy value >= 0 on all {n_rows} slots "
        f"(2 instances x 3 policies x 3 seeds x 50 slots); minimum {worst:.3e}")
    assert ok, line


def test_10_trace_byte_determinism(canonical, tmp_path) -> None:
    cfg, result, _ = canonical
    first = emit(result, tmp_path / "a", fmt="csv")[0]
    second = emit(run(cfg), tmp_path / "b", fmt="csv")[0]
    blob_a = first.read_bytes()
    blob_b = second.read_bytes()
    ok = blob_a == blob_b
    digest = hashlib.sha256(blob_a).hexdigest()[:16]
    line = report(
        "10 (trace determinism)", ok,
        f"two full reruns of the canonical experiment emit byte-identical "
        f"trace.csv ({len(blob_a)} bytes, sha256 {digest})")
    assert ok, line
