"""Seed-lockstep simulator: every seed of one policy, advanced slot by slot.

harness.run takes this path for a run of at least harness.LOCKSTEP_MIN_SEEDS
seeds and calls harness.simulate_run once per seed below that. simulate_run
is the definition: this module returns its series value for value, so a run
writes the same trace whichever path it takes.

Each stage of a slot except the selection kernel is a few numpy operations
over all S seeds at once: the learners are (S, F) and (S, I) arrays, and the
observations, the verification of the commits and the reward accounting work
on (S, F), (S, I) and (S, N) arrays. The kernel stays kernels.slot_decide,
once per seed on the policy's shared PlanGraph, and the random policy's
placement stays policy.random_placement, once per seed.

Exactness. Every float is computed by the expression learning.py and policy.py
evaluate, one operation at a time: numpy's sqrt, division, multiplication
and addition round correctly, as Python's do, and an int converts to float64
exactly as Python converts it. No 0/0 is computed: the updates divide only
the arms numpy's where= selects, and the estimates divide an unexplored arm by
2.0 and then discard it. A slot's realised reward is numpy's pairwise sum of a
C-contiguous row, the sum policy.realized_reward takes of its per-chain
array; the expected value adds each seed's terms in commit order, as
policy.expected_slot_value does.

The stage functions (estimates, decide_learned, decide_random, verify_slot,
slot_values, update) live at module level and are looked up as module globals
every slot, so a profiler can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from . import kernels
from .learning import chain_failure_rate
from .model import Catalog, EdgeNetwork
from .policy import (InvariantViolation, RewardWeights, SlotDecision, random_placement,
                     verify_decision)
from .workload import OBS_BLOCK_SLOTS, GroundTruth, sample_arrays


_PLAN_FIELDS = attrgetter("latency", "at_edge", "assignment")


@dataclass(eq=False)
class Layout:
    """A run's network and catalog as the index arrays the batched stages read.

    chain_flat concatenates the chains, chain f starting at chain_start[f];
    copies[f, i] counts VNF i's occurrences in chain f, and uses[i, f] is 1
    where chain f runs VNF i.
    """

    network: EdgeNetwork
    catalog: Catalog
    capacities: np.ndarray      # (N,) int64
    demand: np.ndarray          # (I,) int64
    chain_len: np.ndarray       # (F,) int64
    chain_start: np.ndarray     # (F,) int64
    chain_flat: np.ndarray      # (L,) int64
    copies: np.ndarray          # (F, I) int64
    uses: np.ndarray            # (I, F) int64

    @classmethod
    def of(cls, network: EdgeNetwork, catalog: Catalog) -> "Layout":
        chains = catalog.sfc_chain
        chain_len = np.array([len(chain) for chain in chains], dtype=np.int64)
        copies = np.zeros((catalog.n_sfcs, catalog.n_vnfs), dtype=np.int64)
        for f, chain in enumerate(chains):
            for i in chain:
                copies[f, i] += 1
        return cls(network=network, catalog=catalog,
                   capacities=np.array(network.capacities, dtype=np.int64),
                   demand=np.array(catalog.vnf_demand, dtype=np.int64),
                   chain_len=chain_len,
                   chain_start=np.concatenate(([0], np.cumsum(chain_len)[:-1])).astype(np.int64),
                   chain_flat=np.array([i for chain in chains for i in chain], dtype=np.int64),
                   copies=copies,
                   uses=(copies > 0).astype(np.int64).T.copy())


@dataclass(eq=False)
class Learners:
    """Both learners of every seed; row s holds seed s's arms.

    The fields mirror learning.PopularityLearner and learning.FailureLearner:
    selected and placements count, the totals sum the observations, and the
    means are total / count, updated only on the arms a slot deployed.
    """

    users: float
    bonus_scale: float
    bonus_sign: int
    selected: np.ndarray        # (S, F) int64
    request_total: np.ndarray   # (S, F) float64
    request_mean: np.ndarray    # (S, F) float64
    placements: np.ndarray      # (S, I) int64
    failure_total: np.ndarray   # (S, I) float64
    failure_mean: np.ndarray    # (S, I) float64

    @classmethod
    def fresh(cls, n_seeds: int, n_sfcs: int, n_vnfs: int, users: int,
              failure_bonus_scale: float | None, failure_bonus_sign: int) -> "Learners":
        if failure_bonus_scale is None:
            failure_bonus_scale = float(users)
        return cls(users=float(users), bonus_scale=float(failure_bonus_scale),
                   bonus_sign=int(failure_bonus_sign),
                   selected=np.zeros((n_seeds, n_sfcs), dtype=np.int64),
                   request_total=np.zeros((n_seeds, n_sfcs)),
                   request_mean=np.zeros((n_seeds, n_sfcs)),
                   placements=np.zeros((n_seeds, n_vnfs), dtype=np.int64),
                   failure_total=np.zeros((n_seeds, n_vnfs)),
                   failure_mean=np.zeros((n_seeds, n_vnfs)))


@dataclass(eq=False)
class Commits:
    """One slot's verified commits over all seeds.

    Record r, in seed order and within a seed in commit order, is seed
    seed[r]'s commit of chain sfc[r] at latency[r]. x[s, f] is seed s's backup
    vector, placed[s, i] its copies of VNF i, and residual[s] its capacity
    left after the commits.
    """

    seed: list[int]             # (R,)
    sfc: np.ndarray             # (R,) int64
    latency: np.ndarray         # (R,) float64
    x: np.ndarray               # (S, F) bool
    placed: np.ndarray          # (S, I) int64
    residual: np.ndarray        # (S, N) int64


def observations(gts: list[GroundTruth], n_slots: int):
    """Slots 0 .. n_slots-1 of every seed: per slot, (S, F) request counts and (S, I) flags.

    Each seed draws OBS_BLOCK_SLOTS slots per Philox call, as simulate_run does,
    straight into the block's (slots, S, F) and (slots, S, I) arrays.
    """
    n_seeds = len(gts)
    for t0 in range(0, n_slots, OBS_BLOCK_SLOTS):
        n = min(OBS_BLOCK_SLOTS, n_slots - t0)
        requests = np.empty((n, n_seeds, gts[0].n_sfcs), dtype=np.int64)
        failed = np.empty((n, n_seeds, gts[0].n_vnfs), dtype=np.uint8)
        for s, gt in enumerate(gts):
            requests[:, s], failed[:, s] = sample_arrays(gt, t0, t0 + n)
        yield from zip(requests, failed)


def estimates(learners: Learners, t: int) -> tuple[list, list]:
    """learning.popularity_estimate and failure_estimate of every seed, as row lists."""
    log_term = 3.0 * math.log(t)
    c = learners.selected
    # an unexplored arm divides by 2.0 instead of 0.0; np.where then discards it
    q = learners.request_mean + learners.users * np.sqrt(log_term / (2.0 * np.maximum(c, 1)))
    q = np.where(c > 0, q, math.inf)
    h = learners.placements
    with np.errstate(over="ignore"):    # a huge bonus scale overflows to inf, as in Python
        v = learners.failure_mean + learners.bonus_sign * (
            learners.bonus_scale * np.sqrt(log_term / (2.0 * np.maximum(h, 1))))
    v = np.where(v < 0.0, 0.0, np.where(v > 1.0, 1.0, v))
    v = np.where(h > 0, v, 0.0)
    return q.tolist(), v.tolist()


def decide_learned(graph: kernels.PlanGraph, q_rows: list, v_rows: list,
                   omega: float, mu: float) -> tuple[list, list]:
    """kernels.slot_decide once per seed: (deployed, residual) lists, one per seed."""
    decided = []
    residuals = []
    for q_est, v_est in zip(q_rows, v_rows):
        deployed: list = []
        residual: list = []
        # looked up on the module every call, so that a profiler can wrap it
        kernels.slot_decide(graph, q_est, v_est, omega, mu, deployed, residual)
        decided.append(deployed)
        residuals.append(residual)
    return decided, residuals


def uniform_rows(gts: list[GroundTruth], n_slots: int, draw):
    """Slots 1 .. n_slots of the random policy's uniforms: per slot, the (S, W) array.

    draw(seed, t0, t1) returns one seed's (t1 - t0, W) uniforms of slots
    t0 .. t1-1. Each seed draws OBS_BLOCK_SLOTS slots per call, straight into
    the block's (slots, S, W) array.
    """
    for t0 in range(1, n_slots + 1, OBS_BLOCK_SLOTS):
        t1 = min(t0 + OBS_BLOCK_SLOTS, n_slots + 1)
        out = None
        for s, gt in enumerate(gts):
            block = draw(gt.rng_seed, t0, t1)
            if out is None:
                out = np.empty((t1 - t0, len(gts), block.shape[1]))
            out[:, s] = block
        yield from out


def decide_random(network: EdgeNetwork, catalog: Catalog,
                  uniforms: np.ndarray) -> tuple[list, list]:
    """policy.random_placement once per seed, on its row of the slot's (S, W) uniforms."""
    decided = []
    residuals = []
    for u in uniforms.tolist():
        deployed, residual = random_placement(network, catalog, u)
        decided.append(deployed)
        residuals.append(residual)
    return decided, residuals


def _first_violation(layout: Layout, t: int, seeds: list[int], decided: list,
                     x: np.ndarray, placed: np.ndarray, residuals: list) -> InvariantViolation:
    """The error of the first seed whose decision verify_decision rejects, with the seed.

    Only called once the batched check has found a violation, so verify_decision
    words every message the per-seed path would raise.
    """
    for s, (deployed, residual) in enumerate(zip(decided, residuals)):
        decision = SlotDecision(t=t, deployed=deployed, x=x[s].astype(np.int64).tolist(),
                                placed_counts=placed[s].tolist(), residual_after=residual)
        try:
            verify_decision(layout.network, layout.catalog, decision)
        except InvariantViolation as exc:
            return InvariantViolation(f"seed {seeds[s]}, {exc}")
    return InvariantViolation(f"slot {t}: the batched check failed a slot that "
                              f"verify_decision passes for every seed")


def verify_slot(layout: Layout, t: int, seeds: list[int], decided: list,
                residuals: list) -> Commits:
    """Recount every seed's commits and check the eight conditions of verify_decision.

    No chain committed twice; no partial or cloud plan; no infinite latency;
    every server id in range; load within capacity; the residual equal to
    capacity minus load; x equal to the committed set; and the copies that
    feed the failure update equal to the per-position recount. A violation
    raises InvariantViolation for the first seed that has one, with
    verify_decision's message and the seed.
    """
    n_seeds = len(decided)
    n_sfcs = layout.catalog.n_sfcs
    n_vnfs = layout.catalog.n_vnfs
    n_servers = layout.capacities.shape[0]
    rec_seed = [s for s, deployed in enumerate(decided) for _ in deployed]
    pairs = [pair for deployed in decided for pair in deployed]
    rec_f, plans = zip(*pairs) if pairs else ((), ())
    latency, at_edge, assigned = zip(*map(_PLAN_FIELDS, plans)) if pairs else ((), (), ())
    seed_arr = np.array(rec_seed, dtype=np.int64)
    f_arr = np.array(rec_f, dtype=np.int64)
    n_assigned = np.fromiter(map(len, assigned), np.int64, len(assigned))
    servers = np.fromiter(chain.from_iterable(assigned), np.int64)

    # the bookkeeping the learners read: x from the records, copies from x's chains
    x = np.zeros((n_seeds, n_sfcs), dtype=bool)
    x[seed_arr, f_arr] = True
    commits = np.bincount(seed_arr * n_sfcs + f_arr,
                          minlength=n_seeds * n_sfcs).reshape(n_seeds, n_sfcs)
    placed = commits @ layout.copies

    # per record: committed once, a whole edge plan, finite latency, known servers
    ok = (all(at_edge) and not any(map(math.isinf, latency))
          and all(len(r) == n_servers for r in residuals))
    if ok and pairs:
        ok = (commits.max() <= 1 and servers.min() >= 0 and servers.max() < n_servers
              and not (n_assigned != layout.chain_len[f_arr]).any())
    if ok:
        # every plan is whole, so its positions run its chain's VNFs in order
        chains = layout.catalog.sfc_chain
        vnfs = np.fromiter(chain.from_iterable(map(chains.__getitem__, rec_f)), np.int64,
                           servers.shape[0])
        pos_seed = np.repeat(seed_arr, n_assigned)
        load = np.zeros(n_seeds * n_servers, dtype=np.int64)
        np.add.at(load, pos_seed * n_servers + servers, layout.demand[vnfs])
        load = load.reshape(n_seeds, n_servers)
        recount = np.bincount(pos_seed * n_vnfs + vnfs,
                              minlength=n_seeds * n_vnfs).reshape(n_seeds, n_vnfs)
        residual = np.fromiter(chain.from_iterable(residuals), np.int64,
                               n_seeds * n_servers).reshape(n_seeds, n_servers)
        # per seed: load within capacity, residual, x and copies as recounted
        ok = not ((load > layout.capacities).any()
                  or (residual != layout.capacities - load).any()
                  or (x != (commits > 0)).any()
                  or (placed != recount).any())
    if not ok:
        raise _first_violation(layout, t, seeds, decided, x, placed, residuals)
    return Commits(seed=rec_seed, sfc=f_arr, latency=np.array(latency, dtype=np.float64),
                   x=x, placed=placed, residual=residual)


def slot_values(layout: Layout, omega: float, mu: float, requests: np.ndarray,
                failed: np.ndarray, commits: Commits, value_true: np.ndarray,
                gate_true: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """policy.realized_reward's totals and policy.expected_slot_value of every seed.

    value_true[s, f] is omega times chain f's true popularity under seed s,
    gate_true[s, f] one minus its worst true failure rate.
    """
    n_seeds, n_sfcs = commits.x.shape
    seed = commits.seed
    latency = np.zeros((n_seeds, n_sfcs))
    latency[seed, commits.sfc] = commits.latency
    survived = commits.x & ((failed @ layout.uses) == 0)
    earned = np.where(survived, omega * requests - mu * latency, 0.0)
    realized = earned.sum(axis=1)       # numpy's pairwise sum of each row

    terms = ((value_true[seed, commits.sfc] - mu * commits.latency)
             * gate_true[seed, commits.sfc])
    expected = [0.0] * n_seeds
    for s, term in zip(seed, terms.tolist()):   # left to right, in commit order
        expected[s] += term
    return realized, expected


def update(learners: Learners, requests: np.ndarray, failed: np.ndarray, x: np.ndarray,
           placed: np.ndarray) -> None:
    """learning.popularity_update and failure_update of every seed, in place.

    x is the slot's (S, F) backup vector, placed its (S, I) copies per VNF.
    """
    learners.selected += x
    np.add(learners.request_total, requests, out=learners.request_total, where=x)
    np.divide(learners.request_total, learners.selected, out=learners.request_mean, where=x)
    hit = placed > 0
    learners.placements += placed
    np.add(learners.failure_total, failed, out=learners.failure_total, where=hit)
    np.divide(learners.failure_total, learners.placements, out=learners.failure_mean,
              where=hit)


def simulate_seeds(network: EdgeNetwork, catalog: Catalog, gts: list[GroundTruth],
                   weights: RewardWeights, slots: int, *, users: int,
                   failure_bonus_scale: float | None = None,
                   failure_bonus_sign: int = 1,
                   graph: kernels.PlanGraph | None = None,
                   uniforms=None) -> list[dict[str, list]]:
    """harness.simulate_run of every seed in gts, in lockstep; one series dict per seed.

    A learned policy passes its PlanGraph, whose mode picks rtsd or bandit;
    the random policy passes uniforms(seed, t0, t1), which draws one seed's
    uniforms of slots t0 .. t1-1 as a (t1 - t0, W) array
    (harness._policy_uniform_block).
    """
    if (graph is None) == (uniforms is None):
        raise ValueError("pass the plan graph of a learned policy or the random "
                         "policy's uniforms, not both or neither")
    n_seeds = len(gts)
    layout = Layout.of(network, catalog)
    seeds = [gt.rng_seed for gt in gts]
    omega, mu = weights.omega, weights.mu
    value_true = np.array([[omega * q for q in gt.popularity_list] for gt in gts])
    gate_true = np.array([[1.0 - chain_failure_rate(catalog, gt.failure_rate_list, f)
                           for f in range(catalog.n_sfcs)] for gt in gts])
    learners = None
    if graph is not None:
        learners = Learners.fresh(n_seeds, catalog.n_sfcs, catalog.n_vnfs, users,
                                  failure_bonus_scale, failure_bonus_sign)
    realized = np.empty((slots, n_seeds))
    expected = np.empty((slots, n_seeds))
    remaining = np.empty((slots, n_seeds), dtype=np.int64)
    deployed = np.empty((slots, n_seeds), dtype=np.int64)

    drawn = observations(gts, slots + 1)
    u_rows = None if uniforms is None else uniform_rows(gts, slots, uniforms)
    next(drawn)             # slot 0: simulate_run only snapshots it as estimates no slot reads
    for t, (requests, failed) in enumerate(drawn, start=1):
        if learners is not None:
            q_rows, v_rows = estimates(learners, t)
            decided, residuals = decide_learned(graph, q_rows, v_rows, omega, mu)
        else:
            decided, residuals = decide_random(network, catalog, next(u_rows))
        commits = verify_slot(layout, t, seeds, decided, residuals)
        realized[t - 1], expected[t - 1] = slot_values(layout, omega, mu, requests, failed,
                                                       commits, value_true, gate_true)
        if learners is not None:
            update(learners, requests, failed, commits.x, commits.placed)
        remaining[t - 1] = commits.residual.sum(axis=1)
        deployed[t - 1] = commits.x.sum(axis=1)
    return [{"realized": r, "expected": e, "remaining": m, "deployed": d}
            for r, e, m, d in zip(realized.T.tolist(), expected.T.tolist(),
                                  remaining.T.tolist(), deployed.T.tolist())]
