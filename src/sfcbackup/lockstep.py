"""The batched stages of harness.simulate_run: many seeds, or many slots, per numpy operation.

harness.simulate_run runs every policy through one loop over chunks of
(slot, seed) rows, and these are its stages. The learned policies keep one
of two learner states. From harness.LOCKSTEP_MIN_SEEDS seeds on it is
Learners, whose (S, F) and (S, I) arrays estimates reads and update
advances with a few numpy operations per slot for all S seeds, while
decide_learned runs the selection kernel (kernels.slot_decide) once per
seed; below that it is one learning.py learner pair per seed. The random
policy keeps no state across slots, so random_rows decides a whole chunk's
rows at once. Every chunk's commits then go through check, which holds them
to the eight conditions of policy.verify_decision, and slot_values, which
values them.

Exactness. Every float is computed by the expression learning.py evaluates,
one operation at a time: numpy's sqrt, division, multiplication and
addition round correctly, as Python's do, and an int converts to float64
exactly as Python converts it. No 0/0 is computed: the updates divide only
the arms numpy's where= selects, and the estimates divide an unexplored arm by
2.0 and then discard it. A slot's realised reward is numpy's pairwise sum of
its C-contiguous row of per-chain payoffs, whatever rows share the array,
and its expected value adds the row's terms left to right in commit order,
so a slot's values do not depend on the rows accounted with it.

The stage functions (estimates, decide_learned, records_of, random_rows,
check, slot_values, update) live at module level and are looked up as module
globals on every call, so a profiler can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from . import kernels
from .learning import chain_failure_rate
from .model import Catalog, EdgeNetwork, PlacementPlan
from .policy import InvariantViolation, RewardWeights, SlotDecision, verify_decision
from .workload import GroundTruth, true_popularity


_PLAN_FIELDS = attrgetter("latency", "assignment")

# The per-slot series of a run, the keys of slot_values' result.
SERIES = ("realized", "expected", "remaining", "deployed")


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
                   chain_start=(np.cumsum(chain_len) - chain_len).astype(np.int64),
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
class Records:
    """The commits of R rows, each one (seed, slot), as flat arrays.

    Record r commits chain sfc[r] in row row[r], in commit order within the
    row, at latency[r], on the next positions[r] entries of servers.
    residual[k] is the capacity row k says is left.
    """

    row: np.ndarray             # (C,) int64
    sfc: np.ndarray             # (C,) int64
    latency: np.ndarray         # (C,) float64
    positions: np.ndarray       # (C,) int64
    servers: np.ndarray         # (sum of positions,) int64
    residual: np.ndarray        # (R, N) int64


def true_values(catalog: Catalog, gts: list[GroundTruth],
                weights: RewardWeights) -> tuple[np.ndarray, np.ndarray]:
    """slot_values' value_true and gate_true, one row per seed in gts."""
    value_true = weights.omega * np.array([true_popularity(gt) for gt in gts])
    gate_true = np.array([[1.0 - chain_failure_rate(catalog, gt.failure_mean, f)
                           for f in range(catalog.n_sfcs)] for gt in gts])
    return value_true, gate_true


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
                   omega: float, mu: float, decided: list, residuals: list) -> None:
    """kernels.slot_decide once per seed, appending its deployed and residual lists."""
    for q_est, v_est in zip(q_rows, v_rows):
        deployed: list = []
        residual: list = []
        # looked up on the module every call, so that a profiler can wrap it
        kernels.slot_decide(graph, q_est, v_est, omega, mu, deployed, residual)
        decided.append(deployed)
        residuals.append(residual)


def random_rows(layout: Layout, u: np.ndarray) -> Records:
    """The random policy's commits in every row of u, an (R, W) array of slot uniforms.

    Each row is one slot on a fresh residual, its uniforms in [0, 1) laid out
    by Catalog.uniform_layout as (W, starts). Chains are attempted once each,
    in ascending u[f], ties by id. Occurrence j of chain f goes to the server
    at index int(u[starts[f] + j] * count) among the count servers, in id
    order, whose residual, less what the chain's earlier occurrences took,
    holds the VNF's demand; the hops' link latencies add up in position
    order from 0.0. A chain commits only if every occurrence found room and
    its latency is finite. This is the law of drawing each next chain
    uniformly among those left and placing each occurrence on the first
    server with room in a fresh uniform permutation of the servers.

    The rows advance together, one step per chain rank and chain position.
    """
    n_rows = u.shape[0]
    n_sfcs = layout.catalog.n_sfcs
    lat = layout.network.latency_matrix
    chain_len, chain_start, chain_flat = layout.chain_len, layout.chain_start, layout.chain_flat
    longest = int(chain_len.max(initial=0))
    last = max(chain_flat.shape[0] - 1, 0)
    rows = np.arange(n_rows)
    order = np.argsort(u[:, :n_sfcs], axis=1, kind="stable")
    lengths = chain_len[order]                              # by rank
    residual = np.repeat(layout.capacities[None, :], n_rows, axis=0)
    committed = np.zeros((n_rows, n_sfcs), dtype=bool)     # by rank
    latency = np.zeros((n_rows, n_sfcs))                    # by rank
    spots = np.zeros((n_rows, n_sfcs, longest), dtype=np.int64)    # by rank and position
    for k in range(n_sfcs):
        length = lengths[:, k]
        start = chain_start[order[:, k]]
        room = residual.copy()
        fitting = length > 0
        lat_k = np.zeros(n_rows)
        for j in range(longest):
            active = fitting & (j < length)
            pos = np.minimum(start + j, last)     # clamped where the chain is shorter
            need = layout.demand[chain_flat[pos]]
            count_to = np.cumsum(room >= need[:, None], axis=1)
            count = count_to[:, -1]
            idx = (u[rows, n_sfcs + pos] * count).astype(np.int64)
            spot = np.argmax(count_to > idx[:, None], axis=1)
            took = active & (count > 0)
            fitting &= took | ~active
            room[rows, spot] -= np.where(took, need, 0)
            if j:
                lat_k = np.where(took, lat_k + lat[spots[:, k, j - 1], spot], lat_k)
            spots[:, k, j] = spot
        fits = fitting & (lat_k < math.inf)
        residual = np.where(fits[:, None], room, residual)
        committed[:, k] = fits
        latency[:, k] = lat_k

    rec_row, rec_rank = np.nonzero(committed)
    positions = lengths[rec_row, rec_rank]
    # row-major: each row's commits in rank order, each commit's servers in chain order
    taken = committed[:, :, None] & (np.arange(longest) < lengths[:, :, None])
    return Records(row=rec_row, sfc=order[rec_row, rec_rank], latency=latency[rec_row, rec_rank],
                   positions=positions, servers=spots[taken], residual=residual)


def check(layout: Layout, rec: Records, label) -> tuple[np.ndarray, np.ndarray]:
    """Recount every row's commits and check the eight conditions of verify_decision.

    No chain committed twice; no partial plan; no infinite latency;
    every server id in range; load within capacity; the residual equal to
    capacity minus load; x equal to the committed set; and the copies that
    feed the failure update equal to the per-position recount. label(k) is
    row k's (seed, slot). Returns the (R, F) backup vectors x and the (R, I)
    copies per VNF. A violation raises InvariantViolation for the first row
    that has one, with verify_decision's message and the seed.
    """
    n_rows, n_servers = rec.residual.shape
    n_sfcs = layout.catalog.n_sfcs
    n_vnfs = layout.catalog.n_vnfs
    row, sfc = rec.row, rec.sfc

    # the bookkeeping the learners read: x from the records, copies from x's chains
    x = np.zeros((n_rows, n_sfcs), dtype=bool)
    x[row, sfc] = True
    commits = np.bincount(row * n_sfcs + sfc, minlength=n_rows * n_sfcs).reshape(n_rows, n_sfcs)
    placed = commits @ layout.copies

    # per record: a whole plan at finite latency on known servers
    pos_rec = np.repeat(np.arange(sfc.shape[0]), rec.positions)
    known = rec.servers % n_servers      # in range, and equal to the id where it was
    whole = ((rec.positions == layout.chain_len[sfc]) & ~np.isinf(rec.latency)
             & (np.bincount(pos_rec[known != rec.servers], minlength=sfc.shape[0]) == 0))
    # position p of a whole plan runs VNF chain_flat[p + shift]; known and the
    # clamp keep the positions of the other plans, whose rows fail anyway, in range
    shift = layout.chain_start[sfc] - (np.cumsum(rec.positions) - rec.positions)
    vnfs = layout.chain_flat[np.minimum(np.arange(pos_rec.shape[0]) + shift[pos_rec],
                                        max(layout.chain_flat.shape[0] - 1, 0))]
    pos_row = row[pos_rec]
    load = np.zeros(n_rows * n_servers, dtype=np.int64)
    np.add.at(load, pos_row * n_servers + known, layout.demand[vnfs])
    left = layout.capacities - load.reshape(n_rows, n_servers)
    recount = np.bincount(pos_row * n_vnfs + vnfs,
                          minlength=n_rows * n_vnfs).reshape(n_rows, n_vnfs)

    # per row: load within capacity, and residual, x and copies as recounted
    bad = ((left < 0) | (rec.residual != left)).any(axis=1)
    bad |= (commits > 1).any(axis=1) | (x != (commits > 0)).any(axis=1)
    bad |= (placed != recount).any(axis=1)
    bad[row[~whole]] = True
    if bad.any():
        raise _violation(layout, rec, x, placed, int(bad.argmax()), label)
    return x, placed


def _violation(layout: Layout, rec: Records, x: np.ndarray, placed: np.ndarray,
               k: int, label) -> InvariantViolation:
    """Row k's error as verify_decision words it, with the row's seed in front."""
    seed, t = label(k)
    ends = np.cumsum(rec.positions).tolist()
    deployed = []
    for r in np.flatnonzero(rec.row == k).tolist():
        f = int(rec.sfc[r])
        assignment = tuple(rec.servers[ends[r] - int(rec.positions[r]):ends[r]].tolist())
        deployed.append((f, PlacementPlan(sfc=f, assignment=assignment,
                                          latency=float(rec.latency[r]))))
    decision = SlotDecision(t=t, deployed=deployed, x=x[k].astype(np.int64).tolist(),
                            placed_counts=placed[k].tolist(),
                            residual_after=rec.residual[k].tolist())
    try:
        verify_decision(layout.network, layout.catalog, decision)
    except InvariantViolation as exc:
        return InvariantViolation(f"seed {seed}, {exc}")
    return InvariantViolation(f"seed {seed}, slot {t}: the batched check failed a "
                              f"decision that verify_decision passes")


def records_of(decided: list, residuals: list, n_servers: int) -> Records:
    """Decisions as Records, one row each.

    decided[k] lists row k's (sfc, PlacementPlan) commits and residuals[k] its
    residual list. A residual of the wrong length reads as -1 on every server,
    which no load within capacity leaves.
    """
    pairs = [pair for deployed in decided for pair in deployed]
    sfcs, plans = zip(*pairs) if pairs else ((), ())
    latency, assigned = zip(*map(_PLAN_FIELDS, plans)) if pairs else ((), ())
    residual = np.fromiter(chain.from_iterable(r if len(r) == n_servers else [-1] * n_servers
                                               for r in residuals),
                           np.int64, len(residuals) * n_servers).reshape(-1, n_servers)
    return Records(row=np.array([s for s, deployed in enumerate(decided) for _ in deployed],
                                dtype=np.int64),
                   sfc=np.array(sfcs, dtype=np.int64),
                   latency=np.array(latency, dtype=np.float64),
                   positions=np.fromiter(map(len, assigned), np.int64, len(assigned)),
                   servers=np.fromiter(chain.from_iterable(assigned), np.int64),
                   residual=residual)


def slot_values(layout: Layout, omega: float, mu: float, requests: np.ndarray,
                failed: np.ndarray, rec: Records, value_true: np.ndarray,
                gate_true: np.ndarray) -> dict[str, list]:
    """Every row's series entries: realized and expected reward, remaining resource, deployed.

    rec holds the rows' verified commits, and requests and failed the rows'
    observations. A committed chain earns omega times its requests less mu
    times its latency, and nothing if any of its VNFs failed; copies of a VNF
    share one failure flag. Its expected value is value_true[k, f] (omega
    times chain f's true popularity in row k) less mu times the latency,
    times gate_true[k, f] (one minus its worst true failure rate).
    """
    n_rows = rec.residual.shape[0]
    row, sfc = rec.row, rec.sfc
    survived = ((failed @ layout.uses) == 0)[row, sfc]
    earned = np.zeros((n_rows, layout.catalog.n_sfcs))
    earned[row, sfc] = np.where(survived, omega * requests[row, sfc] - mu * rec.latency, 0.0)
    realized = earned.sum(axis=1)       # numpy's pairwise sum of each row

    terms = (value_true[row, sfc] - mu * rec.latency) * gate_true[row, sfc]
    expected = [0.0] * n_rows
    for k, term in zip(row.tolist(), terms.tolist()):   # left to right, in commit order
        expected[k] += term
    return {"realized": realized.tolist(), "expected": expected,
            "remaining": rec.residual.sum(axis=1).tolist(),
            "deployed": np.bincount(row, minlength=n_rows).tolist()}


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
