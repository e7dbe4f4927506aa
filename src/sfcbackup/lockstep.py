"""The batched stages of harness.simulate_run: many seeds, or many slots, per numpy operation.

harness.simulate_run runs every policy through one loop over chunks of
(slot, seed) rows, and these are its stages. The learned policies keep one
of two learner states. From harness.LOCKSTEP_MIN_SEEDS seeds on it is
Learners, and each slot runs, for all S seeds at once:

- estimates: the (S, F) and (S, I) optimistic estimates, a few numpy
  operations;
- decide_learned: selection_rows builds every seed's selection inputs
  (kernels.selection_inputs) with about ten numpy operations, then the
  selection scan (kernels.slot_decide) runs once per seed on its row;
- update: the learners learn from the slot's observation and commits.

Below that seed count the learner state is one learning.py pair per seed,
and policy.learned_slot runs each (slot, seed). The random policy keeps no
state across slots, so random_rows decides a whole chunk's rows at once.
gather turns a learned chunk's edge ids into Records. Every chunk's Records
then go through check, which holds them, and the backup vectors and VNF
copies the learners were updated with, to the eight conditions of a sound
slot decision, and slot_values, which values them.

Exactness. Every float is computed by the expression learning.py evaluates,
one operation at a time: numpy's sqrt, division, multiplication and
addition round correctly, as Python's do, and an int converts to float64
exactly as Python converts it. No 0/0 is computed: the updates divide only
the arms numpy's where= selects, and the estimates divide an unexplored arm by
2.0 and then discard it. The selection inputs take the same products and
differences as kernels.selection_inputs, and a maximum is exact, so each
seed's row equals that seed's lists. A slot's realised reward is numpy's
pairwise sum of its C-contiguous row of per-chain payoffs, whatever rows
share the array, and its expected value adds the row's terms left to right
in commit order, so a slot's values do not depend on the rows accounted with
it.

The stage functions (estimates, selection_rows, decide_learned, gather,
random_rows, check, slot_values, update) live at module level and are looked
up as module globals on every call, so a profiler can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import kernels
from .learning import chain_failure_rate
from .model import Catalog, EdgeNetwork
from .policy import InvariantViolation, RewardWeights
from .workload import GroundTruth, true_popularity

# The per-slot series of a run, the keys of slot_values' result.
SERIES = ("realized", "expected", "remaining", "deployed")


@dataclass(eq=False)
class Layout:
    """A run's network and catalog as the index arrays the batched stages read.

    chain_flat concatenates the chains, chain f starting at chain_start[f];
    copies[f, i] counts VNF i's occurrences in chain f, and uses[i, f] is 1
    where chain f runs VNF i. width is W, the uniforms one random-policy slot
    reads: one per chain, then one per chain position.
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
    width: int

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
                   uses=(copies > 0).astype(np.int64).T.copy(),
                   width=catalog.n_sfcs + int(chain_len.sum()))


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


def estimates(learners: Learners, t: int) -> tuple[np.ndarray, np.ndarray]:
    """learning.popularity_estimate and failure_estimate of every seed, as two arrays.

    q is (S, F) and v is (S, I); row s holds seed s's estimates.
    """
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
    return q, v


def selection_rows(layout: Layout, q: np.ndarray, v: np.ndarray,
                   omega: float) -> tuple[list, list, list, list]:
    """kernels.selection_inputs of every seed: value, gates, bounds and ranked, one row per seed.

    q and v are estimates' (S, F) and (S, I) arrays. Row s of each result is
    the list selection_inputs builds from q[s] and v[s], value for value: the
    same IEEE operations, the worst estimate of a chain taken by a maximum
    over its VNFs and floored at 0.0 as the loop starts from 0.0, and the
    chains ranked by a stable sort, which keeps equal bounds in id order.
    Every chain must run at least one VNF.
    """
    value = omega * q
    gates = 1.0 - np.maximum(np.maximum.reduceat(v[:, layout.chain_flat], layout.chain_start,
                                                 axis=1), 0.0)
    with np.errstate(invalid="ignore"):     # inf * 0.0 is nan, as in Python
        bounds = value * gates
    eligible = (gates > 0.0) & (bounds > 0.0)
    order = np.argsort(np.where(eligible, -bounds, math.inf), axis=1, kind="stable")
    ranked = [row[:n] for row, n in zip(order.tolist(), eligible.sum(axis=1).tolist())]
    return value.tolist(), gates.tolist(), bounds.tolist(), ranked


def decide_learned(graph: kernels.PlanGraph, layout: Layout, q: np.ndarray, v: np.ndarray,
                   omega: float, mu: float, ids: list, counts: list,
                   residuals: list) -> np.ndarray:
    """One slot of every seed: selection_rows, then kernels.slot_decide per seed.

    Appends to ids, counts and residuals; returns the (S, F) count of each
    chain's commits.
    """
    first = len(ids)
    for value, gates, bounds, ranked in zip(*selection_rows(layout, q, v, omega)):
        # looked up on the module every call, so that a profiler can wrap it
        counts.append(kernels.slot_decide(graph, value, gates, bounds, ranked, mu, ids,
                                          residuals))
    n_seeds, n_sfcs = q.shape
    row = np.repeat(np.arange(n_seeds), counts[-n_seeds:])
    sfc = np.fromiter(map(graph.edge_sfc.__getitem__, ids[first:]), np.int64, len(ids) - first)
    return np.bincount(row * n_sfcs + sfc, minlength=n_seeds * n_sfcs).reshape(n_seeds, n_sfcs)


def gather(graph: kernels.PlanGraph, ids: list, counts: list, residuals: list) -> Records:
    """A chunk's learned decisions as Records, read from the graph's edge tables by id.

    Row k committed the next counts[k] ids and left residuals[k]. The graph is
    then trimmed, so an id past its stored edges lasts one chunk.
    """
    ids = np.array(ids, dtype=np.int64)
    lengths = np.fromiter(map(len, graph.edge_servers), np.int64, len(graph.edge_servers))
    positions = lengths[ids]
    # record r's servers start at its edge's offset in flat, and at shift[r] less in servers
    shift = (np.cumsum(lengths) - lengths)[ids] - (np.cumsum(positions) - positions)
    flat = np.fromiter(chain.from_iterable(graph.edge_servers), np.int64)
    rec = Records(row=np.repeat(np.arange(len(counts)), counts),
                  sfc=np.array(graph.edge_sfc, dtype=np.int64)[ids],
                  latency=np.array(graph.edge_latency, dtype=np.float64)[ids],
                  positions=positions,
                  servers=flat[np.repeat(shift, positions) + np.arange(positions.sum())],
                  residual=np.fromiter(chain.from_iterable(residuals),
                                       np.int64).reshape(len(residuals), -1))
    graph.trim()
    return rec


def random_rows(layout: Layout, u: np.ndarray) -> Records:
    """The random policy's commits in every row of u, an (R, W) array of slot uniforms.

    Each row is one slot on a fresh residual, its W = layout.width uniforms
    in [0, 1): one per chain, then one per chain position. Chains are
    attempted once each, in ascending u[f], ties by id. Occurrence j of chain
    f goes to the server at index int(u[n_sfcs + chain_start[f] + j] * count)
    among the count servers, in id order, whose residual, less what the
    chain's earlier occurrences took, holds the VNF's demand; the hops' link
    latencies add up in position order from 0.0. A chain commits only if
    every occurrence found room and its latency is finite. This is the law of
    drawing each next chain uniformly among those left and placing each
    occurrence on the first server with room in a fresh uniform permutation
    of the servers.

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


def check(layout: Layout, rec: Records, label, x: np.ndarray | None = None,
          placed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Recount every row's commits and hold them to the eight conditions of a sound decision.

    No chain committed twice; no partial plan; no infinite latency; every
    server id in range; load within capacity; the residual equal to capacity
    minus load; the backup vector x equal to the committed set; and the
    copies per VNF that feed the failure update equal to the per-position
    recount. x and placed are the (R, F) backup vectors and (R, I) copies the
    learners were updated with; None, for the random policy, which keeps no
    learners, takes them from rec. label(k) is row k's (seed, slot). Returns
    x and placed. A violation raises InvariantViolation for the first row
    that has one, worded by _fault.
    """
    n_rows, n_servers = rec.residual.shape
    n_sfcs = layout.catalog.n_sfcs
    n_vnfs = layout.catalog.n_vnfs
    row, sfc = rec.row, rec.sfc

    counted = np.bincount(row * n_sfcs + sfc, minlength=n_rows * n_sfcs).reshape(n_rows, n_sfcs)
    if x is None:
        x, placed = counted > 0, counted @ layout.copies

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
    bad |= (counted > 1).any(axis=1) | (x != (counted > 0)).any(axis=1)
    bad |= (placed != recount).any(axis=1)
    bad[row[~whole]] = True
    if bad.any():
        k = int(bad.argmax())
        # the row's totals count only once each of its commits is whole
        totals = (((left[k] < 0).any(), "server load exceeds capacity"),
                  ((rec.residual[k] != left[k]).any(), "residual bookkeeping mismatch"),
                  ((x[k] != (counted[k] > 0)).any(), "backup vector out of sync with plans"),
                  ((placed[k] != recount[k]).any(), "placement counts out of sync with plans"))
        fault = _fault(layout, rec, k) or next(text for broken, text in totals if broken)
        seed, t = label(k)
        raise InvariantViolation(f"seed {seed}, slot {t}: {fault}")
    return x, placed


def _fault(layout: Layout, rec: Records, k: int) -> str | None:
    """The first of row k's commits, in commit order, that breaks a condition, worded.

    A commit fails if its chain was committed before in the row, if its plan
    is partial, if its latency is infinite, or on its first unknown server,
    checked in that order. None if every commit passes.
    """
    n_servers = layout.network.n_servers
    ends = np.cumsum(rec.positions).tolist()
    seen = set()
    for r in np.flatnonzero(rec.row == k).tolist():
        f = int(rec.sfc[r])
        servers = rec.servers[ends[r] - int(rec.positions[r]):ends[r]].tolist()
        if f in seen:
            return f"SFC {f} committed twice"
        seen.add(f)
        if len(servers) != len(layout.catalog.sfc_chain[f]):
            return f"SFC {f} committed a partial plan"
        if math.isinf(rec.latency[r]):
            return f"SFC {f} committed at infinite latency"
        for server in servers:
            if not 0 <= server < n_servers:
                return f"SFC {f} assigned to unknown server {server}"
    return None


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
