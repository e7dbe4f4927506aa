"""Per-slot learned policies and the decision checker.

All three policies work on a fresh residual every slot (capacity is
reclaimed between slots) and never commit a plan with an infinite latency;
the learned ones also never commit a non-positive score. learned_slot is
one slot of a learned policy, rtsd or bandit, which differ only in the
kernel's placement walk, carried by the kernels.PlanGraph they plan on.
Learner updates happen inside the call, after deployment, using that slot's
observation. harness.simulate_run calls it once per (slot, seed) for a seed
group too small for lockstep.Learners.

A slot's selection runs in two parts: kernels.selection_inputs builds the
slot's per-chain inputs from the estimates, and kernels.slot_decide scans
them. The decision, plan-graph edge ids and a residual tuple, is neither
verified nor accounted here: harness.simulate_run hands chunks of (slot,
seed) rows to lockstep.gather, then to check, with the backup vectors the
learners were updated with, and to slot_values; check words errors as
SlotDecisions.

The random policy keeps no state across slots, so it has no per-slot
function: lockstep.random_rows defines it over whole chunks of (slot, seed)
rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .learning import (FailureLearner, PopularityLearner, failure_estimate, failure_update,
                       popularity_estimate, popularity_update)
from .model import Catalog, EdgeNetwork, PlacementPlan


class InvariantViolation(RuntimeError):
    """A committed decision broke capacity safety or bookkeeping coupling."""


@dataclass(frozen=True)
class RewardWeights:
    omega: float = 1.0   # weight on served request count
    mu: float = 1.0      # weight on chain latency

    def __post_init__(self):
        if not (self.omega > 0.0) or not (self.mu >= 0.0):
            raise ValueError("need omega > 0 and mu >= 0")


@dataclass(eq=False)
class SlotDecision:
    """One slot's committed backups.

    deployed lists (sfc, plan) in commit order; x is the per-SFC backup
    vector (0 or 1); placed_counts[i] totals deployed copies of VNF i across
    all committed chains this slot; residual_after is each server's capacity
    left after them. The three vectors are lists of Python ints.
    """

    t: int
    deployed: list[tuple[int, PlacementPlan]]
    x: list[int]
    placed_counts: list[int]
    residual_after: list[int]


def learned_slot(learners: tuple[PopularityLearner, FailureLearner], t: int,
                 requests, failed, weights: RewardWeights, graph: kernels.PlanGraph,
                 ids: list[int], residuals: list[tuple[int, ...]]) -> list[int]:
    """One slot of a learned policy: decide on the learners' optimistic estimates, then learn.

    graph is the kernels.PlanGraph of the run's network, catalog and placement
    walk: kernels.GREEDY, latency-aware, for rtsd and kernels.FIRST_FIT for
    bandit. Kept across slots, it spares re-planning residual states the run
    has seen. kernels.selection_inputs turns the estimates into the slot's
    values, gates, bounds and ranking, and kernels.slot_decide scans them:
    it scores every remaining chain's plan, commits the best positive score,
    re-plans and repeats. The slot's observation, its request counts and VNF
    failure flags, then updates the learners for the deployed arms. Appends
    to ids and residuals as slot_decide, and returns the backup vector x (one
    0 or 1 per chain) the learners were updated with; the caller checks the
    decision against it, with the rest of its chunk.
    """
    pop, fail = learners
    catalog = graph.catalog
    value, gates, bounds, ranked = kernels.selection_inputs(
        catalog, popularity_estimate(pop, t), failure_estimate(fail, t), weights.omega)
    n = kernels.slot_decide(graph, value, gates, bounds, ranked, weights.mu, ids, residuals)
    x = [0] * catalog.n_sfcs
    placed = [0] * catalog.n_vnfs
    for f in map(graph.edge_sfc.__getitem__, ids[len(ids) - n:]):
        x[f] = 1
        for i in catalog.sfc_chain[f]:
            placed[i] += 1
    popularity_update(pop, requests, x)
    failure_update(fail, failed, placed)
    return x


def verify_decision(network: EdgeNetwork, catalog: Catalog,
                    decision: SlotDecision) -> None:
    """Always-on safety net: capacity, coupling, and bookkeeping must agree.

    Raises InvariantViolation on the first inconsistency. The decision's
    vectors are compared by value, so lists, tuples and arrays are all checked
    alike. The simulator runs its batched form, lockstep.check.
    """
    n = network.n_servers
    demand = catalog.vnf_demand
    load = [0] * n
    placed = [0] * catalog.n_vnfs
    seen: set[int] = set()
    for f, plan in decision.deployed:
        chain = catalog.sfc_chain[f]
        if f in seen:
            raise InvariantViolation(f"slot {decision.t}: SFC {f} committed twice")
        seen.add(f)
        if len(plan.assignment) != len(chain):
            raise InvariantViolation(f"slot {decision.t}: SFC {f} committed a partial plan")
        if math.isinf(plan.latency):
            raise InvariantViolation(f"slot {decision.t}: SFC {f} committed at infinite latency")
        for server, i in zip(plan.assignment, chain):
            # bound check first: a negative id would index a list from the end
            if not (0 <= server < n):
                raise InvariantViolation(f"slot {decision.t}: SFC {f} assigned to unknown server {server}")
            load[server] += demand[i]
            placed[i] += 1
    caps = network.capacities
    if any(used > cap for used, cap in zip(load, caps)):
        raise InvariantViolation(f"slot {decision.t}: server load exceeds capacity")
    if list(decision.residual_after) != [cap - used for cap, used in zip(caps, load)]:
        raise InvariantViolation(f"slot {decision.t}: residual bookkeeping mismatch")
    x_expect = [0] * catalog.n_sfcs
    for f in seen:
        x_expect[f] = 1
    if list(decision.x) != x_expect:
        raise InvariantViolation(f"slot {decision.t}: backup vector out of sync with plans")
    if list(decision.placed_counts) != placed:
        raise InvariantViolation(f"slot {decision.t}: placement counts out of sync with plans")
