"""Per-slot backup policies and reward accounting.

All three policies work on a fresh residual (capacity is reclaimed between
slots) and never commit a plan with non-positive score (the learned ones) or
an infinite latency (all of them). Learner updates happen inside the slot
call, after deployment, using that slot's observation. The random policy
draws nothing itself: it reads a fixed block of uniforms per slot, laid out
by Catalog.uniform_layout and drawn from the policy key domain (see
workload.policy_uniforms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernels
from .learning import (FailureLearner, PopularityLearner, chain_failure_rate,
                       failure_estimate, failure_update, popularity_estimate,
                       popularity_update)
from .model import Catalog, EdgeNetwork, PlacementPlan
from .workload import GroundTruth, SlotObservation


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


def _verified(network: EdgeNetwork, catalog: Catalog, t: int,
              deployed: list[tuple[int, PlacementPlan]],
              residual: list[int]) -> SlotDecision:
    """Wrap a slot's commits as a SlotDecision, with x and placed_counts, and verify it."""
    x = [0] * catalog.n_sfcs
    placed = [0] * catalog.n_vnfs
    for f, _ in deployed:
        x[f] = 1
        for i in catalog.sfc_chain[f]:
            placed[i] += 1
    decision = SlotDecision(t=int(t), deployed=deployed, x=x, placed_counts=placed,
                            residual_after=residual)
    verify_decision(network, catalog, decision)
    return decision


def _decide(graph: kernels.PlanGraph, q_est: list[float], v_est: list[float],
            weights: RewardWeights, t: int) -> SlotDecision:
    """Run the greedy selection kernel and wrap its output, verifying invariants."""
    deployed: list[tuple[int, PlacementPlan]] = []
    residual: list[int] = []
    kernels.slot_decide(graph, q_est, v_est, weights.omega, weights.mu,
                        deployed, residual)
    return _verified(graph.network, graph.catalog, t, deployed, residual)


def _plan_graph(network: EdgeNetwork, catalog: Catalog, mode: int,
                graph: kernels.PlanGraph | None) -> kernels.PlanGraph:
    """graph, checked to be the one for (network, catalog, mode); None gives a fresh one."""
    if graph is None:
        return kernels.PlanGraph(network, catalog, mode)
    if graph.network is not network or graph.catalog is not catalog or graph.mode != mode:
        raise ValueError("the plan graph belongs to another network, catalog or placement mode")
    return graph


def _learned_slot(learners: tuple[PopularityLearner, FailureLearner], t: int,
                  obs: SlotObservation, weights: RewardWeights,
                  graph: kernels.PlanGraph) -> SlotDecision:
    """Decide on the learners' optimistic estimates, then learn from the slot.

    graph carries the network, the catalog and the kernel's placement walk
    (kernels.GREEDY or kernels.FIRST_FIT).
    """
    pop, fail = learners
    q_est = popularity_estimate(pop, t)
    v_est = failure_estimate(fail, t)
    decision = _decide(graph, q_est, v_est, weights, t)
    pop.request_ucb = q_est
    fail.failure_ucb = v_est
    popularity_update(pop, obs, decision.x)
    failure_update(fail, obs, decision.placed_counts)
    return decision


def rtsd_slot(network: EdgeNetwork, catalog: Catalog,
              learners: tuple[PopularityLearner, FailureLearner], t: int,
              obs: SlotObservation,
              weights: RewardWeights = RewardWeights(),
              graph: kernels.PlanGraph | None = None) -> SlotDecision:
    """Learned greedy selection with latency-aware placement.

    Scores every remaining chain's greedy plan with the current optimistic
    estimates, commits the best positive score, re-plans, repeats; then folds
    the slot's observation back into the learners for the deployed arms.
    graph is a kernels.PlanGraph of (network, catalog, GREEDY) kept across
    slots, so that repeated residual states are not re-planned; None plans
    on a fresh one.
    """
    return _learned_slot(learners, t, obs, weights,
                         _plan_graph(network, catalog, kernels.GREEDY, graph))


def bandit_scheme_slot(network: EdgeNetwork, catalog: Catalog,
                       learners: tuple[PopularityLearner, FailureLearner], t: int,
                       obs: SlotObservation,
                       weights: RewardWeights = RewardWeights(),
                       graph: kernels.PlanGraph | None = None) -> SlotDecision:
    """Same learners and greedy selection as rtsd_slot, but first-fit placement.

    graph, if given, is a kernels.PlanGraph of (network, catalog, FIRST_FIT).
    """
    return _learned_slot(learners, t, obs, weights,
                         _plan_graph(network, catalog, kernels.FIRST_FIT, graph))


def random_scheme_slot(network: EdgeNetwork, catalog: Catalog, t: int,
                       obs: SlotObservation, u: Sequence[float]) -> SlotDecision:
    """No learning: random SFC order, each occurrence on a random server with room.

    Each SFC is attempted once per slot; an attempt places every occurrence
    and commits only if the whole chain fits at the edge at finite latency.
    u holds the slot's W uniforms in [0, 1), laid out by
    catalog.uniform_layout (harness.simulate_run and workload.policy_uniforms
    draw them). Chains are attempted in ascending u[f], ties by id.
    Occurrence j of chain f takes fits[int(u[starts[f] + j] * len(fits))],
    where fits lists, in id order, the servers whose residual, less what the
    chain's earlier occurrences took, still holds the VNF's demand.

    This is the law of picking each next chain uniformly among those not yet
    attempted and placing each occurrence on the first server with room in a
    fresh uniform permutation of the servers. Popping a uniform index from
    the remaining candidates gives a uniform order, as does ranking i.i.d.
    uniforms; and the first qualified server of a fresh uniform permutation
    is uniform over the qualified set, independently of earlier draws.
    """
    lat = network.latency_rows
    demands = catalog.vnf_demand
    _, starts = catalog.uniform_layout
    residual = list(network.capacities)
    deployed: list[tuple[int, PlacementPlan]] = []

    for f in sorted(range(catalog.n_sfcs), key=u.__getitem__):
        chain = catalog.sfc_chain[f]
        base = starts[f]
        room = residual[:]
        assign: list[int] = []
        latency = 0.0
        for j, i in enumerate(chain):
            need = demands[i]
            fits = [s for s, r in enumerate(room) if r >= need]
            if not fits:
                break
            # u < 1, so the index stays below len(fits)
            spot = fits[int(u[base + j] * len(fits))]
            if assign:
                latency += lat[assign[-1]][spot]
            assign.append(spot)
            room[spot] -= need
        if not chain or len(assign) < len(chain) or math.isinf(latency):
            continue
        residual = room
        deployed.append((f, PlacementPlan(sfc=f, assignment=tuple(assign),
                                          latency=latency, at_edge=True)))
    return _verified(network, catalog, t, deployed, residual)


def realized_reward(weights: RewardWeights, obs: SlotObservation,
                    decision: SlotDecision,
                    catalog: Catalog) -> tuple[np.ndarray, float]:
    """What the slot actually earned, per SFC and in total.

    A deployed chain pays off only if none of its constituent VNFs failed
    this slot (copies of the same VNF share one failure outcome); the payoff
    uses the realized request count. Cloud chains earn 0.
    """
    failed = obs.vnf_failed
    requests = obs.requests
    earned = [0.0] * catalog.n_sfcs
    for f, plan in decision.deployed:
        if any(failed[i] for i in catalog.sfc_chain[f]):
            continue
        earned[f] = weights.omega * requests[f] - weights.mu * plan.latency
    per_sfc = np.array(earned, dtype=np.float64)
    # numpy's pairwise summation order, not Python's left-to-right one
    return per_sfc, float(per_sfc.sum())


def expected_slot_value(weights: RewardWeights, gt: GroundTruth,
                        decision: SlotDecision, catalog: Catalog) -> float:
    """Decision value under the true parameters (the selection objective)."""
    q = gt.popularity_list
    rates = gt.failure_rate_list
    total = 0.0
    for f, plan in decision.deployed:
        u_true = chain_failure_rate(catalog, rates, f)
        total += (weights.omega * q[f] - weights.mu * plan.latency) * (1.0 - u_true)
    return total


def verify_decision(network: EdgeNetwork, catalog: Catalog,
                    decision: SlotDecision) -> None:
    """Always-on safety net: capacity, coupling, and bookkeeping must agree.

    Raises InvariantViolation on the first inconsistency. Cheap enough to run
    on every slot of every experiment. The decision's vectors are compared by
    value, so lists, tuples and arrays are all checked alike.
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
        if not plan.at_edge or len(plan.assignment) != len(chain):
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
