"""Per-slot backup policies and reward accounting.

All three policies work on a fresh residual (capacity is reclaimed between
slots) and never commit a plan with non-positive score (the learned ones) or
an infinite latency (all of them). Learner updates happen inside the slot
call, after deployment, using that slot's observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .learning import (FailureLearner, PopularityLearner, chain_failure_rate,
                       failure_estimate, failure_update, popularity_estimate,
                       popularity_update)
from .model import Catalog, EdgeNetwork
from .placement import PlacementPlan
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
    vector; placed_counts[i] totals deployed copies of VNF i across all
    committed chains this slot.
    """

    t: int
    deployed: list[tuple[int, PlacementPlan]]
    x: np.ndarray
    placed_counts: np.ndarray
    residual_after: np.ndarray


def pre_reward(weights: RewardWeights, popularity: float, latency: float,
               failure_rate: float) -> float:
    """Selection score for one candidate plan.

    A failure estimate of 1 annihilates the score outright, which also keeps
    the +inf exploration sentinel from producing inf * 0.
    """
    gate = 1.0 - failure_rate
    if gate <= 0.0:
        return 0.0
    return (weights.omega * popularity - weights.mu * latency) * gate


def _decide(network: EdgeNetwork, catalog: Catalog, q_est: np.ndarray,
            v_est: np.ndarray, weights: RewardWeights, mode: int,
            t: int) -> SlotDecision:
    """Run the greedy selection kernel and wrap its output, verifying invariants."""
    x: list[int] = []
    order: list[int] = []
    lat: list[float] = []
    assign: list[list[int]] = []
    residual: list[int] = []
    n_committed = kernels.slot_decide(mode, network, catalog, q_est, v_est,
                                      weights.omega, weights.mu,
                                      x, order, lat, assign, residual)

    deployed: list[tuple[int, PlacementPlan]] = []
    placed = [0] * catalog.n_vnfs
    for f in order[:n_committed]:
        deployed.append((f, PlacementPlan(sfc=f, assignment=tuple(assign[f]),
                                          latency=lat[f], at_edge=True)))
        for i in catalog.sfc_chain[f]:
            placed[i] += 1

    decision = SlotDecision(t=int(t), deployed=deployed,
                            x=np.array(x, dtype=np.uint8),
                            placed_counts=np.array(placed, dtype=np.int64),
                            residual_after=np.array(residual, dtype=np.int64))
    verify_decision(network, catalog, decision)
    return decision


def _learned_slot(network: EdgeNetwork, catalog: Catalog,
                  learners: tuple[PopularityLearner, FailureLearner], t: int,
                  obs: SlotObservation, weights: RewardWeights,
                  mode: int) -> SlotDecision:
    """Decide on the learners' optimistic estimates, then learn from the slot.

    mode is the kernel's placement walk (kernels.GREEDY or kernels.FIRST_FIT).
    """
    pop, fail = learners
    q_est = popularity_estimate(pop, t)
    v_est = failure_estimate(fail, t)
    decision = _decide(network, catalog, q_est, v_est, weights, mode, t)
    pop.request_ucb = q_est
    fail.failure_ucb = v_est
    popularity_update(pop, obs, decision.x)
    failure_update(fail, obs, decision.placed_counts)
    return decision


def rtsd_slot(network: EdgeNetwork, catalog: Catalog,
              learners: tuple[PopularityLearner, FailureLearner], t: int,
              obs: SlotObservation,
              weights: RewardWeights = RewardWeights()) -> SlotDecision:
    """Learned greedy selection with latency-aware placement.

    Scores every remaining chain's greedy plan with the current optimistic
    estimates, commits the best positive score, re-plans, repeats; then folds
    the slot's observation back into the learners for the deployed arms.
    """
    return _learned_slot(network, catalog, learners, t, obs, weights, kernels.GREEDY)


def bandit_scheme_slot(network: EdgeNetwork, catalog: Catalog,
                       learners: tuple[PopularityLearner, FailureLearner], t: int,
                       obs: SlotObservation,
                       weights: RewardWeights = RewardWeights()) -> SlotDecision:
    """Same learners and greedy selection as rtsd_slot, but first-fit placement."""
    return _learned_slot(network, catalog, learners, t, obs, weights, kernels.FIRST_FIT)


def random_scheme_slot(network: EdgeNetwork, catalog: Catalog, t: int,
                       obs: SlotObservation,
                       rng: np.random.Generator) -> SlotDecision:
    """No learning: random SFC order, first fit onto randomly ordered servers.

    Each not-yet-deployed SFC is attempted once per slot; an attempt places
    every occurrence on the first qualified server of a fresh random scan and
    commits only if the whole chain fits at the edge.
    """
    n = network.n_servers
    lat = network.latency_rows
    demands = catalog.vnf_demand
    residual = list(network.capacities)
    x = [0] * catalog.n_sfcs
    placed = [0] * catalog.n_vnfs
    deployed: list[tuple[int, PlacementPlan]] = []

    candidates = list(range(catalog.n_sfcs))
    while candidates:
        f = candidates.pop(int(rng.integers(len(candidates))))
        chain = catalog.sfc_chain[f]
        tent = [0] * n
        assign: list[int] = []
        latency = 0.0
        feasible = len(chain) > 0
        for i in chain:
            need = demands[i]
            spot = -1
            for s in rng.permutation(n).tolist():
                if residual[s] - tent[s] >= need:
                    spot = s
                    break
            if spot < 0:
                feasible = False
                break
            if assign:
                latency += lat[assign[-1]][spot]
            assign.append(spot)
            tent[spot] += need
        if not feasible or math.isinf(latency):
            continue
        residual = [r - d for r, d in zip(residual, tent)]
        x[f] = 1
        for i in chain:
            placed[i] += 1
        deployed.append((f, PlacementPlan(sfc=f, assignment=tuple(assign),
                                          latency=latency, at_edge=True)))

    decision = SlotDecision(t=int(t), deployed=deployed,
                            x=np.array(x, dtype=np.uint8),
                            placed_counts=np.array(placed, dtype=np.int64),
                            residual_after=np.array(residual, dtype=np.int64))
    verify_decision(network, catalog, decision)
    return decision


def realized_reward(weights: RewardWeights, obs: SlotObservation,
                    decision: SlotDecision,
                    catalog: Catalog) -> tuple[np.ndarray, float]:
    """What the slot actually earned, per SFC and in total.

    A deployed chain pays off only if none of its constituent VNFs failed
    this slot (copies of the same VNF share one failure outcome); the payoff
    uses the realized request count. Cloud chains earn 0.
    """
    failed = obs.vnf_failed.tolist()
    requests = obs.requests.tolist()
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
    on every slot of every experiment.
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
    if decision.residual_after.tolist() != [cap - used for cap, used in zip(caps, load)]:
        raise InvariantViolation(f"slot {decision.t}: residual bookkeeping mismatch")
    x_expect = [0] * catalog.n_sfcs
    for f in seen:
        x_expect[f] = 1
    if decision.x.tolist() != x_expect:
        raise InvariantViolation(f"slot {decision.t}: backup vector out of sync with plans")
    if decision.placed_counts.tolist() != placed:
        raise InvariantViolation(f"slot {decision.t}: placement counts out of sync with plans")
