"""The per-slot learned policy, the reward weights, and the error a failed check raises.

All three policies work on a fresh residual every slot (capacity is
reclaimed between slots) and never commit a plan with an infinite latency;
the learned ones also never commit a non-positive score. learned_slot is
one slot of a learned policy, rtsd or bandit, which differ only in the
kernel's placement walk, carried by the kernels.PlanGraph they plan on.
harness.simulate_run calls it once per (policy, slot, seed) for a seed group
with too few learner rows for lockstep.Learners.

A slot is four calls, learning.estimates, kernels.selection_inputs,
kernels.slot_decide and learning.update, the learners updated after
deployment with that slot's observation. The decision, plan-graph edge ids
and a residual tuple, is neither verified nor accounted here:
harness.simulate_run hands chunks of (slot, seed) rows to lockstep.gather,
then to lockstep.check, with the backup vectors and VNF copies the learners
were updated with, and to slot_values.

The random policy keeps no state across slots, so it has no per-slot
function: lockstep.random_rows defines it over whole chunks of (slot, seed)
rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .learning import FailureLearner, PopularityLearner, estimates, update


class InvariantViolation(RuntimeError):
    """A committed decision broke capacity safety or bookkeeping coupling."""


@dataclass(frozen=True)
class RewardWeights:
    omega: float = 1.0   # weight on served request count
    mu: float = 1.0      # weight on chain latency

    def __post_init__(self):
        if not (self.omega > 0.0) or not (self.mu >= 0.0):
            raise ValueError("need omega > 0 and mu >= 0")


def learned_slot(learners: tuple[PopularityLearner, FailureLearner], t: int,
                 requests, failed, weights: RewardWeights, graph: kernels.PlanGraph,
                 ids: list[int], residuals: list[tuple[int, ...]]
                 ) -> tuple[list[int], list[int]]:
    """One slot of a learned policy: decide on the learners' optimistic estimates, then learn.

    graph is the kernels.PlanGraph of the run's network, catalog and placement
    walk: kernels.GREEDY, latency-aware, for rtsd and kernels.FIRST_FIT for
    bandit. Kept across slots, it spares re-planning residual states the run
    has seen. learning.estimates takes the slot's estimates,
    kernels.selection_inputs turns them into the slot's values, gates,
    bounds and ranking, and kernels.slot_decide scans them: it scores every
    remaining chain's plan, commits the best positive score, re-plans and
    repeats. One learning.update then folds the slot's observation, its
    request counts and VNF failure flags, into the deployed arms. Appends
    to ids and residuals as slot_decide, and returns what the learners were
    updated with: the backup vector x (one 0 or 1 per chain) and the copies
    placed of each VNF. The caller checks the decision against both, with the
    rest of its chunk.
    """
    q, v = estimates(learners, t)
    value, gates, bounds, ranked = kernels.selection_inputs(graph.catalog, q, v, weights.omega)
    n = kernels.slot_decide(graph, value, gates, bounds, ranked, weights.mu, ids, residuals)
    chains = graph.sfc_chain
    x = [0] * len(chains)
    placed = [0] * len(graph.vnf_demand)
    for f in map(graph.edge_sfc.__getitem__, ids[len(ids) - n:]):
        x[f] = 1
        for i in chains[f]:
            placed[i] += 1
    update(learners, requests, failed, x, placed)
    return x, placed

