"""The learned policies' per-seed loop.

All three policies work on a fresh residual every slot (capacity is
reclaimed between slots) and never commit a plan with an infinite latency;
the learned ones also never commit a non-positive score. learned_rows runs
a chunk of slots of one learned policy, rtsd or bandit, which differ only in
the kernel's placement walk, carried by the kernels.PlanGraph they plan on.
Its seeds' learners are a block of rows of the group's one
lockstep.Learners. harness.simulate_run calls it once per learned policy on
a chunk whose learner rows are too few for lockstep's numpy stages.

A slot of one seed takes the learners' optimistic estimates, turns them into
the selection inputs, scans them with kernels.slot_decide, and folds the
slot's observation into the learners, all in learned_rows' own frame, the
learner rows read into lists and the constants held in locals.
lockstep.estimates, lockstep.selection_rows and lockstep.update are its
numpy mirror for many learner rows at once. The decision, plan-graph edge
ids and a residual tuple, is neither verified nor accounted here:
harness.simulate_run hands the chunk's rows to lockstep.gather, then to
lockstep.check, with the backup vectors and VNF copies the learners were
updated with, and to slot_values.

The random policy keeps no state across slots, so it has no per-slot
function: lockstep.random_rows defines it over whole chunks of (slot, seed)
rows at once.
"""

from __future__ import annotations

from itertools import accumulate
from math import inf, log, sqrt

import numpy as np

from . import kernels
from .lockstep import Learners
from .model import RewardWeights


def learned_rows(learners: Learners, first: int, t0: int, requests, failed,
                 weights: RewardWeights, graph: kernels.PlanGraph) -> tuple:
    """Slots t0, t0 + 1, ... of a learned policy for S seeds' learner rows: decide, then learn.

    learners is a lockstep.Learners, and seed s's learners are its row
    first + s, for s < S = len(requests). requests[s][j] and failed[s][j]
    are seed s's request counts and VNF failure flags at slot t0 + j, lists
    of ints. graph is the kernels.PlanGraph of the run's network, catalog and placement walk:
    kernels.GREEDY, latency-aware, for rtsd and kernels.FIRST_FIT for
    bandit. Kept across slots, it spares re-planning residual states the run
    has seen.

    Each (seed, slot) takes the learners' optimistic estimates at the slot:
    chain f's value omega * q[f], q[f] its mean request count plus
    users * sqrt(3 ln t / (2 selected[f])), +inf while unexplored, and VNF
    i's failure estimate, its mean plus its signed bonus scaled by
    sqrt(3 ln t / (2 placements[i])), clamped to [0, 1], 0 while unexplored.
    A chain's gate, the paper's selection surrogate, is one minus its worst
    VNF estimate, floored at 0, its bound value * gate, and the chains with
    a positive gate and bound are ranked by descending bound, ties by id.
    kernels.slot_decide scans them: it scores every remaining chain's plan,
    commits the best positive score, re-plans and repeats. Each committed
    chain then counts one pull and its request count, and each VNF placed
    one observation, the slot's failure flag, however many copies.
    tests/reference.py's estimates, selection_inputs and update are these
    steps' definitions, and lockstep's estimates, selection_rows and update
    compute the same floats with numpy.

    The S rows' six count, total and mean fields are read into lists once,
    at the start, and written back once, at the end; the other rows are left
    as they are. The seeds run one after another, each seed's slots in
    order. Returns the chunk's rows slot-major, row j * S + s for seed s at
    slot t0 + j: their edge ids, commits per row and residual tuples, for
    lockstep.gather, and what the learners were updated with, for
    lockstep.check to hold the records to: the (R, F) backup vectors, a bool
    per chain, and the (R, I) int64 copies placed of each VNF, the arrays
    lockstep.update takes.
    """
    omega, mu = weights.omega, weights.mu
    unexplored = omega * inf
    chains = graph.sfc_chain
    # a gate reads each VNF of its chain once: a maximum is the same over repeats
    gate_vnfs = [tuple(dict.fromkeys(chain)) for chain in chains]
    edge_sfc = graph.edge_sfc
    n_seeds, n_slots = len(requests), len(requests[0])
    n_sfcs, n_vnfs = len(chains), len(graph.vnf_demand)
    sfcs = range(n_sfcs)
    log_terms = [3.0 * log(t) for t in range(t0, t0 + n_slots)]
    users, scale, sign = learners.users, learners.bonus_scale, learners.bonus_sign
    rows = slice(first, first + n_seeds)
    fields = (learners.selected, learners.request_total, learners.request_mean,
              learners.placements, learners.failure_total, learners.failure_mean)
    state = [field[rows].tolist() for field in fields]
    ids, counts, residuals, xs, copies = [], [], [], [], []
    for seed_state, seed_requests, seed_failed in zip(zip(*state), requests, failed):
        (selected, request_total, request_mean,
         placements, failure_total, failure_mean) = seed_state
        for log_term, req, flags in zip(log_terms, seed_requests, seed_failed):
            v = []
            for h, mean in zip(placements, failure_mean):
                if h > 0:
                    est = mean + sign * (scale * sqrt(log_term / (2.0 * h)))
                    v.append(0.0 if est < 0.0 else 1.0 if est > 1.0 else est)
                else:
                    v.append(0.0)
            value, gates, bounds, ranked = [], [], [], []
            for f, c, mean, vnfs in zip(sfcs, selected, request_mean, gate_vnfs):
                a = omega * (mean + users * sqrt(log_term / (2.0 * c))) if c > 0 else unexplored
                worst = 0.0
                for i in vnfs:
                    if v[i] > worst:
                        worst = v[i]
                g = 1.0 - worst
                b = a * g
                value.append(a)
                gates.append(g)
                bounds.append(b)
                if g > 0.0 and b > 0.0:
                    ranked.append(f)
            # descending bound, ties by ascending id (reverse=True keeps the sort stable)
            ranked.sort(key=bounds.__getitem__, reverse=True)
            # looked up on the module every call, so that a profiler can wrap it
            n = kernels.slot_decide(graph, value, gates, bounds, ranked, mu, ids, residuals)
            counts.append(n)
            x = [0] * n_sfcs
            placed = [0] * n_vnfs
            if n:
                for f in map(edge_sfc.__getitem__, ids[-n:]):
                    x[f] = 1
                    selected[f] += 1
                    request_total[f] += req[f]
                    request_mean[f] = request_total[f] / selected[f]
                    for i in chains[f]:
                        if not placed[i]:       # one failure observation a slot
                            failure_total[i] += flags[i]
                            placements[i] += 1
                            failure_mean[i] = failure_total[i] / placements[i]
                        placed[i] += 1
            xs += x
            copies += placed
    for field, values in zip(fields, state):
        field[rows] = values
    x = np.array(xs, dtype=bool).reshape(n_seeds, n_slots, n_sfcs)
    placed = np.array(copies, dtype=np.int64).reshape(n_seeds, n_slots, n_vnfs)
    if n_seeds > 1:
        # the calls ran seed by seed; rows go out slot by slot
        order = [s * n_slots + j for j in range(n_slots) for s in range(n_seeds)]
        ends = list(accumulate(counts))
        ids = [e for k in order for e in ids[ends[k] - counts[k]:ends[k]]]
        counts = [counts[k] for k in order]
        residuals = [residuals[k] for k in order]
    return (ids, counts, residuals, x.swapaxes(0, 1).reshape(-1, n_sfcs),
            placed.swapaxes(0, 1).reshape(-1, n_vnfs))
