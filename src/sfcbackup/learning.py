"""Online estimators for SFC popularity and VNF failure rates.

Both learners keep exact integer-valued running totals next to the derived
means, so an offline replay of a trace reproduces the state bit-for-bit.
Estimates carry UCB-style exploration bonuses scaled by sqrt(3 ln t / (2 n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .workload import SlotObservation


@dataclass(eq=False)
class PopularityLearner:
    """Per-SFC request-count estimator.

    selected[f] counts the slots where SFC f was backed up, request_mean[f]
    averages the observed request counts over exactly those slots, and
    request_ucb holds the estimate vector most recently used for selection.
    """

    users: int
    selected: np.ndarray
    request_total: np.ndarray
    request_mean: np.ndarray
    request_ucb: np.ndarray


@dataclass(eq=False)
class FailureLearner:
    """Per-VNF failure-rate estimator.

    placements[i] counts deployed copies of VNF i (a slot placing several
    copies adds all of them); failure_mean[i] divides the once-per-slot
    failure flags by that count. The exploration bonus direction and scale
    are configurable: sign +1 with scale = number of users is the default,
    sign -1 treats unexplored VNFs optimistically.
    """

    placements: np.ndarray
    failure_total: np.ndarray
    failure_mean: np.ndarray
    failure_ucb: np.ndarray
    bonus_scale: float
    bonus_sign: int


def init_learners(obs0: SlotObservation, users: int, *,
                  failure_bonus_scale: float | None = None,
                  failure_bonus_sign: int = 1) -> tuple[PopularityLearner, FailureLearner]:
    """Slot-0 initialization: zero counts, estimate snapshots seeded from obs0."""
    n_sfcs = obs0.requests.shape[0]
    n_vnfs = obs0.vnf_failed.shape[0]
    if failure_bonus_scale is None:
        failure_bonus_scale = float(users)
    pop = PopularityLearner(
        users=int(users),
        selected=np.zeros(n_sfcs, dtype=np.int64),
        request_total=np.zeros(n_sfcs, dtype=np.float64),
        request_mean=np.zeros(n_sfcs, dtype=np.float64),
        request_ucb=obs0.requests.astype(np.float64),
    )
    fail = FailureLearner(
        placements=np.zeros(n_vnfs, dtype=np.int64),
        failure_total=np.zeros(n_vnfs, dtype=np.float64),
        failure_mean=np.zeros(n_vnfs, dtype=np.float64),
        failure_ucb=obs0.vnf_failed.astype(np.float64),
        bonus_scale=float(failure_bonus_scale),
        bonus_sign=int(failure_bonus_sign),
    )
    return pop, fail


def popularity_update(learner: PopularityLearner, obs: SlotObservation,
                      deployed) -> None:
    """Fold obs into every arm flagged in ``deployed`` (the slot's backup vector)."""
    requests = obs.requests.tolist()
    selected, total, mean = learner.selected, learner.request_total, learner.request_mean
    counts, sums = selected.tolist(), total.tolist()
    for f, on in enumerate(np.asarray(deployed).tolist()):
        if on:
            c = counts[f] + 1
            s = sums[f] + requests[f]
            selected[f] = c
            total[f] = s
            mean[f] = s / c


def popularity_estimate(learner: PopularityLearner, t: int) -> np.ndarray:
    """Optimistic request-count estimates at slot t; +inf forces a first pull."""
    if t < 1:
        raise ValueError("estimates are defined for t >= 1")
    scale = learner.users
    log_term = 3.0 * math.log(t)
    return np.array([mean + scale * math.sqrt(log_term / (2.0 * c)) if c > 0 else math.inf
                     for c, mean in zip(learner.selected.tolist(),
                                        learner.request_mean.tolist())],
                    dtype=np.float64)


def failure_update(learner: FailureLearner, obs: SlotObservation,
                   placed) -> None:
    """Fold obs into every VNF with placed copies this slot.

    placed[i] is the copy count (may exceed 1); the observed failure flag is
    added once per slot regardless of how many copies went out.
    """
    failed = obs.vnf_failed.tolist()
    placements, total, mean = learner.placements, learner.failure_total, learner.failure_mean
    counts, sums = placements.tolist(), total.tolist()
    for i, copies in enumerate(np.asarray(placed, dtype=np.int64).tolist()):
        if copies > 0:
            c = counts[i] + copies
            s = sums[i] + failed[i]
            placements[i] = c
            total[i] = s
            mean[i] = s / c


def failure_estimate(learner: FailureLearner, t: int) -> np.ndarray:
    """Failure-rate estimates at slot t, clamped to [0, 1]; unexplored VNFs report 0."""
    if t < 1:
        raise ValueError("estimates are defined for t >= 1")
    scale, sign = learner.bonus_scale, learner.bonus_sign
    log_term = 3.0 * math.log(t)
    est = []
    for h, mean in zip(learner.placements.tolist(), learner.failure_mean.tolist()):
        if h > 0:
            v = mean + sign * (scale * math.sqrt(log_term / (2.0 * h)))
            est.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        else:
            est.append(0.0)
    return np.array(est, dtype=np.float64)


def chain_failure_rate(catalog, rates, f: int) -> float:
    """A chain is only as reliable as its worst VNF: max rate over f's occurrences."""
    return float(max(rates[i] for i in catalog.sfc_chain[f]))
