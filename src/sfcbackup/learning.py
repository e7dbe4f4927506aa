"""Online estimators for SFC popularity and VNF failure rates.

Both learners keep exact integer-valued running totals next to the derived
means, so an offline replay of a trace reproduces the state bit-for-bit.
Estimates carry UCB-style exploration bonuses scaled by sqrt(3 ln t / (2 n)).
Every per-arm vector, in the learners and in the estimates, is a list of
Python ints or floats, updated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(eq=False)
class PopularityLearner:
    """Per-SFC request-count estimator.

    selected[f] counts the slots where SFC f was backed up, and request_mean[f]
    averages the observed request counts over exactly those slots.
    """

    users: int
    selected: list[int]
    request_total: list[float]
    request_mean: list[float]


@dataclass(eq=False)
class FailureLearner:
    """Per-VNF failure-rate estimator.

    placements[i] counts deployed copies of VNF i (a slot placing several
    copies adds all of them); failure_mean[i] divides the once-per-slot
    failure flags by that count. The exploration bonus direction and scale
    are configurable: sign +1 with scale = number of users is the default,
    sign -1 treats unexplored VNFs optimistically.
    """

    placements: list[int]
    failure_total: list[float]
    failure_mean: list[float]
    bonus_scale: float
    bonus_sign: int


def init_learners(n_sfcs: int, n_vnfs: int, users: int, *,
                  failure_bonus_scale: float | None = None,
                  failure_bonus_sign: int = 1) -> tuple[PopularityLearner, FailureLearner]:
    """Fresh learners for n_sfcs chains and n_vnfs VNFs: every count and total zero."""
    if failure_bonus_scale is None:
        failure_bonus_scale = float(users)
    pop = PopularityLearner(
        users=int(users),
        selected=[0] * n_sfcs,
        request_total=[0.0] * n_sfcs,
        request_mean=[0.0] * n_sfcs,
    )
    fail = FailureLearner(
        placements=[0] * n_vnfs,
        failure_total=[0.0] * n_vnfs,
        failure_mean=[0.0] * n_vnfs,
        bonus_scale=float(failure_bonus_scale),
        bonus_sign=int(failure_bonus_sign),
    )
    return pop, fail


def popularity_update(learner: PopularityLearner, requests, deployed) -> None:
    """Fold the slot's request counts into every arm flagged in ``deployed``, its backup vector."""
    selected, total, mean = learner.selected, learner.request_total, learner.request_mean
    for f, on in enumerate(deployed):
        if on:
            selected[f] += 1
            total[f] += requests[f]
            mean[f] = total[f] / selected[f]


def popularity_estimate(learner: PopularityLearner, t: int) -> list[float]:
    """Optimistic request-count estimates at slot t; +inf forces a first pull."""
    if t < 1:
        raise ValueError("estimates are defined for t >= 1")
    scale = learner.users
    log_term = 3.0 * math.log(t)
    return [mean + scale * math.sqrt(log_term / (2.0 * c)) if c > 0 else math.inf
            for c, mean in zip(learner.selected, learner.request_mean)]


def failure_update(learner: FailureLearner, failed, placed) -> None:
    """Fold the slot's failure flags into every VNF with placed copies this slot.

    placed[i] is the copy count (may exceed 1); the flag failed[i] is added
    once per slot regardless of how many copies went out.
    """
    placements, total, mean = learner.placements, learner.failure_total, learner.failure_mean
    for i, copies in enumerate(placed):
        if copies > 0:
            placements[i] += copies
            total[i] += failed[i]
            mean[i] = total[i] / placements[i]


def failure_estimate(learner: FailureLearner, t: int) -> list[float]:
    """Failure-rate estimates at slot t, clamped to [0, 1]; unexplored VNFs report 0."""
    if t < 1:
        raise ValueError("estimates are defined for t >= 1")
    scale, sign = learner.bonus_scale, learner.bonus_sign
    log_term = 3.0 * math.log(t)
    est = []
    for h, mean in zip(learner.placements, learner.failure_mean):
        if h > 0:
            v = mean + sign * (scale * math.sqrt(log_term / (2.0 * h)))
            est.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
        else:
            est.append(0.0)
    return est


def chain_failure_rate(catalog, rates, f: int) -> float:
    """A chain is only as reliable as its worst VNF: max rate over f's occurrences."""
    return float(max(rates[i] for i in catalog.sfc_chain[f]))
