"""Online estimators for SFC popularity and VNF failure rates.

Both learners keep exact integer-valued running totals next to the derived
means, so an offline replay of a trace reproduces the state bit-for-bit.
Estimates carry UCB-style exploration bonuses scaled by sqrt(3 ln t / (2 n)).
Every per-arm vector, in the learners and in the estimates, is a list of
Python ints or floats, updated in place.

A learned policy's learners are one (PopularityLearner, FailureLearner)
pair, and a slot reads and writes them as a pair, as CUCB does its arms:
estimates takes every arm's optimistic estimate once, before the decision,
and update folds the slot's observation into the deployed arms once, after
it. lockstep.estimates and lockstep.update compute the same floats for many
pairs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log, sqrt


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


def estimates(learners: tuple[PopularityLearner, FailureLearner],
              t: int) -> tuple[list[float], list[float]]:
    """Both learners' optimistic estimates at slot t, (q, v), one per chain and one per VNF.

    q[f] is chain f's mean request count plus its bonus, +inf while unexplored,
    which forces a first pull. v[i] is VNF i's failure-rate mean plus its
    signed bonus, clamped to [0, 1]; an unexplored VNF reports 0.
    """
    if t < 1:
        raise ValueError("estimates are defined for t >= 1")
    pop, fail = learners
    log_term = 3.0 * log(t)
    scale = pop.users
    q = [mean + scale * sqrt(log_term / (2.0 * c)) if c > 0 else inf
         for c, mean in zip(pop.selected, pop.request_mean)]
    scale, sign = fail.bonus_scale, fail.bonus_sign
    v = []
    for h, mean in zip(fail.placements, fail.failure_mean):
        if h > 0:
            est = mean + sign * (scale * sqrt(log_term / (2.0 * h)))
            v.append(0.0 if est < 0.0 else 1.0 if est > 1.0 else est)
        else:
            v.append(0.0)
    return q, v


def update(learners: tuple[PopularityLearner, FailureLearner], requests, failed, x,
           placed) -> None:
    """Fold one slot's observation into both learners, in place.

    Every chain flagged in x, the slot's backup vector, counts one pull and
    its request count. Every VNF with placed[i] > 0 copies counts all of them
    (so several may go out at once) but adds its failure flag failed[i] once
    per slot.
    """
    pop, fail = learners
    selected, total, mean = pop.selected, pop.request_total, pop.request_mean
    for f, on in enumerate(x):
        if on:
            selected[f] += 1
            total[f] += requests[f]
            mean[f] = total[f] / selected[f]
    placements, total, mean = fail.placements, fail.failure_total, fail.failure_mean
    for i, copies in enumerate(placed):
        if copies > 0:
            placements[i] += copies
            total[i] += failed[i]
            mean[i] = total[i] / placements[i]


def chain_failure_rate(catalog, rates, f: int) -> float:
    """A chain is only as reliable as its worst VNF: max rate over f's occurrences."""
    return float(max(rates[i] for i in catalog.sfc_chain[f]))
