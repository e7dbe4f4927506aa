"""Online estimators for SFC popularity and VNF failure rates.

Both learners keep exact integer-valued running totals next to the derived
means, so an offline replay of a trace reproduces the state bit-for-bit.
Estimates carry UCB-style exploration bonuses scaled by sqrt(3 ln t / (2 n)).
Every per-arm vector is a list of Python ints or floats, updated in place.

A learned policy's learners are one (PopularityLearner, FailureLearner)
pair per seed, and a slot reads and writes them as a pair, as CUCB does its
arms: every arm's optimistic estimate once, before the decision, and the
slot's observation folded into the deployed arms once, after it.
policy.learned_rows does both for a chunk of slots, the learner lists held
in its own frame, and lockstep.estimates and lockstep.update compute the
same floats for many pairs at once. tests/reference.py keeps estimates and
update, the per-pair definitions both are held to.
"""

from __future__ import annotations

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


def chain_failure_rate(catalog, rates, f: int) -> float:
    """A chain is only as reliable as its worst VNF: max rate over f's occurrences."""
    return float(max(rates[i] for i in catalog.sfc_chain[f]))
