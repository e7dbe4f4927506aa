from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcbackup import Catalog, make_ground_truth
from sfcbackup.lockstep import Learners

from reference import chain_failure_rate, estimates, fresh_learners, slot_rows, update


def fresh(n_sfcs: int = 2, n_vnfs: int = 3, users: int = 10, **kw):
    return fresh_learners(n_sfcs, n_vnfs, users, **kw)


def test_fresh_learners_start_at_zero() -> None:
    # every learner row starts with zero counts, totals and means; the
    # failure bonus scale defaults to the user count
    learners = Learners.fresh(4, 2, 3, 10, None, 1)
    assert type(learners.users) is float and learners.users == 10.0
    assert learners.bonus_scale == 10.0 and learners.bonus_sign == 1
    for name, dtype, width in (("selected", np.int64, 2), ("request_total", np.float64, 2),
                               ("request_mean", np.float64, 2), ("placements", np.int64, 3),
                               ("failure_total", np.float64, 3),
                               ("failure_mean", np.float64, 3)):
        field = getattr(learners, name)
        assert field.dtype == dtype and field.shape == (4, width), name
        assert not field.any(), name
    learners = Learners.fresh(1, 2, 3, 10, 0.5, -1)
    assert learners.bonus_scale == 0.5 and learners.bonus_sign == -1


# a slot that deploys chains but places no VNF copy, and one that places
# copies but deploys no chain, update one learner each
NO_COPIES = [0, 0, 0]
NO_FLAGS = [0, 0, 0]
NO_CHAINS = [0, 0]


def test_popularity_update_first_pull() -> None:
    pop, fail = learners = fresh()
    update(learners, [4, 9], NO_FLAGS, [1, 0], NO_COPIES)
    assert fail.placements == [0, 0, 0]
    assert pop.selected == [1, 0]
    assert pop.request_mean == [4.0, 0.0]


def test_popularity_update_running_mean() -> None:
    pop, _ = learners = fresh()
    update(learners, [4, 0], NO_FLAGS, [1, 0], NO_COPIES)
    update(learners, [2, 5], NO_FLAGS, [1, 0], NO_COPIES)
    assert pop.selected == [2, 0]
    assert pop.request_mean[0] == pytest.approx(3.0)
    # the unselected arm never moved
    assert pop.request_mean[1] == 0.0 and pop.selected[1] == 0


def test_popularity_estimate_no_bonus_at_t1() -> None:
    learners = fresh()
    update(learners, [4, 0], NO_FLAGS, [1, 0], NO_COPIES)
    est, _ = estimates(learners, 1)
    assert est[0] == 4.0           # ln 1 = 0, bare mean
    assert math.isinf(est[1])      # unexplored arm forces a pull


def test_popularity_estimate_bonus_value() -> None:
    learners = fresh(users=5)
    update(learners, [3, 0], NO_FLAGS, [1, 0], NO_COPIES)
    est, _ = estimates(learners, math.e)
    assert est[0] == pytest.approx(3.0 + 5.0 * math.sqrt(1.5))


def test_popularity_bonus_shrinks_with_count() -> None:
    learners = fresh(users=5)
    values = []
    for t in range(1, 6):
        update(learners, [3, 0], NO_FLAGS, [1, 0], NO_COPIES)
        values.append(estimates(learners, 10)[0][0])
    assert values == sorted(values, reverse=True)


def test_failure_update_counts_copies_but_one_flag() -> None:
    pop, fail = learners = fresh()
    update(learners, [4, 9], [1, 0, 0], NO_CHAINS, [1, 0, 0])
    assert pop.selected == [0, 0]
    assert fail.placements == [1, 0, 0]
    assert fail.failure_mean[0] == 1.0
    # two copies placed, one observed flag: mean stays put at 0.5
    fail.placements[1] = 2
    fail.failure_total[1] = 1.0
    fail.failure_mean[1] = 0.5
    update(learners, [4, 9], [0, 1, 0], NO_CHAINS, [0, 2, 0])
    assert fail.placements[1] == 4
    assert fail.failure_mean[1] == pytest.approx(0.5)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "update (as policy.learned_rows and lockstep.update) adds a slot's failure flag once "
    "but every placed copy to the count, "
    "so a chain that runs a VNF twice halves its estimate; ROADMAP.md item 3(c) of "
    "\"Make the reported numbers mean what their names say\" counts one observation "
    "per slot, and this marker goes when it lands"))
def test_failure_estimate_is_consistent_on_a_repeated_vnf() -> None:
    # acceptance criterion 7's failure check on the chain [0, 0], which places
    # two copies of VNF 0 in every slot, over 2000 slots instead of 10000
    users, p, v, slots, n_seeds = 5, 0.4, 0.3, 2_000, 100
    tol_v = 3.0 * math.sqrt(v * (1.0 - v) / slots)
    two_copies = [2]
    never = [0]
    ok_v = 0
    for seed in range(n_seeds):
        gt = make_ground_truth(p, [v], users=users, n_sfcs=1, rng_seed=seed)
        learners = _, fail = fresh(1, 1, users)
        for requests, failed in slot_rows(gt, 1, slots + 1):
            update(learners, requests, failed, never, two_copies)
        ok_v += abs(float(fail.failure_mean[0]) - v) < tol_v
    assert ok_v >= 95, f"failure mean within {tol_v:.4f} of {v} in {ok_v}/100 seeds"


def test_failure_update_skips_unplaced() -> None:
    _, fail = learners = fresh()
    update(learners, [4, 9], [1, 1, 1], NO_CHAINS, [0, 0, 0])
    assert fail.placements == [0, 0, 0]
    assert fail.failure_mean == [0.0, 0.0, 0.0]


def test_failure_estimate_bonus_and_clamp() -> None:
    _, fail = learners = fresh(users=1, failure_bonus_scale=1.0)
    fail.placements[:] = [8, 1, 0]
    fail.failure_total[:] = [1.6, 1.0, 0.0]
    fail.failure_mean[:] = [0.2, 1.0, 0.0]
    _, est = estimates(learners, math.e)
    assert est[0] == pytest.approx(0.2 + math.sqrt(3.0 / 16.0))
    assert est[1] == 1.0            # clamped from above
    assert est[2] == 0.0            # unexplored sentinel


def test_failure_estimate_optimistic_sign_clamps_at_zero() -> None:
    _, fail = learners = fresh(failure_bonus_scale=1.0, failure_bonus_sign=-1)
    fail.placements[:] = [1, 400, 0]
    fail.failure_total[:] = [0.1, 80.0, 0.0]
    fail.failure_mean[:] = [0.1, 0.2, 0.0]
    _, est = estimates(learners, 100)
    assert est[0] == 0.0                      # big bonus, clamped from below
    assert 0.0 < est[1] < 0.2                 # small bonus subtracts
    assert est[2] == 0.0


def test_estimates_reject_slot_zero() -> None:
    with pytest.raises(ValueError):
        estimates(fresh(), 0)


def test_chain_failure_rate_takes_worst_occurrence() -> None:
    cat = Catalog([1, 1, 1, 1], [[0, 2], [3, 3], [1]])
    rates = [0.1, 0.0, 0.7, 0.2]
    assert chain_failure_rate(cat, rates, 0) == pytest.approx(0.7)
    assert chain_failure_rate(cat, rates, 1) == pytest.approx(0.2)
    assert chain_failure_rate(cat, rates, 2) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20))
def test_counting_and_mean_identities(seed: int) -> None:
    # after any decision sequence: selected == sum of X, mean == average of
    # the requests over exactly the selected slots, placements == sum of copies
    rng = np.random.default_rng(seed)
    pop, fail = learners = fresh(n_sfcs=3, n_vnfs=4)
    x_hist, q_hist, p_hist, v_hist = [], [], [], []
    for t in range(1, 60):
        x = (rng.random(3) < 0.5).astype(np.int64)
        placed = rng.integers(0, 3, 4)
        requests = rng.integers(0, 11, 3)
        failed = (rng.random(4) < 0.3).astype(np.uint8)
        update(learners, requests.tolist(), failed.tolist(), x, placed)
        x_hist.append(x); q_hist.append(requests)
        p_hist.append(placed); v_hist.append(failed)
    x_all = np.array(x_hist); q_all = np.array(q_hist)
    p_all = np.array(p_hist); v_all = np.array(v_hist)
    assert np.array_equal(pop.selected, x_all.sum(axis=0))
    for f in range(3):
        picked = x_all[:, f] == 1
        if picked.any():
            assert pop.request_mean[f] == q_all[picked, f].mean()
    assert np.array_equal(fail.placements, p_all.sum(axis=0))
    for i in range(4):
        hit = p_all[:, i] > 0
        if hit.any():
            assert fail.failure_mean[i] == v_all[hit, i].sum() / p_all[:, i].sum()


def test_learner_converges_on_always_deploy() -> None:
    # quick version of the long-horizon consistency check
    gt = make_ground_truth(0.4, [0.3], users=10, n_sfcs=1, rng_seed=21)
    pop, fail = learners = fresh(1, 1, users=10)
    n = 2000
    for requests, failed in slot_rows(gt, 1, n + 1):
        update(learners, requests, failed, [1], [1])
    sigma_q = math.sqrt(10 * 0.4 * 0.6 / n)
    sigma_v = math.sqrt(0.3 * 0.7 / n)
    assert abs(pop.request_mean[0] - 4.0) < 4 * sigma_q
    assert abs(fail.failure_mean[0] - 0.3) < 4 * sigma_v
