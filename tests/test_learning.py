from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcbackup import Catalog, make_ground_truth
from sfcbackup.learning import (chain_failure_rate, failure_estimate, failure_update,
                                init_learners, popularity_estimate, popularity_update)

from reference import array_estimates, array_updates, as_arrays, slot_rows


def fresh(n_sfcs: int = 2, n_vnfs: int = 3, users: int = 10, **kw):
    return init_learners(n_sfcs, n_vnfs, users, **kw)


def test_init_learners_start_at_zero() -> None:
    pop, fail = init_learners(2, 3, users=10)
    assert pop.users == 10
    assert pop.selected == [0, 0]
    assert pop.request_total == pop.request_mean == [0.0, 0.0]
    assert fail.placements == [0, 0, 0]
    assert fail.failure_total == fail.failure_mean == [0.0, 0.0, 0.0]
    assert fail.bonus_scale == 10.0 and fail.bonus_sign == 1


def test_popularity_update_first_pull() -> None:
    pop, _ = fresh()
    popularity_update(pop, [4, 9], [1, 0])
    assert pop.selected == [1, 0]
    assert pop.request_mean == [4.0, 0.0]


def test_popularity_update_running_mean() -> None:
    pop, _ = fresh()
    popularity_update(pop, [4, 0], [1, 0])
    popularity_update(pop, [2, 5], [1, 0])
    assert pop.selected == [2, 0]
    assert pop.request_mean[0] == pytest.approx(3.0)
    # the unselected arm never moved
    assert pop.request_mean[1] == 0.0 and pop.selected[1] == 0


def test_popularity_estimate_no_bonus_at_t1() -> None:
    pop, _ = fresh()
    popularity_update(pop, [4, 0], [1, 0])
    est = popularity_estimate(pop, 1)
    assert est[0] == 4.0           # ln 1 = 0, bare mean
    assert math.isinf(est[1])      # unexplored arm forces a pull


def test_popularity_estimate_bonus_value() -> None:
    pop, _ = fresh(users=5)
    popularity_update(pop, [3, 0], [1, 0])
    est = popularity_estimate(pop, math.e)
    assert est[0] == pytest.approx(3.0 + 5.0 * math.sqrt(1.5))


def test_popularity_bonus_shrinks_with_count() -> None:
    pop, _ = fresh(users=5)
    values = []
    for t in range(1, 6):
        popularity_update(pop, [3, 0], [1, 0])
        values.append(popularity_estimate(pop, 10)[0])
    assert values == sorted(values, reverse=True)


def test_failure_update_counts_copies_but_one_flag() -> None:
    _, fail = fresh()
    failure_update(fail, [1, 0, 0], [1, 0, 0])
    assert fail.placements == [1, 0, 0]
    assert fail.failure_mean[0] == 1.0
    # two copies placed, one observed flag: mean stays put at 0.5
    fail.placements[1] = 2
    fail.failure_total[1] = 1.0
    fail.failure_mean[1] = 0.5
    failure_update(fail, [0, 1, 0], [0, 2, 0])
    assert fail.placements[1] == 4
    assert fail.failure_mean[1] == pytest.approx(0.5)


def test_failure_update_skips_unplaced() -> None:
    _, fail = fresh()
    failure_update(fail, [1, 1, 1], [0, 0, 0])
    assert fail.placements == [0, 0, 0]
    assert fail.failure_mean == [0.0, 0.0, 0.0]


def test_failure_estimate_bonus_and_clamp() -> None:
    _, fail = fresh(users=1, failure_bonus_scale=1.0)
    fail.placements[:] = [8, 1, 0]
    fail.failure_total[:] = [1.6, 1.0, 0.0]
    fail.failure_mean[:] = [0.2, 1.0, 0.0]
    est = failure_estimate(fail, math.e)
    assert est[0] == pytest.approx(0.2 + math.sqrt(3.0 / 16.0))
    assert est[1] == 1.0            # clamped from above
    assert est[2] == 0.0            # unexplored sentinel


def test_failure_estimate_optimistic_sign_clamps_at_zero() -> None:
    _, fail = fresh(failure_bonus_scale=1.0, failure_bonus_sign=-1)
    fail.placements[:] = [1, 400, 0]
    fail.failure_total[:] = [0.1, 80.0, 0.0]
    fail.failure_mean[:] = [0.1, 0.2, 0.0]
    est = failure_estimate(fail, 100)
    assert est[0] == 0.0                      # big bonus, clamped from below
    assert 0.0 < est[1] < 0.2                 # small bonus subtracts
    assert est[2] == 0.0


def test_estimates_reject_slot_zero() -> None:
    pop, fail = fresh()
    with pytest.raises(ValueError):
        popularity_estimate(pop, 0)
    with pytest.raises(ValueError):
        failure_estimate(fail, 0)


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
    pop, fail = fresh(n_sfcs=3, n_vnfs=4)
    x_hist, q_hist, p_hist, v_hist = [], [], [], []
    for t in range(1, 60):
        x = (rng.random(3) < 0.5).astype(np.int64)
        placed = rng.integers(0, 3, 4)
        requests = rng.integers(0, 11, 3)
        failed = (rng.random(4) < 0.3).astype(np.uint8)
        popularity_update(pop, requests.tolist(), x)
        failure_update(fail, failed.tolist(), placed)
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
    pop, fail = init_learners(1, 1, users=10)
    n = 2000
    for requests, failed in slot_rows(gt, 1, n + 1):
        popularity_update(pop, requests, [1])
        failure_update(fail, failed, [1])
    sigma_q = math.sqrt(10 * 0.4 * 0.6 / n)
    sigma_v = math.sqrt(0.3 * 0.7 / n)
    assert abs(pop.request_mean[0] - 4.0) < 4 * sigma_q
    assert abs(fail.failure_mean[0] - 0.3) < 4 * sigma_v


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20), st.integers(min_value=1, max_value=15),
       st.floats(min_value=0.05, max_value=5.0), st.sampled_from([-1, 1]))
def test_learners_match_array_formulas_bit_for_bit(seed: int, users: int, scale: float,
                                                   sign: int) -> None:
    rng = np.random.default_rng(seed)
    pop, fail = fresh(n_sfcs=4, n_vnfs=5, users=users,
                      failure_bonus_scale=scale, failure_bonus_sign=sign)
    ref_pop, ref_fail = as_arrays(*fresh(n_sfcs=4, n_vnfs=5, users=users,
                                         failure_bonus_scale=scale, failure_bonus_sign=sign))
    for t in range(1, 80):
        q, v = popularity_estimate(pop, t), failure_estimate(fail, t)
        q_ref, v_ref = array_estimates(ref_pop, ref_fail, t)
        assert q == q_ref.tolist() and v == v_ref.tolist()
        x = (rng.random(4) < 0.5).astype(np.uint8)
        placed = rng.integers(0, 4, 5)
        requests = rng.integers(0, users + 1, 4).tolist()
        failed = (rng.random(5) < 0.4).astype(np.uint8).tolist()
        popularity_update(pop, requests, x.tolist())
        failure_update(fail, failed, placed.tolist())
        array_updates(ref_pop, ref_fail, requests, failed, x, placed)
        for name in ("selected", "request_total", "request_mean"):
            assert getattr(pop, name) == getattr(ref_pop, name).tolist()
        for name in ("placements", "failure_total", "failure_mean"):
            assert getattr(fail, name) == getattr(ref_fail, name).tolist()
