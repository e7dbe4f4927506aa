from __future__ import annotations

import math

import numpy as np
import pytest

from sfcbackup import (Catalog, EdgeNetwork, FailureLearner, InvariantViolation,
                       PlacementPlan, PopularityLearner, RewardWeights,
                       SlotDecision, bandit_scheme_slot, chain_failure_rate,
                       default_config_path, expected_slot_value, failure_estimate,
                       failure_update, fresh_residual, init_learners, load_config,
                       make_ground_truth, plan_all, popularity_estimate,
                       popularity_update, pre_reward, random_scheme_slot,
                       realized_reward, rtsd_slot, sample_slot, slot_stream,
                       verify_decision)
from sfcbackup.workload import POLICY_DOMAIN, SlotObservation, rewind_stream


def learners_with(q_mean, v_mean, *, users: int = 10, selected: int = 5,
                  placements: int = 5, sign: int = 1, scale: float = 1.0):
    q_mean = np.asarray(q_mean, dtype=np.float64)
    v_mean = np.asarray(v_mean, dtype=np.float64)
    sel = np.full(q_mean.shape, selected, dtype=np.int64)
    plc = np.full(v_mean.shape, placements, dtype=np.int64)
    pop = PopularityLearner(users=users, selected=sel,
                            request_total=q_mean * sel,
                            request_mean=q_mean.copy(),
                            request_ucb=q_mean.copy())
    fail = FailureLearner(placements=plc, failure_total=v_mean * plc,
                          failure_mean=v_mean.copy(), failure_ucb=v_mean.copy(),
                          bonus_scale=scale, bonus_sign=sign)
    return pop, fail


def obs_of(t: int, requests, failed) -> SlotObservation:
    return SlotObservation(t=t, requests=np.asarray(requests, dtype=np.int64),
                           vnf_failed=np.asarray(failed, dtype=np.uint8))


# --- reward pieces ---------------------------------------------------------

def test_weights_validation() -> None:
    RewardWeights()
    RewardWeights(omega=2.0, mu=0.0)
    with pytest.raises(ValueError):
        RewardWeights(omega=0.0)
    with pytest.raises(ValueError):
        RewardWeights(mu=-0.1)


def test_pre_reward_hand_values() -> None:
    w = RewardWeights(omega=1.0, mu=1.0)
    assert pre_reward(w, 10.0, 2.0, 0.5) == pytest.approx(4.0)
    assert pre_reward(w, 3.0, 1.0, 0.0) == pytest.approx(2.0)
    # mu = 0 ignores latency entirely
    assert pre_reward(RewardWeights(omega=2.0, mu=0.0), 3.0, 99.0, 0.5) == pytest.approx(3.0)
    # the score may go negative; selection is what enforces positivity
    assert pre_reward(w, 1.0, 5.0, 0.5) == pytest.approx(-2.0)


def test_pre_reward_certain_failure_kills_infinite_optimism() -> None:
    w = RewardWeights()
    assert pre_reward(w, math.inf, 0.0, 1.0) == 0.0
    assert pre_reward(w, math.inf, math.inf, 1.0) == 0.0


def test_realized_reward_hand_values() -> None:
    cat = Catalog([2, 3], [[0, 0], [1]])
    w = RewardWeights()
    plan0 = PlacementPlan(sfc=0, assignment=(0, 0), latency=1.0, at_edge=True)
    dec = SlotDecision(t=3, deployed=[(0, plan0)],
                       x=np.array([1, 0], dtype=np.uint8),
                       placed_counts=np.array([2, 0], dtype=np.int64),
                       residual_after=np.zeros(1, dtype=np.int64))
    per, total = realized_reward(w, obs_of(3, [6, 9], [0, 0]), dec, cat)
    assert per.tolist() == [5.0, 0.0]
    assert total == 5.0
    # a failed constituent VNF voids the payoff, once, no matter how many copies
    per, total = realized_reward(w, obs_of(3, [6, 9], [1, 0]), dec, cat)
    assert per.tolist() == [0.0, 0.0]
    assert total == 0.0
    # no requests still pays the latency cost
    per, total = realized_reward(w, obs_of(3, [0, 9], [0, 1]), dec, cat)
    assert total == pytest.approx(-1.0)


def test_expected_slot_value_hand_case() -> None:
    cat = Catalog([2, 3], [[0, 1]])
    gt = make_ground_truth(0.6, [0.1, 0.25], users=5, n_sfcs=1, rng_seed=0)
    plan = PlacementPlan(sfc=0, assignment=(0, 0), latency=0.4, at_edge=True)
    dec = SlotDecision(t=1, deployed=[(0, plan)],
                       x=np.array([1], dtype=np.uint8),
                       placed_counts=np.array([1, 1], dtype=np.int64),
                       residual_after=np.zeros(1, dtype=np.int64))
    want = (1.0 * 3.0 - 1.0 * 0.4) * (1.0 - 0.25)
    assert expected_slot_value(RewardWeights(), gt, dec, cat) == pytest.approx(want)
    assert expected_slot_value(RewardWeights(), gt,
                               SlotDecision(1, [], np.zeros(1, np.uint8),
                                            np.zeros(2, np.int64),
                                            np.zeros(1, np.int64)), cat) == 0.0


# --- learned policies ------------------------------------------------------

def test_zero_capacity_deploys_nothing() -> None:
    net = EdgeNetwork([0, 0], {(0, 1): 1.0})
    cat = Catalog([1, 2], [[0], [1, 0]])
    pop, fail = learners_with([9.0, 9.0], [0.0, 0.0])
    dec = rtsd_slot(net, cat, (pop, fail), 4, obs_of(4, [1, 1], [0, 0]))
    assert dec.deployed == []
    assert dec.x.tolist() == [0, 0]
    assert dec.residual_after.tolist() == [0, 0]


def test_ample_capacity_commits_in_score_order() -> None:
    net = EdgeNetwork([100, 100], {(0, 1): 0.5})
    cat = Catalog([2, 2, 2], [[0], [1], [2]])
    pop, fail = learners_with([5.0, 4.0, 3.0], [0.0, 0.0, 0.0], selected=1000,
                              placements=1000, users=0)
    dec = rtsd_slot(net, cat, (pop, fail), 2, obs_of(2, [0, 0, 0], [0, 0, 0]))
    assert [f for f, _ in dec.deployed] == [0, 1, 2]
    assert dec.x.tolist() == [1, 1, 1]
    assert all(plan.latency == 0.0 for _, plan in dec.deployed)


def test_equal_scores_commit_smallest_sfc_first() -> None:
    net = EdgeNetwork([100], ())
    cat = Catalog([2], [[0], [0]])
    pop, fail = learners_with([4.0, 4.0], [0.0], selected=1000, placements=1000,
                              users=0)
    dec = rtsd_slot(net, cat, (pop, fail), 2, obs_of(2, [0, 0], [0]))
    assert [f for f, _ in dec.deployed] == [0, 1]


def test_nonpositive_scores_are_never_committed() -> None:
    net = EdgeNetwork([100], ())
    cat = Catalog([2], [[0], [0]])
    # popularity 0 and zero latency gives score exactly 0: stay out
    pop, fail = learners_with([0.0, 0.0], [0.0], selected=1000, placements=1000,
                              users=0)
    dec = rtsd_slot(net, cat, (pop, fail), 2, obs_of(2, [0, 0], [0]))
    assert dec.deployed == []


def test_walks_differ_between_learned_policies() -> None:
    # greedy anchors at the big server and can step back to the small one;
    # the forward-only first fit strands the second occurrence
    net = EdgeNetwork([4, 10], {(0, 1): 0.9})
    cat = Catalog([4, 8], [[1, 0]])
    args = dict(selected=1000, placements=1000, users=0)
    pop, fail = learners_with([6.0], [0.0, 0.0], **args)
    dec = rtsd_slot(net, cat, (pop, fail), 2, obs_of(2, [0], [0, 0]))
    assert [f for f, _ in dec.deployed] == [0]
    assert dec.deployed[0][1].assignment == (1, 0)
    assert dec.deployed[0][1].latency == pytest.approx(0.9)

    pop, fail = learners_with([6.0], [0.0, 0.0], **args)
    dec = bandit_scheme_slot(net, cat, (pop, fail), 2, obs_of(2, [0], [0, 0]))
    assert dec.deployed == []


def test_learned_policies_update_only_deployed_arms() -> None:
    net = EdgeNetwork([6], ())
    cat = Catalog([6, 6], [[0], [1]])
    pop, fail = learners_with([5.0, 4.0], [0.0, 0.0], selected=2, placements=2,
                              users=0)
    dec = rtsd_slot(net, cat, (pop, fail), 3, obs_of(3, [4, 4], [1, 1]))
    # capacity admits one chain; the higher estimate wins
    assert dec.x.tolist() == [1, 0]
    assert pop.selected.tolist() == [3, 2]
    assert pop.request_mean[0] == pytest.approx((10.0 + 4.0) / 3)
    assert pop.request_mean[1] == pytest.approx(4.0)
    assert fail.placements.tolist() == [3, 2]
    assert fail.failure_mean[0] == pytest.approx(1.0 / 3)
    assert fail.failure_mean[1] == pytest.approx(0.0)


def test_slot_call_stashes_the_estimates_it_used() -> None:
    net = EdgeNetwork([6], ())
    cat = Catalog([3], [[0]])
    pop, fail = learners_with([5.0], [0.1], selected=4, placements=4, users=2)
    t = 7
    want_q = popularity_estimate(pop, t).copy()
    want_v = failure_estimate(fail, t).copy()
    rtsd_slot(net, cat, (pop, fail), t, obs_of(t, [2], [0]))
    assert pop.request_ucb.tolist() == want_q.tolist()
    assert fail.failure_ucb.tolist() == want_v.tolist()


# --- trace equivalence against a plain-surface reference -------------------

def reference_slot(net, cat, pop, fail, t, weights):
    """Selection loop written directly on the module surface, no kernel."""
    q = popularity_estimate(pop, t)
    v = failure_estimate(fail, t)
    residual = fresh_residual(net)
    done: set[int] = set()
    deployed = []
    while True:
        plans = plan_all(net, cat, residual, skip=done)
        best_f, best_score, best_plan = -1, 0.0, None
        for f in sorted(plans):
            plan = plans[f]
            if not plan.at_edge:
                continue
            score = pre_reward(weights, q[f], plan.latency,
                               chain_failure_rate(cat, v, f))
            if score > best_score:
                best_f, best_score, best_plan = f, score, plan
        if best_f < 0:
            break
        chain = cat.sfc_chain[best_f]
        for pos, s in enumerate(best_plan.assignment):
            residual[s] -= cat.vnf_demand[chain[pos]]
        done.add(best_f)
        deployed.append((best_f, best_plan))
    return deployed, residual, q, v


def test_rtsd_matches_reference_loop_over_a_trace() -> None:
    net = EdgeNetwork([10, 8, 9], {(0, 1): 0.6, (0, 2): 1.0, (1, 2): 0.5})
    cat = Catalog([5, 4, 3, 2, 6], [[0, 1], [2, 3, 2], [4, 1], [3, 3, 3]])
    gt = make_ground_truth([0.8, 0.6, 0.5, 0.3], [0.05, 0.1, 0.02, 0.3, 0.08],
                           users=6, n_sfcs=4, rng_seed=7)
    w = RewardWeights(omega=1.0, mu=0.7)

    obs0 = sample_slot(gt, 0)
    live = init_learners(obs0, gt.n_users, failure_bonus_scale=1.0,
                         failure_bonus_sign=-1)
    ref = init_learners(obs0, gt.n_users, failure_bonus_scale=1.0,
                        failure_bonus_sign=-1)

    any_deployed = False
    for t in range(1, 31):
        obs = sample_slot(gt, t)
        dec = rtsd_slot(net, cat, live, t, obs, w)
        want, want_res, want_q, want_v = reference_slot(net, cat, *ref, t, w)

        assert [f for f, _ in dec.deployed] == [f for f, _ in want]
        for (_, got_plan), (_, ref_plan) in zip(dec.deployed, want):
            assert got_plan.assignment == ref_plan.assignment
            assert got_plan.latency == ref_plan.latency
        assert dec.residual_after.tolist() == want_res.tolist()
        assert live[0].request_ucb.tolist() == want_q.tolist()
        assert live[1].failure_ucb.tolist() == want_v.tolist()

        x_ref = np.zeros(cat.n_sfcs, dtype=np.uint8)
        placed_ref = np.zeros(cat.n_vnfs, dtype=np.int64)
        for f, _ in want:
            x_ref[f] = 1
            for i in cat.sfc_chain[f]:
                placed_ref[i] += 1
        ref[0].request_ucb = want_q
        ref[1].failure_ucb = want_v
        popularity_update(ref[0], obs, x_ref)
        failure_update(ref[1], obs, placed_ref)

        assert live[0].selected.tolist() == ref[0].selected.tolist()
        assert live[0].request_total.tolist() == ref[0].request_total.tolist()
        assert live[1].placements.tolist() == ref[1].placements.tolist()
        assert live[1].failure_total.tolist() == ref[1].failure_total.tolist()
        any_deployed = any_deployed or bool(dec.deployed)
    assert any_deployed


# --- random scheme ---------------------------------------------------------

def test_random_scheme_zero_capacity() -> None:
    net = EdgeNetwork([0, 0], {(0, 1): 1.0})
    cat = Catalog([1], [[0]])
    rng = slot_stream(3, 1, POLICY_DOMAIN)
    dec = random_scheme_slot(net, cat, 1, obs_of(1, [2], [0]), rng)
    assert dec.deployed == []


def test_random_scheme_is_deterministic_per_stream() -> None:
    net = EdgeNetwork([9, 9], {(0, 1): 0.4})
    cat = Catalog([3, 4], [[0, 1], [1], [0, 0]])
    obs = obs_of(5, [1, 1, 1], [0, 0])
    a = random_scheme_slot(net, cat, 5, obs, slot_stream(11, 5, POLICY_DOMAIN))
    b = random_scheme_slot(net, cat, 5, obs, slot_stream(11, 5, POLICY_DOMAIN))
    assert a.x.tolist() == b.x.tolist()
    assert [(f, p.assignment) for f, p in a.deployed] == \
           [(f, p.assignment) for f, p in b.deployed]


def test_random_scheme_on_a_rewound_generator_matches_a_fresh_one() -> None:
    cfg = load_config(default_config_path())
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                           cfg.catalog.n_sfcs, 21)
    seed = gt.rng_seed
    reused = slot_stream(seed, 1, POLICY_DOMAIN)
    half_buffered = 0
    for t in range(1, 41):
        obs = sample_slot(gt, t)
        a = random_scheme_slot(cfg.network, cfg.catalog, t, obs,
                               rewind_stream(reused, seed, t, POLICY_DOMAIN))
        b = random_scheme_slot(cfg.network, cfg.catalog, t, obs,
                               slot_stream(seed, t, POLICY_DOMAIN))
        assert [(f, p.assignment, p.latency) for f, p in a.deployed] == \
               [(f, p.assignment, p.latency) for f, p in b.deployed]
        for field in ("x", "placed_counts", "residual_after"):
            assert getattr(a, field).tolist() == getattr(b, field).tolist()
        # the next rewind must also drop a buffered 32-bit half
        half_buffered += reused.bit_generator.state["has_uint32"]
    assert half_buffered > 0


def test_random_scheme_splits_contended_capacity_evenly() -> None:
    # one server, room for exactly one of two identical chains
    net = EdgeNetwork([5], ())
    cat = Catalog([5], [[0], [0]])
    obs = obs_of(1, [0, 0], [0])
    wins = 0
    slots = 400
    for t in range(1, slots + 1):
        dec = random_scheme_slot(net, cat, t, obs,
                                 slot_stream(2, t, POLICY_DOMAIN))
        assert int(dec.x.sum()) == 1
        wins += int(dec.x[0])
    # binomial(400, .5) has sigma 10; stay 5 sigma inside
    assert 150 <= wins <= 250


def test_random_scheme_rejects_unlinked_crossings() -> None:
    # capacity would allow a split, but the servers share no link
    net = EdgeNetwork([5, 5], ())
    cat = Catalog([3], [[0, 0]])
    for t in range(1, 30):
        dec = random_scheme_slot(net, cat, t, obs_of(t, [4], [0]),
                                 slot_stream(9, t, POLICY_DOMAIN))
        assert dec.deployed == []
        assert dec.residual_after.tolist() == [5, 5]


# --- Monte-Carlo consistency of realized vs expected -----------------------

def test_realized_reward_averages_to_expected_value() -> None:
    # one fallible VNF per chain keeps the survival chance equal to 1 - max rate
    cat = Catalog([2, 3], [[0, 1]])
    gt = make_ground_truth(0.6, [0.3, 0.0], users=5, n_sfcs=1, rng_seed=123)
    plan = PlacementPlan(sfc=0, assignment=(0, 0), latency=0.5, at_edge=True)
    dec = SlotDecision(t=1, deployed=[(0, plan)],
                       x=np.array([1], dtype=np.uint8),
                       placed_counts=np.array([1, 1], dtype=np.int64),
                       residual_after=np.zeros(1, dtype=np.int64))
    w = RewardWeights()
    want = expected_slot_value(w, gt, dec, cat)
    assert want == pytest.approx((3.0 - 0.5) * 0.7)

    slots = 20000
    total = 0.0
    sq = 0.0
    for t in range(1, slots + 1):
        _, r = realized_reward(w, sample_slot(gt, t), dec, cat)
        total += r
        sq += r * r
    mean = total / slots
    var = sq / slots - mean * mean
    assert abs(mean - want) < 4.0 * math.sqrt(var / slots)


# --- invariant checker -----------------------------------------------------

def legit_decision():
    net = EdgeNetwork([10, 8], {(0, 1): 0.5})
    cat = Catalog([4, 3], [[0, 1], [1]])
    pop, fail = learners_with([6.0, 5.0], [0.0, 0.0], selected=1000,
                              placements=1000, users=0)
    dec = rtsd_slot(net, cat, (pop, fail), 2, obs_of(2, [1, 1], [0, 0]))
    assert dec.deployed
    return net, cat, dec


def test_verify_decision_accepts_policy_output() -> None:
    net, cat, dec = legit_decision()
    verify_decision(net, cat, dec)


def test_verify_decision_catches_tampered_backup_vector() -> None:
    net, cat, dec = legit_decision()
    dec.x[dec.deployed[0][0]] = 0
    with pytest.raises(InvariantViolation):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_residual_mismatch() -> None:
    net, cat, dec = legit_decision()
    dec.residual_after[0] += 1
    with pytest.raises(InvariantViolation):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_duplicate_commit() -> None:
    net, cat, dec = legit_decision()
    dec.deployed.append(dec.deployed[0])
    with pytest.raises(InvariantViolation):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_overload() -> None:
    net = EdgeNetwork([3], ())
    cat = Catalog([4], [[0]])
    plan = PlacementPlan(sfc=0, assignment=(0,), latency=0.0, at_edge=True)
    dec = SlotDecision(t=1, deployed=[(0, plan)],
                       x=np.array([1], dtype=np.uint8),
                       placed_counts=np.array([1], dtype=np.int64),
                       residual_after=np.array([-1], dtype=np.int64))
    with pytest.raises(InvariantViolation):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_cloud_commit() -> None:
    net = EdgeNetwork([10], ())
    cat = Catalog([4], [[0]])
    plan = PlacementPlan(sfc=0, assignment=(), latency=math.inf, at_edge=False)
    dec = SlotDecision(t=1, deployed=[(0, plan)],
                       x=np.array([1], dtype=np.uint8),
                       placed_counts=np.array([1], dtype=np.int64),
                       residual_after=np.array([10], dtype=np.int64))
    with pytest.raises(InvariantViolation):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_infinite_latency_commit() -> None:
    net, cat, dec = legit_decision()
    f, plan = dec.deployed[0]
    dec.deployed[0] = (f, PlacementPlan(sfc=f, assignment=plan.assignment,
                                        latency=math.inf, at_edge=True))
    with pytest.raises(InvariantViolation, match="infinite latency"):
        verify_decision(net, cat, dec)


@pytest.mark.parametrize("server", [2, 7, -1, -2])
def test_verify_decision_catches_unknown_server(server: int) -> None:
    # -1 and -2 would silently index a two-server list from the end
    net, cat, dec = legit_decision()
    f, plan = dec.deployed[0]
    bad = (server,) + plan.assignment[1:]
    dec.deployed[0] = (f, PlacementPlan(sfc=f, assignment=bad,
                                        latency=plan.latency, at_edge=True))
    with pytest.raises(InvariantViolation, match=f"unknown server {server}"):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_placement_count_mismatch() -> None:
    net, cat, dec = legit_decision()
    dec.placed_counts[cat.sfc_chain[dec.deployed[0][0]][0]] += 1
    with pytest.raises(InvariantViolation, match="placement counts"):
        verify_decision(net, cat, dec)
