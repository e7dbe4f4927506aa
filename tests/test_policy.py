from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from sfcbackup import (Catalog, EdgeNetwork, InvariantViolation, RewardWeights,
                       default_config_path, load_config, make_ground_truth, run)
from sfcbackup import kernels, lockstep
from sfcbackup.harness import PLACEMENT_MODES
from sfcbackup.kernels import PlanGraph
from sfcbackup.policy import learned_rows
from sfcbackup.workload import policy_uniform_block

from reference import (PlacementPlan, SlotDecision, estimates, expected_slot_value,
                       fresh_learners, learner_row, random_slots, realized_reward, records,
                       reference_random_slot, select, slot_rows, uniform_layout, update,
                       verified_slot, verify_decision)


def learners_with(q_mean, v_mean, *, users: int = 10, selected: int = 5,
                  placements: int = 5, sign: int = 1, scale: float = 1.0) -> lockstep.Learners:
    """A one-row lockstep.Learners whose arms were all pulled and placed as often."""
    learners = lockstep.Learners.fresh(1, len(q_mean), len(v_mean), users, scale, sign)
    learners.selected[0] = selected
    learners.request_total[0] = [q * selected for q in q_mean]
    learners.request_mean[0] = q_mean
    learners.placements[0] = placements
    learners.failure_total[0] = [v * placements for v in v_mean]
    learners.failure_mean[0] = v_mean
    return learners


def slot_of(policy: str, net: EdgeNetwork, cat: Catalog, learners, t: int,
            requests: list[int], failed: list[int],
            weights: RewardWeights = RewardWeights()) -> SlotDecision:
    """verified_slot of rtsd or bandit on a fresh plan graph."""
    graph = PlanGraph(net, cat, PLACEMENT_MODES[policy])
    return verified_slot(learners, t, requests, failed, weights, graph)


# --- reward pieces ---------------------------------------------------------

def test_weights_validation() -> None:
    RewardWeights()
    RewardWeights(omega=2.0, mu=0.0)
    with pytest.raises(ValueError):
        RewardWeights(omega=0.0)
    with pytest.raises(ValueError):
        RewardWeights(mu=-0.1)


def test_realized_reward_hand_values() -> None:
    cat = Catalog([2, 3], [[0, 0], [1]])
    w = RewardWeights()
    plan0 = PlacementPlan(sfc=0, assignment=(0, 0), latency=1.0)
    dec = SlotDecision(t=3, deployed=[(0, plan0)],
                       x=np.array([1, 0], dtype=np.uint8),
                       placed_counts=np.array([2, 0], dtype=np.int64),
                       residual_after=np.zeros(1, dtype=np.int64))
    per, total = realized_reward(w, [6, 9], [0, 0], dec, cat)
    assert per.tolist() == [5.0, 0.0]
    assert total == 5.0
    # a failed constituent VNF voids the payoff, once, no matter how many copies
    per, total = realized_reward(w, [6, 9], [1, 0], dec, cat)
    assert per.tolist() == [0.0, 0.0]
    assert total == 0.0
    # no requests still pays the latency cost
    per, total = realized_reward(w, [0, 9], [0, 1], dec, cat)
    assert total == pytest.approx(-1.0)


def test_expected_slot_value_hand_case() -> None:
    cat = Catalog([2, 3], [[0, 1]])
    gt = make_ground_truth(0.6, [0.1, 0.25], users=5, n_sfcs=1, rng_seed=0)
    plan = PlacementPlan(sfc=0, assignment=(0, 0), latency=0.4)
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


def test_slot_values_rows_take_the_hand_values() -> None:
    # the two hand cases above, as rows of lockstep.slot_values
    w = RewardWeights()
    net = EdgeNetwork([4], ())
    cat = Catalog([2, 3], [[0, 0], [1]])
    plan0 = PlacementPlan(sfc=0, assignment=(0, 0), latency=1.0)
    rec = records([[(0, plan0)]] * 3, [[0]] * 3)
    ones = np.ones((3, 2))
    layout = lockstep.Layout.of(net, cat)
    # the failed VNF runs twice in chain 0 and voids its payoff once; no
    # requests still pays the latency cost
    failed = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.uint8)
    values = lockstep.slot_values(layout, w.omega, w.mu,
                                  np.array([[6, 9], [6, 9], [0, 9]], dtype=np.int64),
                                  (failed @ layout.uses) == 0, rec, ones, ones)
    assert values["realized"] == [5.0, 0.0, -1.0]
    assert values["remaining"] == [0, 0, 0]
    assert values["deployed"] == [1, 1, 1]

    net = EdgeNetwork([5], ())
    cat = Catalog([2, 3], [[0, 1]])
    gt = make_ground_truth(0.6, [0.1, 0.25], users=5, n_sfcs=1, rng_seed=0)
    plan = PlacementPlan(sfc=0, assignment=(0, 0), latency=0.4)
    dec = SlotDecision(t=1, deployed=[(0, plan)], x=[1], placed_counts=[1, 1],
                       residual_after=[0])
    rec = records([dec.deployed, []], [[0], [5]])
    layout = lockstep.Layout.of(net, cat)
    value_true, gate_true = lockstep.true_values(layout, [gt, gt], w)
    values = lockstep.slot_values(layout, w.omega, w.mu,
                                  np.array([[2], [4]], dtype=np.int64),
                                  np.array([[False], [True]]),
                                  rec, value_true, gate_true)
    assert values["expected"] == [expected_slot_value(w, gt, dec, cat), 0.0]
    assert values["expected"][0] == pytest.approx((1.0 * 3.0 - 1.0 * 0.4) * (1.0 - 0.25))
    assert values["realized"] == [0.0, 0.0]
    assert values["remaining"] == [0, 5]
    assert values["deployed"] == [1, 0]


# --- learned policies ------------------------------------------------------

def test_zero_capacity_deploys_nothing() -> None:
    net = EdgeNetwork([0, 0], {(0, 1): 1.0})
    cat = Catalog([1, 2], [[0], [1, 0]])
    learners = learners_with([9.0, 9.0], [0.0, 0.0])
    dec = slot_of("rtsd", net, cat, learners, 4, [1, 1], [0, 0])
    assert dec.deployed == []
    assert dec.x == [0, 0]
    assert dec.residual_after == [0, 0]


def test_ample_capacity_commits_in_score_order() -> None:
    net = EdgeNetwork([100, 100], {(0, 1): 0.5})
    cat = Catalog([2, 2, 2], [[0], [1], [2]])
    learners = learners_with([5.0, 4.0, 3.0], [0.0, 0.0, 0.0], selected=1000,
                              placements=1000, users=0)
    dec = slot_of("rtsd", net, cat, learners, 2, [0, 0, 0], [0, 0, 0])
    assert [f for f, _ in dec.deployed] == [0, 1, 2]
    assert dec.x == [1, 1, 1]
    assert all(plan.latency == 0.0 for _, plan in dec.deployed)


def test_equal_scores_commit_smallest_sfc_first() -> None:
    net = EdgeNetwork([100], ())
    cat = Catalog([2], [[0], [0]])
    learners = learners_with([4.0, 4.0], [0.0], selected=1000, placements=1000,
                              users=0)
    dec = slot_of("rtsd", net, cat, learners, 2, [0, 0], [0])
    assert [f for f, _ in dec.deployed] == [0, 1]


def test_nonpositive_scores_are_never_committed() -> None:
    net = EdgeNetwork([100], ())
    cat = Catalog([2], [[0], [0]])
    # popularity 0 and zero latency gives score exactly 0: stay out
    learners = learners_with([0.0, 0.0], [0.0], selected=1000, placements=1000,
                              users=0)
    dec = slot_of("rtsd", net, cat, learners, 2, [0, 0], [0])
    assert dec.deployed == []


def test_walks_differ_between_learned_policies() -> None:
    # greedy anchors at the big server and can step back to the small one;
    # the forward-only first fit strands the second occurrence
    net = EdgeNetwork([4, 10], {(0, 1): 0.9})
    cat = Catalog([4, 8], [[1, 0]])
    args = dict(selected=1000, placements=1000, users=0)
    learners = learners_with([6.0], [0.0, 0.0], **args)
    dec = slot_of("rtsd", net, cat, learners, 2, [0], [0, 0])
    assert [f for f, _ in dec.deployed] == [0]
    assert dec.deployed[0][1].assignment == (1, 0)
    assert dec.deployed[0][1].latency == pytest.approx(0.9)

    learners = learners_with([6.0], [0.0, 0.0], **args)
    dec = slot_of("bandit", net, cat, learners, 2, [0], [0, 0])
    assert dec.deployed == []


def test_learned_policies_update_only_deployed_arms() -> None:
    net = EdgeNetwork([6], ())
    cat = Catalog([6, 6], [[0], [1]])
    learners = learners_with([5.0, 4.0], [0.0, 0.0], selected=2, placements=2,
                              users=0)
    dec = slot_of("rtsd", net, cat, learners, 3, [4, 4], [1, 1])
    # capacity admits one chain; the higher estimate wins
    assert dec.x == [1, 0]
    pop, fail = learner_row(learners, 0)
    assert pop.selected == [3, 2]
    assert pop.request_mean[0] == pytest.approx((10.0 + 4.0) / 3)
    assert pop.request_mean[1] == pytest.approx(4.0)
    assert fail.placements == [3, 2]
    assert fail.failure_mean[0] == pytest.approx(1.0 / 3)
    assert fail.failure_mean[1] == pytest.approx(0.0)


def test_rtsd_matches_reference_loop_over_a_trace() -> None:
    # policy.learned_rows, slot after slot on a hand instance, against the
    # unpruned select and the learners' formulas on a reference pair
    net = EdgeNetwork([10, 8, 9], {(0, 1): 0.6, (0, 2): 1.0, (1, 2): 0.5})
    cat = Catalog([5, 4, 3, 2, 6], [[0, 1], [2, 3, 2], [4, 1], [3, 3, 3]])
    gt = make_ground_truth([0.8, 0.6, 0.5, 0.3], [0.05, 0.1, 0.02, 0.3, 0.08],
                           users=6, n_sfcs=4, rng_seed=7)
    w = RewardWeights(omega=1.0, mu=0.7)

    live = lockstep.Learners.fresh(1, cat.n_sfcs, cat.n_vnfs, gt.n_users, 1.0, -1)
    ref = fresh_learners(cat.n_sfcs, cat.n_vnfs, gt.n_users, failure_bonus_scale=1.0,
                         failure_bonus_sign=-1)

    any_deployed = False
    for t, (requests, failed) in enumerate(slot_rows(gt, 1, 31), start=1):
        ref_q, ref_v = estimates(ref, t)
        assert (ref_q, ref_v) == estimates(learner_row(live, 0), t)
        dec = slot_of("rtsd", net, cat, live, t, requests, failed, w)
        want, want_res = select(net, cat, True, ref_q, ref_v, w.omega, w.mu)

        assert [f for f, _ in dec.deployed] == [f for f, _ in want]
        for (_, got_plan), (_, ref_plan) in zip(dec.deployed, want):
            assert got_plan.assignment == ref_plan.assignment
            assert got_plan.latency == ref_plan.latency
        assert dec.residual_after == want_res

        x_ref = [0] * cat.n_sfcs
        placed_ref = [0] * cat.n_vnfs
        for f, _ in want:
            x_ref[f] = 1
            for i in cat.sfc_chain[f]:
                placed_ref[i] += 1
        update(ref, requests, failed, x_ref, placed_ref)

        for learner, ref_learner in zip(learner_row(live, 0), ref):
            assert vars(learner) == vars(ref_learner)
        any_deployed = any_deployed or bool(dec.deployed)
    assert any_deployed


# --- random scheme ---------------------------------------------------------
#
# lockstep.random_rows decides many slots at once: each test hands it all its
# slots' uniforms as the rows of one array.

def uniforms(seed: int, t0: int, t1: int, cat: Catalog) -> np.ndarray:
    """Slots t0 .. t1-1's policy uniforms, one row per slot."""
    return policy_uniform_block([seed], t0, t1, uniform_layout(cat)[0])[:, 0]


def test_random_scheme_follows_the_permutation_scan_law() -> None:
    # the small-regret instance: about 180 distinct outcomes, most with room contention
    net = EdgeNetwork([10, 8, 6], [[0, 1, 0.4], [1, 2, 0.7], [0, 2, 1.1]])
    cat = Catalog([3, 4, 2, 5], [[0, 1], [2, 3, 2], [1, 1]])
    n_slots = 10_000
    rng = np.random.default_rng(2024)
    ref = Counter(reference_random_slot(net, cat, rng) for _ in range(n_slots))
    ours = Counter(frozenset((f, p.assignment) for f, p in deployed)
                   for deployed, _ in random_slots(net, cat, uniforms(7, 1, n_slots + 1, cat)))
    # two-sample chi-square over outcomes, cells with fewer than 10 hits pooled
    stat, cells, pooled = 0.0, 0, [0, 0]
    for outcome in set(ref) | set(ours):
        a, b = ref[outcome], ours[outcome]
        if a + b < 10:
            pooled[0] += a
            pooled[1] += b
            continue
        stat += (a - b) ** 2 / (a + b)
        cells += 1
    if sum(pooled):
        stat += (pooled[0] - pooled[1]) ** 2 / sum(pooled)
        cells += 1
    df = cells - 1
    assert df >= 100
    # six standard deviations above the mean: an upper tail below 1e-6 at this df
    assert stat < df + 6 * math.sqrt(2 * df), (stat, df)


def test_random_scheme_reads_the_documented_layout() -> None:
    net = EdgeNetwork([9, 9, 9], {(0, 1): 0.4, (1, 2): 0.5, (0, 2): 0.6})
    cat = Catalog([3, 4], [[0, 1], [1], [0, 0]])
    width, starts = uniform_layout(cat)
    assert (width, starts) == (8, [3, 5, 6])
    assert lockstep.Layout.of(net, cat).width == width
    # chains ranked 2, 0, 1; each pick reads u[starts[f] + j]
    u = [0.5, 0.9, 0.1,      # ranks
         0.0, 0.99,          # chain 0
         0.5,                # chain 1
         0.7, 0.3]           # chain 2
    [(deployed, residual)] = random_slots(net, cat, [u])
    # chain 2: all three servers fit -> index 2, then index 0; rooms [6, 9, 6].
    # chain 0: index 0 -> server 0; rooms [3, 9, 6] leave servers 1, 2 for demand 4
    # -> index 1 -> server 2. chain 1: only server 1 holds 4.
    assert [(f, p.assignment) for f, p in deployed] == [(2, (2, 0)), (0, (0, 2)), (1, (1,))]
    assert [p.latency for _, p in deployed] == [0.6, 0.6, 0.0]
    assert residual == [3, 5, 2]


def test_random_scheme_zero_capacity() -> None:
    net = EdgeNetwork([0, 0], {(0, 1): 1.0})
    cat = Catalog([1], [[0]])
    assert random_slots(net, cat, uniforms(3, 1, 2, cat)) == [([], [0, 0])]


def test_random_scheme_is_deterministic_per_stream() -> None:
    net = EdgeNetwork([9, 9], {(0, 1): 0.4})
    cat = Catalog([3, 4], [[0, 1], [1], [0, 0]])
    a = random_slots(net, cat, uniforms(11, 5, 6, cat))
    b = random_slots(net, cat, uniforms(11, 5, 6, cat))
    assert a == b


def test_random_scheme_splits_contended_capacity_evenly() -> None:
    # one server, room for exactly one of two identical chains
    net = EdgeNetwork([5], ())
    cat = Catalog([5], [[0], [0]])
    slots = 400
    wins = 0
    for deployed, _ in random_slots(net, cat, uniforms(2, 1, slots + 1, cat)):
        assert len(deployed) == 1
        wins += deployed[0][0] == 0
    # binomial(400, .5) has sigma 10; stay 5 sigma inside
    assert 150 <= wins <= 250


def test_random_scheme_rejects_unlinked_crossings() -> None:
    # capacity would allow a split, but the servers share no link
    net = EdgeNetwork([5, 5], ())
    cat = Catalog([3], [[0, 0]])
    assert random_slots(net, cat, uniforms(9, 1, 30, cat)) == [([], [5, 5])] * 29


# --- Monte-Carlo consistency of realized vs expected -----------------------

def test_realized_reward_averages_to_expected_value() -> None:
    # one fallible VNF per chain keeps the survival chance equal to 1 - max rate
    cat = Catalog([2, 3], [[0, 1]])
    gt = make_ground_truth(0.6, [0.3, 0.0], users=5, n_sfcs=1, rng_seed=123)
    plan = PlacementPlan(sfc=0, assignment=(0, 0), latency=0.5)
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
    for requests, failed in slot_rows(gt, 1, slots + 1):
        _, r = realized_reward(w, requests, failed, dec, cat)
        total += r
        sq += r * r
    mean = total / slots
    var = sq / slots - mean * mean
    assert abs(mean - want) < 4.0 * math.sqrt(var / slots)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a chain earns only if none of its VNFs fails, with chance prod(1 - v_i), but "
    "expected_reward gates it by its worst VNF, 1 - max(v_i); ROADMAP.md item 3(b) of "
    "\"Make the reported numbers mean what their names say\" values it by the survival "
    "product, and this marker goes when it lands"))
def test_expected_reward_is_the_mean_realized_reward_with_several_fallible_vnfs() -> None:
    # one server holds both chains at zero latency, so random commits both in
    # every slot; chain 0 runs three fallible VNFs, so 0.8 * 0.85 * 0.75 = 0.51
    # of its payoff survives against the 0.75 its worst VNF leaves
    n_seeds, slots = 100, 50
    cfg = load_config({
        "network": {"capacities": [20], "links": []},
        "catalog": {"vnf_demand": [1, 1, 1, 1], "sfc_chain": [[0, 1, 2], [1, 3]]},
        "ground_truth": {"request_prob": 0.5, "failure_mean": [0.2, 0.15, 0.25, 0.0]},
        "users": 10, "slots": slots, "seeds": f"1..{n_seeds}", "policies": "random"})
    trace = run(cfg).trace
    if set(trace["num_deployed"]) != {2}:   # not an AssertionError, which the mark absorbs
        pytest.fail("random no longer commits both chains in every slot")
    # each seed's time average of realized less expected reward; the seeds'
    # draws are independent, the slots' of one seed are not (item 3a)
    gap = (np.array(trace["realized_reward"]) - np.array(trace["expected_reward"]))
    gap = gap.reshape(n_seeds, slots).mean(axis=1)
    assert abs(gap.mean()) < 4.0 * gap.std(ddof=1) / math.sqrt(n_seeds)


# --- the reference's checker ----------------------------------------------
#
# reference.verify_decision, which reference_run and verified_slot hold every
# decision to, must reject each kind of fault lockstep.check rejects.

def legit_decision():
    net = EdgeNetwork([10, 8], {(0, 1): 0.5})
    cat = Catalog([4, 3], [[0, 1], [1]])
    learners = learners_with([6.0, 5.0], [0.0, 0.0], selected=1000,
                              placements=1000, users=0)
    dec = slot_of("rtsd", net, cat, learners, 2, [1, 1], [0, 0])
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
    plan = PlacementPlan(sfc=0, assignment=(0,), latency=0.0)
    dec = SlotDecision(t=1, deployed=[(0, plan)],
                       x=np.array([1], dtype=np.uint8),
                       placed_counts=np.array([1], dtype=np.int64),
                       residual_after=np.array([-1], dtype=np.int64))
    with pytest.raises(InvariantViolation):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_cloud_commit() -> None:
    # a cloud-shaped plan: no servers and +inf latency
    net = EdgeNetwork([10], ())
    cat = Catalog([4], [[0]])
    plan = PlacementPlan(sfc=0, assignment=(), latency=math.inf)
    dec = SlotDecision(t=1, deployed=[(0, plan)],
                       x=np.array([1], dtype=np.uint8),
                       placed_counts=np.array([1], dtype=np.int64),
                       residual_after=np.array([10], dtype=np.int64))
    with pytest.raises(InvariantViolation, match="committed a partial plan"):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_infinite_latency_commit() -> None:
    net, cat, dec = legit_decision()
    f, plan = dec.deployed[0]
    dec.deployed[0] = (f, PlacementPlan(sfc=f, assignment=plan.assignment,
                                        latency=math.inf))
    with pytest.raises(InvariantViolation, match="infinite latency"):
        verify_decision(net, cat, dec)


@pytest.mark.parametrize("server", [2, 7, -1, -2])
def test_verify_decision_catches_unknown_server(server: int) -> None:
    # -1 and -2 would silently index a two-server list from the end
    net, cat, dec = legit_decision()
    f, plan = dec.deployed[0]
    bad = (server,) + plan.assignment[1:]
    dec.deployed[0] = (f, PlacementPlan(sfc=f, assignment=bad,
                                        latency=plan.latency))
    with pytest.raises(InvariantViolation, match=f"unknown server {server}"):
        verify_decision(net, cat, dec)


def test_verify_decision_catches_placement_count_mismatch() -> None:
    net, cat, dec = legit_decision()
    dec.placed_counts[cat.sfc_chain[dec.deployed[0][0]][0]] += 1
    with pytest.raises(InvariantViolation, match="placement counts"):
        verify_decision(net, cat, dec)


# --- vector format -----------------------------------------------------------

POPULARITY_FIELDS = ("selected", "request_total", "request_mean")
FAILURE_FIELDS = ("placements", "failure_total", "failure_mean")


def test_slot_path_vectors_are_lists_of_python_numbers(monkeypatch) -> None:
    # numpy draws the observation blocks; from the observation to the kernel's
    # decision every per-slot vector is a list (the residual a tuple) of plain
    # ints and floats, and so are the edge table entries the decision's ids
    # name, so no numpy scalar rides along into the kernel; the learner rows
    # come back as int64 counts and float64 totals and means, and what the
    # learners were updated with as bool and int64 arrays for lockstep.check
    cfg = load_config(default_config_path())
    net, cat = cfg.network, cfg.catalog
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users, cat.n_sfcs, 5)
    observations = slot_rows(gt, 1, 9)
    checked = Counter()

    def check(name: str, vector) -> None:
        assert type(vector) is (tuple if name == "residual" else list), name
        assert all(type(v) in (int, float) for v in vector), (name, vector)
        checked[name] += 1

    real = kernels.slot_decide

    def decide(graph, value, gates, bounds, ranked, *rest):
        for name, vector in (("value", value), ("gates", gates), ("bounds", bounds),
                             ("ranked", ranked)):
            check(name, vector)
        return real(graph, value, gates, bounds, ranked, *rest)

    monkeypatch.setattr(kernels, "slot_decide", decide)
    requests = [r for r, _ in observations]
    failed = [v for _, v in observations]
    for policy in PLACEMENT_MODES:
        learners = lockstep.Learners.fresh(1, cat.n_sfcs, cat.n_vnfs, cfg.users, None, 1)
        graph = PlanGraph(net, cat, PLACEMENT_MODES[policy])
        for r, v in observations:
            check("requests", r)
            check("vnf_failed", v)
        ids, counts, residuals, x, placed = learned_rows(learners, 0, 1, [requests], [failed],
                                                         cfg.weights, graph)
        assert x.dtype == bool and placed.dtype == np.int64
        assert x.shape == (len(observations), cat.n_sfcs)
        assert placed.shape == (len(observations), cat.n_vnfs)
        assert ids, policy
        check("counts", counts)
        for learner, names in zip(learner_row(learners, 0),
                                  (POPULARITY_FIELDS, FAILURE_FIELDS)):
            for name in names:
                counts_arms = name in ("selected", "placements")
                assert getattr(learners, name).dtype == (np.int64 if counts_arms
                                                         else np.float64), name
                check(name, getattr(learner, name))
        check("edge ids", ids)
        for residual in residuals:
            check("residual", residual)
        check("latency", [graph.edge_latency[e] for e in ids])
        check("servers", [s for e in ids for s in graph.edge_servers[e]])
    assert len(checked) == 17
