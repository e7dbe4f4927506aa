from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfcbackup import (Catalog, EdgeNetwork, GroundTruth, RewardWeights, default_config_path,
                       load_config, make_ground_truth)
from sfcbackup import harness, lockstep, workload
from sfcbackup.harness import OBS_BLOCK_SLOTS, simulate_run
from sfcbackup.workload import (ENV_DOMAIN, POLICY_DOMAIN, counter_blocks,
                                policy_uniform_block, popularity_sums, sample_arrays,
                                slot_stream)

from reference import draw_slot, slot_row, slot_rows, uniform_layout


def assert_drawn_alone(gt: GroundTruth, rows, t0: int) -> None:
    """rows, slot_rows' (requests, failed) lists from slot t0 on, equal the per-slot draws."""
    for k, (requests, failed) in enumerate(rows):
        assert all(type(v) is int for v in requests + failed)
        assert (requests, failed) == draw_slot(gt, t0 + k)


def test_degenerate_probabilities() -> None:
    gt = make_ground_truth([0.0, 1.0], [0.0, 1.0], users=10, n_sfcs=2, rng_seed=4)
    requests, failed = slot_row(gt, 17)
    assert requests[0] == 0
    assert requests[1] == 10
    assert failed == [0, 1]


def test_requests_bounded_by_users() -> None:
    gt = make_ground_truth(0.5, [0.1], users=7, n_sfcs=3, rng_seed=1)
    for requests, _ in slot_rows(gt, 0, 50):
        assert all(0 <= r <= 7 for r in requests)


def test_sample_slot_deterministic_in_seed_and_slot() -> None:
    """sample_arrays draws slot t from (seed, t) alone."""
    gt = make_ground_truth(0.4, [0.2, 0.3], users=5, n_sfcs=2, rng_seed=9)
    a = slot_row(gt, 123)
    b = slot_row(gt, 123)
    assert a == b
    c = slot_row(gt, 124)
    # different slots come from different counter values
    assert a != c


def test_sampling_order_independence() -> None:
    gt = make_ground_truth(0.4, [0.2], users=5, n_sfcs=2, rng_seed=9)
    forward = [slot_row(gt, t)[0] for t in range(10)]
    backward = [slot_row(gt, t)[0] for t in reversed(range(10))]
    for t in range(10):
        assert forward[t] == backward[9 - t]


def test_env_and_policy_domains_are_disjoint_streams() -> None:
    a = slot_stream(3, 5, ENV_DOMAIN).random(4)
    b = slot_stream(3, 5, POLICY_DOMAIN).random(4)
    assert not np.allclose(a, b)


def test_request_mean_matches_binomial() -> None:
    # K=10, p=0.3: per-slot mean 3.0, var 2.1
    gt = make_ground_truth(0.3, [0.0], users=10, n_sfcs=1, rng_seed=77)
    n = 20_000
    requests, _ = sample_arrays(gt, [gt.rng_seed], 0, n)
    mean = int(requests[:, 0, 0].sum()) / n
    sigma = np.sqrt(10 * 0.3 * 0.7 / n)
    assert abs(mean - 3.0) < 3 * sigma


def test_true_popularity_forms() -> None:
    gt = make_ground_truth(0.5, [0.0], users=10, n_sfcs=2, rng_seed=0)
    assert np.allclose(popularity_sums(gt.request_prob), [5.0, 5.0])
    gt = make_ground_truth([1.0, 0.0, 0.0], [0.0], users=1, n_sfcs=3, rng_seed=0)
    assert np.allclose(popularity_sums(gt.request_prob), [1.0, 0.0, 0.0])


def test_true_values_match_per_chain_definition() -> None:
    """lockstep.true_values: omega times each chain's true popularity, and its
    survival chance, one minus the true failure rate multiplied over its
    distinct VNFs in order of first occurrence, evaluated one float at a time."""
    cat = Catalog([1, 1, 1], [[0, 1], [2], [1, 1, 2]])
    gt = make_ground_truth(np.array([[0.1, 0.7, 0.3], [0.3, 0.2, 0.9]]), [0.25, 0.5, 0.125],
                           users=2, n_sfcs=3, rng_seed=0)
    weights = RewardWeights(omega=1.5, mu=0.5)
    value_true, gate_true = lockstep.true_values(lockstep.Layout.of(EdgeNetwork([1]), cat),
                                                 gt, weights)
    q = [0.1 + 0.3, 0.7 + 0.2, 0.3 + 0.9]
    assert value_true.tolist() == [1.5 * v for v in q]
    # chain 2 runs VNF 1 twice, and its copies share one failure flag
    assert gate_true.tolist() == [(1.0 - 0.25) * (1.0 - 0.5), 1.0 - 0.125,
                                  (1.0 - 0.5) * (1.0 - 0.125)]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 20))
def test_true_popularity_matches_row_summation(users: int, n_sfcs: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    p = rng.random((users, n_sfcs))
    gt = GroundTruth(p, np.zeros(1), rng_seed=0)
    manual = [sum(p[k][f] for k in range(users)) for f in range(n_sfcs)]
    assert np.allclose(popularity_sums(gt.request_prob), manual)


def test_ground_truth_shape_validation() -> None:
    with pytest.raises(ValueError):
        make_ground_truth([0.5, 0.5], [0.1], users=3, n_sfcs=3, rng_seed=0)
    with pytest.raises(ValueError):
        make_ground_truth(np.full((2, 3), 0.5), [0.1], users=4, n_sfcs=3, rng_seed=0)
    with pytest.raises(ValueError):
        make_ground_truth(1.5, [0.1], users=2, n_sfcs=1, rng_seed=0)
    with pytest.raises(ValueError):
        GroundTruth(np.array([[0.5]]), np.array([0.1]), rng_seed=-1)


def test_parameter_check_never_expands_request_prob() -> None:
    # 10**15 users would need petabytes as a matrix; the check reads the parsed form
    users = 10 ** 15
    assert workload.check_parameters(0.5, [0.1], users, 6).shape == ()
    assert workload.check_parameters([0.5] * 6, [0.1], users, 6).shape == (6,)
    for request_prob, failure_mean, match in (
            (float("nan"), [0.1], "request_prob entries"),
            ([0.5] * 6, [1.5], "failure_mean entries"),
            ([0.5] * 5, [0.1], "needs 6 entries"),
            ([[0.5] * 6], [0.1], r"matrix must be \(1000000000000000, 6\)"),
            ([[[0.5]]], [0.1], "scalar, vector, or matrix")):
        with pytest.raises(ValueError, match=match):
            workload.check_parameters(request_prob, failure_mean, users, 6)


# --- batched sampling ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2 ** 32))
@example(users=1, n_sfcs=1, n_vnfs=0, t0=0, n=9, seed=1)      # D = 1
@example(users=1, n_sfcs=1, n_vnfs=2, t0=5, n=9, seed=2)      # D = 3
@example(users=2, n_sfcs=2, n_vnfs=1, t0=17, n=12, seed=3)    # D = 5
@example(users=2, n_sfcs=3, n_vnfs=2, t0=1, n=1, seed=4)      # D = 8, one slot
def test_sample_slots_matches_per_slot_draws(users: int, n_sfcs: int, n_vnfs: int,
                                             t0: int, n: int, seed: int) -> None:
    """sample_arrays over a range of slots draws what each slot draws on its own."""
    rng = np.random.default_rng(seed)
    gt = GroundTruth(rng.random((users, n_sfcs)), rng.random(n_vnfs), rng_seed=seed)
    requests, failed = sample_arrays(gt, [seed], t0, t0 + n)
    assert requests.shape == (n, 1, n_sfcs) and requests.dtype == np.int64
    assert failed.shape == (n, 1, n_vnfs) and failed.dtype == np.uint8
    rows = slot_rows(gt, t0, t0 + n)
    assert len(rows) == n
    assert_drawn_alone(gt, rows, t0)
    assert_drawn_alone(gt, [slot_row(gt, t0 + n - 1)], t0 + n - 1)



@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=20),
       st.lists(st.integers(min_value=0, max_value=2 ** 40), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=2 ** 32))
@example(users=1, n_sfcs=1, n_vnfs=0, t0=0, n=3, seeds=[7, 7], param_seed=1)  # D = 1, repeated
@example(users=3, n_sfcs=2, n_vnfs=4, t0=9, n=1, seeds=[0, 2 ** 40, 3], param_seed=2)
def test_a_group_of_any_shape_draws_each_seed_per_slot(users: int, n_sfcs: int, n_vnfs: int,
                                                        t0: int, n: int, seeds: list[int],
                                                        param_seed: int) -> None:
    """Seed s of a group draws, slot by slot, what the reference draws for seed s alone."""
    # the group's buffer rows are n * 4 * ceil(D / 4) doubles apart, so a wrong
    # row length shows only with several seeds and a shape of its own
    rng = np.random.default_rng(param_seed)
    gt = GroundTruth(rng.random((users, n_sfcs)), rng.random(n_vnfs), rng_seed=param_seed)
    requests, failed = sample_arrays(gt, seeds, t0, t0 + n)
    assert requests.shape == (n, len(seeds), n_sfcs) and requests.dtype == np.int64
    assert failed.shape == (n, len(seeds), n_vnfs) and failed.dtype == np.uint8
    for s, seed in enumerate(seeds):
        alone = keyed(gt, seed)
        for j in range(n):
            assert (requests[j, s].tolist(), failed[j, s].tolist()) == draw_slot(alone, t0 + j)


def test_block_sampling_crosses_block_boundaries(monkeypatch) -> None:
    # the observations simulate_run accounts, row (slot - 1) * S + s for seed s,
    # equal each slot's own draw across blocks and chunks: two whole blocks of
    # the length this run draws, and three slots more, each block one draw for
    # both seeds. slot_values sees the failure flags as each chain's survival.
    gt = make_ground_truth([0.7, 0.2], [0.3, 0.05, 0.5], users=3, n_sfcs=2, rng_seed=12)
    seeds = (12, 40)
    net, cat = EdgeNetwork([4], []), Catalog([1, 2, 3], [[0, 1], [2]])
    _, block = harness._chunk_and_block(lockstep.Layout.of(net, cat), len(seeds))
    n_slots = 2 * block + 3
    drawn, ranges = [], []
    real = lockstep.slot_values
    real_sample = harness.sample_arrays

    def recorded(layout, omega, mu, requests, survived, *args):
        drawn.extend(zip(requests.tolist(), survived.tolist()))
        return real(layout, omega, mu, requests, survived, *args)

    def sample(parameters, group, t0, t1):
        ranges.append((list(group), t0, t1))
        return real_sample(parameters, group, t0, t1)

    monkeypatch.setattr(lockstep, "slot_values", recorded)
    monkeypatch.setattr(harness, "sample_arrays", sample)
    simulate_run(net, cat, gt, seeds, RewardWeights(), ("random",), n_slots, users=3)
    assert ranges == [([12, 40], t0, t1) for t0, t1 in
                      ((1, block + 1), (block + 1, 2 * block + 1), (2 * block + 1, n_slots + 1))]
    assert len(drawn) == n_slots * len(seeds)
    for k, row in enumerate(drawn):
        requests, failed = draw_slot(keyed(gt, seeds[k % 2]), k // 2 + 1)
        assert row == (requests, [not any(failed[i] for i in chain) for chain in cat.sfc_chain])


def keyed(gt: GroundTruth, seed: int) -> GroundTruth:
    """gt's parameters as the instance of one seed, for the reference's per-seed draws."""
    return GroundTruth(gt.request_prob, gt.failure_mean, seed)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    """Equal values, bit for bit, dtype and shape."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# slot ranges up to, across and past a block boundary
BLOCK_RANGES = ((1, OBS_BLOCK_SLOTS + 1), (OBS_BLOCK_SLOTS - 2, OBS_BLOCK_SLOTS + 3),
                (OBS_BLOCK_SLOTS + 1, OBS_BLOCK_SLOTS + 4))


def test_a_group_draws_what_each_seed_draws_alone() -> None:
    # five seeds under one set of parameters, as a run draws them
    gt = make_ground_truth([[0.7, 0.2, 0.9], [0.1, 0.5, 0.4]], [0.3, 0.05, 0.5, 0.2],
                           users=2, n_sfcs=3, rng_seed=0)
    seeds = (5, 7, 9, 5, 2 ** 40)
    width = 11
    for t0, t1 in BLOCK_RANGES:
        requests, failed = sample_arrays(gt, seeds, t0, t1)
        uniforms = policy_uniform_block(seeds, t0, t1, width)
        assert requests.shape[:2] == failed.shape[:2] == uniforms.shape[:2] == (t1 - t0, 5)
        for s, seed in enumerate(seeds):
            alone_requests, alone_failed = sample_arrays(gt, [seed], t0, t1)
            assert_same_array(requests[:, s], alone_requests[:, 0])
            assert_same_array(failed[:, s], alone_failed[:, 0])
            assert_same_array(uniforms[:, s], policy_uniform_block([seed], t0, t1, width)[:, 0])
            alone = keyed(gt, seed)
            assert slot_rows(alone, t0, t1) == [draw_slot(alone, t) for t in range(t0, t1)]


@pytest.mark.parametrize("max_doubles", [1, 12, 100, 12 * 40 * 2])
def test_a_draw_in_pieces_equals_one_piece(monkeypatch, max_doubles: int) -> None:
    # D = 3 x 2 + 3 = 9 uniforms, a row of 12 doubles, 40 slots of three seeds:
    # pieces of one slot, of one seed's 8 slots, and of two seeds' 40 slots
    gt = make_ground_truth([[0.7, 0.2], [0.1, 0.5], [0.4, 0.9]], [0.3, 0.05, 0.5],
                           users=3, n_sfcs=2, rng_seed=0)
    seeds = (5, 7, 2 ** 40)
    whole = sample_arrays(gt, seeds, 1, 41)
    monkeypatch.setattr(workload, "MAX_DRAW_DOUBLES", max_doubles)
    for got, want in zip(sample_arrays(gt, seeds, 1, 41), whole):
        assert_same_array(got, want)


def test_the_largest_draw_holds_one_piece_at_a_time() -> None:
    # the most request draws a slot may take, 2**16 users x one chain, over 300
    # slots of one seed: 19.7 million uniforms, 150 MiB had they been held at
    # once, drawn and counted 15 slots (2**20 doubles at most) at a time
    gt = make_ground_truth(1e-4, [0.1], users=2 ** 16, n_sfcs=1, rng_seed=0)
    tracemalloc.start()
    try:
        requests, failed = sample_arrays(gt, [3], 1, 301)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20
    assert requests.sum() > 0
    # slots at and next to piece boundaries, each drawn alone in one piece
    for t in (1, 15, 16, 17, 300):
        alone = sample_arrays(gt, [3], t, t + 1)
        assert_same_array(requests[t - 1:t], alone[0])
        assert_same_array(failed[t - 1:t], alone[1])


def test_true_popularity_sums_the_users_in_order() -> None:
    # 2**14 users at 1e-4: numpy's pairwise sum reads 1.6384, a sum in user
    # order 1.638399999999836; expected_reward's popularity is the latter, as
    # tests/reference.py defines it
    users = 2 ** 14
    gt = make_ground_truth([1e-4, 0.3], [0.1], users=users, n_sfcs=2, rng_seed=3)
    in_order = [0.0, 0.0]
    for row in gt.request_prob.tolist():
        in_order = [total + p for total, p in zip(in_order, row)]
    assert in_order[0] != float(gt.request_prob[:, 0].sum())
    assert popularity_sums(gt.request_prob).tolist() == in_order
    layout = lockstep.Layout.of(EdgeNetwork([1]), Catalog([1], [[0], [0]]))
    value_true, _ = lockstep.true_values(layout, gt, RewardWeights(omega=1.0))
    assert value_true.tolist() == in_order


def test_sample_slots_rejects_empty_range() -> None:
    gt = make_ground_truth(0.5, [0.1], users=2, n_sfcs=1, rng_seed=0)
    with pytest.raises(ValueError):
        sample_arrays(gt, [0], 4, 4)


def test_slot_stream_matches_philox_keyed_directly() -> None:
    for seed, t, domain in ((0, 0, ENV_DOMAIN), (9, 123, POLICY_DOMAIN), (2 ** 40, 7, 0)):
        ours = slot_stream(seed, t, domain)
        ref = np.random.Generator(np.random.Philox(key=[seed, domain], counter=[t, 0, 0, 0]))
        assert ours.random(9).tolist() == ref.random(9).tolist()
        assert ours.integers(1000, size=7).tolist() == ref.integers(1000, size=7).tolist()


def drawn_uniforms(seed: int, cat: Catalog, slots: int) -> list[list[float]]:
    """Slots 1 .. slots's policy uniforms, drawn OBS_BLOCK_SLOTS slots per call, as many-seed runs do."""
    width, _ = uniform_layout(cat)
    return [row for t0 in range(1, slots + 1, OBS_BLOCK_SLOTS)
            for row in policy_uniform_block([seed], t0, min(t0 + OBS_BLOCK_SLOTS, slots + 1),
                                            width)[:, 0].tolist()]


def test_policy_uniforms_own_their_counter_blocks() -> None:
    # W = 30 (bundled config, B = 8, two doubles of padding), 8 (B = 2, none), 1
    for cat in (load_config(default_config_path()).catalog,
                Catalog([3, 4], [[0, 1], [1], [0, 0]]), Catalog([1], [[]])):
        width, _ = uniform_layout(cat)
        blocks = counter_blocks(width)
        assert 4 * (blocks - 1) < width <= 4 * blocks
        n_slots = OBS_BLOCK_SLOTS + 5
        rows = drawn_uniforms(13, cat, n_slots)
        assert len(rows) == n_slots
        for t in (1, 2, OBS_BLOCK_SLOTS, OBS_BLOCK_SLOTS + 1, n_slots):
            expected = slot_stream(13, t * blocks, POLICY_DOMAIN).random(width).tolist()
            assert rows[t - 1] == expected
            assert policy_uniform_block([13], t, t + 1, width)[0, 0].tolist() == expected


def test_consecutive_policy_slots_share_no_draws() -> None:
    cat = load_config(default_config_path()).catalog
    rows = drawn_uniforms(3, cat, OBS_BLOCK_SLOTS + 2)
    for t in (1, 2, 250, OBS_BLOCK_SLOTS, OBS_BLOCK_SLOTS + 1):
        assert not set(rows[t - 1]) & set(rows[t])


def test_ground_truth_rejects_nan_probabilities() -> None:
    with pytest.raises(ValueError):
        make_ground_truth(0.5, [0.1, float("nan")], users=2, n_sfcs=1, rng_seed=0)
    with pytest.raises(ValueError):
        make_ground_truth([0.5, float("nan")], [0.1], users=2, n_sfcs=2, rng_seed=0)


def slot_uniforms(monkeypatch: pytest.MonkeyPatch, gt: GroundTruth, t: int) -> set[float]:
    """Every uniform sample_arrays(gt, [gt.rng_seed], t, t + 1) draws, recorded at the generator."""
    drawn: list[float] = []
    real = workload.slot_stream

    class Recorder:
        def __init__(self, rng: np.random.Generator) -> None:
            self.rng = rng

        def random(self, *args, **kwargs):
            out = self.rng.random(*args, **kwargs)
            drawn.extend(np.ravel(out).tolist())
            return out

    with monkeypatch.context() as patch:
        patch.setattr(workload, "slot_stream", lambda *a, **kw: Recorder(real(*a, **kw)))
        workload.sample_arrays(gt, [gt.rng_seed], t, t + 1)
    assert drawn, "sample_arrays no longer draws through workload.slot_stream"
    return set(drawn)


def test_consecutive_slots_share_no_draws(monkeypatch: pytest.MonkeyPatch) -> None:
    # the bundled config's shape: 10 users x 6 chains plus 15 VNFs, D = 75
    gt = make_ground_truth(0.5, [0.05] * 15, users=10, n_sfcs=6, rng_seed=3)
    for t in (0, 1, 250):
        assert not slot_uniforms(monkeypatch, gt, t) & slot_uniforms(monkeypatch, gt, t + 1)
