from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfcbackup import (Catalog, EdgeNetwork, GroundTruth, RewardWeights, default_config_path,
                       load_config, make_ground_truth)
from sfcbackup import harness, lockstep, workload
from sfcbackup.harness import OBS_BLOCK_SLOTS, simulate_run
from sfcbackup.workload import (ENV_DOMAIN, POLICY_DOMAIN, counter_blocks,
                                policy_uniform_block, sample_arrays, slot_stream,
                                true_popularity)

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
    requests, _ = sample_arrays(gt, 0, n)
    mean = int(requests[:, 0].sum()) / n
    sigma = np.sqrt(10 * 0.3 * 0.7 / n)
    assert abs(mean - 3.0) < 3 * sigma


def test_true_popularity_forms() -> None:
    gt = make_ground_truth(0.5, [0.0], users=10, n_sfcs=2, rng_seed=0)
    assert np.allclose(true_popularity(gt), [5.0, 5.0])
    gt = make_ground_truth([1.0, 0.0, 0.0], [0.0], users=1, n_sfcs=3, rng_seed=0)
    assert np.allclose(true_popularity(gt), [1.0, 0.0, 0.0])


def test_true_values_match_per_chain_definition() -> None:
    """lockstep.true_values: omega times each chain's true popularity, and one
    minus its worst VNF's true failure rate, evaluated one float at a time."""
    cat = Catalog([1, 1, 1], [[0, 1], [2], [1, 1, 2]])
    gt = make_ground_truth(np.array([[0.1, 0.7, 0.3], [0.3, 0.2, 0.9]]), [0.25, 0.5, 0.125],
                           users=2, n_sfcs=3, rng_seed=0)
    weights = RewardWeights(omega=1.5, mu=0.5)
    value_true, gate_true = lockstep.true_values(cat, [gt, gt.reseeded(4)], weights)
    q = [0.1 + 0.3, 0.7 + 0.2, 0.3 + 0.9]
    assert value_true.tolist() == [[1.5 * v for v in q]] * 2
    assert gate_true.tolist() == [[1.0 - 0.5, 1.0 - 0.125, 1.0 - 0.5]] * 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 20))
def test_true_popularity_matches_row_summation(users: int, n_sfcs: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    p = rng.random((users, n_sfcs))
    gt = GroundTruth(p, np.zeros(1), rng_seed=0)
    manual = [sum(p[k][f] for k in range(users)) for f in range(n_sfcs)]
    assert np.allclose(true_popularity(gt), manual)


def test_ground_truth_shape_validation() -> None:
    with pytest.raises(ValueError):
        make_ground_truth([0.5, 0.5], [0.1], users=3, n_sfcs=3, rng_seed=0)
    with pytest.raises(ValueError):
        make_ground_truth(np.full((2, 3), 0.5), [0.1], users=4, n_sfcs=3, rng_seed=0)
    with pytest.raises(ValueError):
        make_ground_truth(1.5, [0.1], users=2, n_sfcs=1, rng_seed=0)
    with pytest.raises(ValueError):
        GroundTruth(np.array([[0.5]]), np.array([0.1]), rng_seed=-1)


def test_reseeded_ground_truth_shares_parameters_and_draws_its_own_seed() -> None:
    gt = make_ground_truth([0.7, 0.2], [0.3, 0.05], users=3, n_sfcs=2, rng_seed=4)
    other = gt.reseeded(9)
    assert other.rng_seed == 9 and gt.rng_seed == 4
    assert other.request_prob is gt.request_prob and other.failure_mean is gt.failure_mean
    fresh = make_ground_truth([0.7, 0.2], [0.3, 0.05], users=3, n_sfcs=2, rng_seed=9)
    assert slot_rows(other, 0, 40) == slot_rows(fresh, 0, 40)
    with pytest.raises(ValueError):
        gt.reseeded(-1)


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
    requests, failed = sample_arrays(gt, t0, t0 + n)
    assert requests.shape == (n, n_sfcs) and requests.dtype == np.int64
    assert failed.shape == (n, n_vnfs) and failed.dtype == np.uint8
    rows = slot_rows(gt, t0, t0 + n)
    assert len(rows) == n
    assert_drawn_alone(gt, rows, t0)
    assert_drawn_alone(gt, [slot_row(gt, t0 + n - 1)], t0 + n - 1)


def test_block_sampling_crosses_block_boundaries(monkeypatch) -> None:
    # the observations simulate_run accounts, row (slot - 1) * S + s for seed s,
    # equal each slot's own draw across blocks and chunks: two whole blocks of
    # the length this run draws, and three slots more
    gt = make_ground_truth([0.7, 0.2], [0.3, 0.05, 0.5], users=3, n_sfcs=2, rng_seed=12)
    gts = [gt, gt.reseeded(40)]
    net, cat = EdgeNetwork([4], []), Catalog([1, 2, 3], [[0, 1], [2]])
    _, block = harness._chunk_and_block(lockstep.Layout.of(net, cat), gts)
    n_slots = 2 * block + 3
    drawn, ranges = [], []
    real = lockstep.slot_values
    real_sample = harness.sample_arrays

    def recorded(layout, omega, mu, requests, failed, *args):
        drawn.extend(zip(requests.tolist(), failed.tolist()))
        return real(layout, omega, mu, requests, failed, *args)

    def sample(gt, t0, t1):
        ranges.append((gt.rng_seed, t0, t1))
        return real_sample(gt, t0, t1)

    monkeypatch.setattr(lockstep, "slot_values", recorded)
    monkeypatch.setattr(harness, "sample_arrays", sample)
    simulate_run(net, cat, gts, RewardWeights(), ("random",), n_slots, users=3)
    assert ranges == [(gt.rng_seed, t0, t1) for t0, t1 in
                      ((1, block + 1), (block + 1, 2 * block + 1), (2 * block + 1, n_slots + 1))
                      for gt in gts]
    assert len(drawn) == n_slots * len(gts)
    for k, row in enumerate(drawn):
        assert row == draw_slot(gts[k % 2], k // 2 + 1)


def test_sample_slots_rejects_empty_range() -> None:
    gt = make_ground_truth(0.5, [0.1], users=2, n_sfcs=1, rng_seed=0)
    with pytest.raises(ValueError):
        sample_arrays(gt, 4, 4)


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
            for row in policy_uniform_block(seed, t0, min(t0 + OBS_BLOCK_SLOTS, slots + 1),
                                            width).tolist()]


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
            assert policy_uniform_block(13, t, t + 1, width)[0].tolist() == expected


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
    """Every uniform sample_arrays(gt, t, t + 1) draws, recorded at the generator."""
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
        workload.sample_arrays(gt, t, t + 1)
    if not drawn:       # not an AssertionError, so the strict xfail below cannot absorb it
        pytest.fail("sample_arrays no longer draws through workload.slot_stream")
    return set(drawn)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "slot t+1's stream is slot t's shifted by SLOT_STRIDE doubles, so consecutive "
    "slots reuse most uniforms; the ROADMAP.md item \"Independent per-slot environment "
    "streams\" gives each slot its own counter blocks, and this marker goes when it lands"))
def test_consecutive_slots_share_no_draws(monkeypatch: pytest.MonkeyPatch) -> None:
    # the bundled config's shape: 10 users x 6 chains plus 15 VNFs, D = 75
    gt = make_ground_truth(0.5, [0.05] * 15, users=10, n_sfcs=6, rng_seed=3)
    for t in (0, 1, 250):
        assert not slot_uniforms(monkeypatch, gt, t) & slot_uniforms(monkeypatch, gt, t + 1)
