from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcbackup import (Catalog, EdgeNetwork, RewardWeights, SearchSpaceTooLarge,
                       make_ground_truth, optimal_slot_value)
from sfcbackup.harness import simulate_run
from sfcbackup.kernels import GREEDY, PlanGraph
from sfcbackup.lockstep import Learners
from sfcbackup.oracle import optimal_chain_latency, shortest_path_matrix
from sfcbackup.workload import true_popularity

from reference import (chain_failure_rate, expected_slot_value, get_consumption, slot_rows,
                       verified_slot)


def test_shortest_paths_take_multi_hop_shortcuts() -> None:
    net = EdgeNetwork([1, 1, 1], {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 5.0})
    sp = shortest_path_matrix(net)
    assert sp[0, 2] == pytest.approx(2.0)
    assert sp[2, 0] == pytest.approx(2.0)
    assert np.all(np.diag(sp) == 0.0)
    assert np.allclose(sp, sp.T)


def test_shortest_paths_keep_inf_across_components() -> None:
    net = EdgeNetwork([1, 1, 1], {(0, 1): 1.0})
    sp = shortest_path_matrix(net)
    assert math.isinf(sp[0, 2])
    assert math.isinf(sp[1, 2])


def test_optimal_latency_single_server_fit_is_zero() -> None:
    net = EdgeNetwork([10, 10], {(0, 1): 3.0})
    cat = Catalog([3], [[0, 0, 0]])
    assert optimal_chain_latency(net, cat, [10, 10], 0) == 0.0


def test_optimal_latency_forced_split() -> None:
    net = EdgeNetwork([10, 10], {(0, 1): 3.0})
    cat = Catalog([4], [[0, 0, 0]])
    # 12 units cannot sit on one server: exactly one crossing of the only link
    assert optimal_chain_latency(net, cat, [10, 10], 0) == pytest.approx(3.0)


def test_optimal_latency_routes_through_saturated_middle() -> None:
    # the middle server has no room but still relays traffic
    net = EdgeNetwork([8, 8, 8], {(0, 1): 1.0, (1, 2): 1.0})
    cat = Catalog([8], [[0, 0]])
    residual = [8, 0, 8]
    assert optimal_chain_latency(net, cat, residual, 0) == pytest.approx(2.0)
    # the one-hop greedy walk cannot reach the far server
    plan = get_consumption(net, cat, residual, 0)
    assert plan.assignment == () and math.isinf(plan.latency)


def test_optimal_latency_infeasible_is_inf() -> None:
    net = EdgeNetwork([5], ())
    cat = Catalog([6], [[0]])
    assert math.isinf(optimal_chain_latency(net, cat, [5], 0))


def test_optimal_latency_budget_guard() -> None:
    net = EdgeNetwork([5, 5, 5], {(0, 1): 1.0, (1, 2): 1.0})
    cat = Catalog([1], [[0, 0, 0, 0]])
    with pytest.raises(SearchSpaceTooLarge):
        optimal_chain_latency(net, cat, [5, 5, 5], 0, node_budget=80)
    # 3^4 = 81 states squeaks under a budget of 81
    assert optimal_chain_latency(net, cat, [5, 5, 5], 0, node_budget=81) == 0.0


def brute_chain_latency(net: EdgeNetwork, cat: Catalog, residual, f: int) -> float:
    """Independent check: the cheapest of every assignment of chain f within residual.

    Each of the N^L server tuples is kept if its per-server load fits the
    residual and priced by the shortest-path latency between consecutive
    positions; +inf when none fits or every fitting one crosses a missing link.
    """
    sp = shortest_path_matrix(net)
    chain = cat.sfc_chain[f]
    best = math.inf
    for combo in itertools.product(range(net.n_servers), repeat=len(chain)):
        load = [0] * net.n_servers
        for s, i in zip(combo, chain):
            load[s] += cat.vnf_demand[i]
        if all(used <= room for used, room in zip(load, residual)):
            best = min(best, sum(sp[combo[j - 1], combo[j]] for j in range(1, len(combo))))
    return float(best)


def random_chain_instance(rng: np.random.Generator,
                          longest: int = 4) -> tuple[EdgeNetwork, Catalog, list[int]]:
    """1-4 servers with some links missing, 1-3 chains of 1-longest positions that
    may repeat a VNF, and a residual with zeros and room too small for the larger
    demands."""
    n = int(rng.integers(1, 5))
    links = {(u, v): round(float(rng.uniform(0.1, 2.0)), 3)
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6}
    net = EdgeNetwork(rng.integers(0, 12, n), links)
    n_vnfs = int(rng.integers(1, 4))
    cat = Catalog(rng.integers(0, 9, n_vnfs),
                  [rng.integers(0, n_vnfs, int(rng.integers(1, longest + 1))).tolist()
                   for _ in range(int(rng.integers(1, 4)))])
    residual = [int(r) if rng.random() < 0.8 else 0 for r in rng.integers(0, 12, n)]
    return net, cat, residual


def test_optimal_chain_latency_matches_brute_force() -> None:
    outcomes = {"fits": 0, "never fits": 0, "repeats a VNF": 0, "zero residual": 0,
                "missing link": 0}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        net, cat, residual = random_chain_instance(rng)
        outcomes["zero residual"] += 0 in residual
        outcomes["missing link"] += len(net.links) < net.n_servers * (net.n_servers - 1) // 2
        for f, chain in enumerate(cat.sfc_chain):
            got = optimal_chain_latency(net, cat, residual, f)
            assert got == brute_chain_latency(net, cat, residual, f), (seed, f)
            outcomes["never fits" if math.isinf(got) else "fits"] += 1
            outcomes["repeats a VNF"] += len(set(chain)) < len(chain)
    # every kind of case the enumeration is meant to cover did come up
    assert all(count > 10 for count in outcomes.values()), outcomes


def brute_slot_value(net: EdgeNetwork, cat: Catalog, gt, w: RewardWeights) -> float:
    """Independent check: enumerate every (selection, placement) outright.

    Each SFC either stays out (None) or takes a full assignment priced by
    shortest paths; joint capacity feasibility is checked on the total load.
    """
    sp = shortest_path_matrix(net)
    q = true_popularity(gt)
    options: list[list[tuple[float, np.ndarray] | None]] = []
    for f in range(cat.n_sfcs):
        chain = cat.sfc_chain[f]
        opts: list[tuple[float, np.ndarray] | None] = [None]
        for combo in itertools.product(range(net.n_servers), repeat=len(chain)):
            load = np.zeros(net.n_servers, dtype=np.int64)
            for pos, s in enumerate(combo):
                load[s] += cat.vnf_demand[chain[pos]]
            cost = sum(sp[combo[j - 1], combo[j]] for j in range(1, len(combo)))
            if not math.isinf(cost):
                opts.append((cost, load))
        options.append(opts)
    best = 0.0
    caps = np.asarray(net.capacities)
    for picks in itertools.product(*options):
        load = np.zeros(net.n_servers, dtype=np.int64)
        value = 0.0
        for f, pick in enumerate(picks):
            if pick is None:
                continue
            cost, chain_load = pick
            load += chain_load
            gate = 1.0 - chain_failure_rate(cat, gt.failure_mean, f)
            value += (w.omega * q[f] - w.mu * cost) * gate
        if np.all(load <= caps) and value > best:
            best = value
    return best


def small_instance():
    net = EdgeNetwork([10, 8, 6], {(0, 1): 0.4, (1, 2): 0.7, (0, 2): 1.1})
    cat = Catalog([3, 4, 2, 5], [[0, 1], [2, 3, 2], [1, 1]])
    gt = make_ground_truth([0.7, 0.5, 0.4], [0.05, 0.1, 0.02, 0.2],
                           users=4, n_sfcs=3, rng_seed=5)
    return net, cat, gt


def test_slot_value_matches_independent_enumeration() -> None:
    net, cat, gt = small_instance()
    w = RewardWeights(omega=1.0, mu=1.0)
    result = optimal_slot_value(net, cat, gt, w)
    assert result.best_value == pytest.approx(brute_slot_value(net, cat, gt, w))
    assert result.best_value > 0.0
    # leaving the heavy SFC 2 out beats squeezing all three in
    assert result.best_selection == (0, 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20))
def test_slot_value_matches_enumeration_on_random_instances(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    links = {(u, v): round(float(rng.uniform(0.2, 2.0)), 3)
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.8}
    net = EdgeNetwork(rng.integers(3, 10, n), links)
    n_vnfs = int(rng.integers(1, 4))
    n_sfcs = int(rng.integers(1, 4))
    cat = Catalog(rng.integers(1, 5, n_vnfs),
                  [rng.integers(0, n_vnfs, int(rng.integers(1, 4))).tolist()
                   for _ in range(n_sfcs)])
    gt = make_ground_truth(rng.uniform(0.1, 0.9, n_sfcs),
                           rng.uniform(0.0, 0.4, n_vnfs),
                           users=3, n_sfcs=n_sfcs, rng_seed=int(seed))
    w = RewardWeights(omega=1.0, mu=0.8)
    result = optimal_slot_value(net, cat, gt, w)
    assert result.best_value == pytest.approx(brute_slot_value(net, cat, gt, w))


def test_slot_value_subset_budget_guard() -> None:
    net = EdgeNetwork([5], ())
    cat = Catalog([1], [[0]] * 17)
    gt = make_ground_truth(0.5, [0.1], users=2, n_sfcs=17, rng_seed=0)
    with pytest.raises(SearchSpaceTooLarge):
        optimal_slot_value(net, cat, gt)


def test_slot_value_joint_budget_guard() -> None:
    net = EdgeNetwork([9, 9, 9, 9], {(u, v): 1.0 for u in range(4)
                                     for v in range(u + 1, 4)})
    cat = Catalog([1], [[0] * 6, [0] * 6])
    gt = make_ground_truth(0.5, [0.1], users=2, n_sfcs=2, rng_seed=0)
    with pytest.raises(SearchSpaceTooLarge):
        optimal_slot_value(net, cat, gt, node_budget=10_000)


def test_policies_never_beat_the_oracle() -> None:
    net, cat, gt = small_instance()
    w = RewardWeights()
    ceiling = optimal_slot_value(net, cat, gt, w).best_value

    learners = Learners.fresh(1, cat.n_sfcs, cat.n_vnfs, gt.n_users, 1.0, -1)
    graph = PlanGraph(net, cat, GREEDY)
    worst_gap = math.inf
    for t, (requests, failed) in enumerate(slot_rows(gt, 1, 51), start=1):
        dec = verified_slot(learners, t, requests, failed, w, graph)
        gap = ceiling - expected_slot_value(w, gt, dec, cat)
        assert gap >= -1e-9
        worst_gap = min(worst_gap, gap)
    random_series = simulate_run(net, cat, [gt], w, ("random",), 50, users=gt.n_users)["random"]
    assert all(ceiling - value >= -1e-9 for value in random_series["expected"][0].tolist())
    # the learned policy should actually approach the ceiling on this instance
    assert worst_gap < ceiling
