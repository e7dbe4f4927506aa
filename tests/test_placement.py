from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcbackup import Catalog, EdgeNetwork

from reference_kernels import get_consumption


def two_servers(c0: int = 10, c1: int = 10, lat: float = 5.0) -> EdgeNetwork:
    return EdgeNetwork([c0, c1], {(0, 1): lat})


def brute_min_latency(net: EdgeNetwork, cat: Catalog, residual, f: int) -> float:
    """In-test exhaustive check over direct-link walks is too permissive;
    enumerate all capacity-feasible assignments priced by direct hops."""
    chain = cat.sfc_chain[f]
    lat = net.latency_matrix
    best = math.inf
    for combo in itertools.product(range(net.n_servers), repeat=len(chain)):
        load = np.zeros(net.n_servers, dtype=np.int64)
        for pos, s in enumerate(combo):
            load[s] += cat.vnf_demand[chain[pos]]
        if np.any(load > np.asarray(residual)):
            continue
        cost = sum(lat[combo[j - 1], combo[j]] for j in range(1, len(combo)))
        best = min(best, cost)
    return best


def test_whole_chain_fits_on_anchor() -> None:
    net = two_servers()
    cat = Catalog([3, 3, 3], [[0, 1, 2]])
    plan = get_consumption(net, cat, [10, 10], 0)
    assert plan.at_edge
    assert plan.assignment == (0, 0, 0)
    assert plan.latency == 0.0


def test_spill_to_neighbor_when_anchor_full() -> None:
    net = two_servers()
    cat = Catalog([4], [[0, 0, 0]])
    plan = get_consumption(net, cat, [10, 10], 0)
    assert plan.assignment == (0, 0, 1)
    assert plan.latency == 5.0
    # and that is also the true optimum for this instance
    assert brute_min_latency(net, cat, [10, 10], 0) == 5.0


def test_oversized_occurrence_goes_to_cloud() -> None:
    net = two_servers()
    cat = Catalog([11], [[0]])
    plan = get_consumption(net, cat, [10, 10], 0)
    assert not plan.at_edge
    assert plan.assignment == ()
    assert math.isinf(plan.latency)


def test_tentative_consumption_counts_within_one_plan() -> None:
    # anchor holds 8; the plan's own first occurrence (5) must block the second (4)
    net = two_servers(c0=8, c1=7)
    cat = Catalog([5, 4], [[0, 1]])
    plan = get_consumption(net, cat, [8, 7], 0)
    assert plan.assignment == (0, 1)


def test_walk_may_revisit_a_node_it_left() -> None:
    net = two_servers()
    cat = Catalog([6, 8, 4], [[0, 1, 2]])
    plan = get_consumption(net, cat, [10, 10], 0)
    assert plan.assignment == (0, 1, 0)
    assert plan.latency == pytest.approx(10.0)


def test_anchor_follows_residual() -> None:
    net = two_servers()
    cat = Catalog([2], [[0]])
    assert get_consumption(net, cat, [10, 10], 0).assignment == (0,)
    assert get_consumption(net, cat, [2, 10], 0).assignment == (1,)


def test_neighbor_scan_prefers_cheaper_link() -> None:
    # anchor 0 gets filled; both neighbors could host the next piece,
    # and the cheaper link (to server 2) must win
    net = EdgeNetwork([9, 9, 8], {(0, 1): 2.0, (0, 2): 1.0, (1, 2): 3.0})
    cat = Catalog([9, 5], [[0, 1]])
    plan = get_consumption(net, cat, [9, 9, 8], 0)
    assert plan.assignment == (0, 2)
    assert plan.latency == 1.0


def test_residual_is_not_mutated() -> None:
    net = two_servers()
    cat = Catalog([4], [[0, 0]])
    residual = np.array([10, 10], dtype=np.int64)
    get_consumption(net, cat, residual, 0)
    assert residual.tolist() == [10, 10]


def plan_all(net: EdgeNetwork, cat: Catalog, residual) -> dict:
    return {f: get_consumption(net, cat, residual, f) for f in range(cat.n_sfcs)}


def test_plan_all_skips_and_covers() -> None:
    # every chain is planned against the same snapshot, whatever the others get
    net = two_servers()
    cat = Catalog([4, 20], [[0], [1], [0, 0]])
    everything = plan_all(net, cat, [10, 10])
    assert set(everything) == {0, 1, 2}
    assert everything[0].at_edge and everything[2].at_edge
    assert not everything[1].at_edge
    assert everything[2].assignment == (0, 0)


def test_identical_chains_get_identical_plans() -> None:
    net = two_servers()
    cat = Catalog([4], [[0, 0], [0, 0]])
    plans = plan_all(net, cat, [10, 10])
    assert plans[0].assignment == plans[1].assignment
    assert plans[0].latency == plans[1].latency


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20))
def test_edge_plans_are_feasible_and_priced_right(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    links = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.7:
                links[(u, v)] = round(float(rng.uniform(0.1, 3.0)), 3)
    # force connectivity with a chain of links
    for u in range(n - 1):
        links.setdefault((u, u + 1), round(float(rng.uniform(0.1, 3.0)), 3))
    net = EdgeNetwork(rng.integers(0, 15, n), links)
    n_vnfs = int(rng.integers(1, 5))
    cat = Catalog(rng.integers(1, 7, n_vnfs),
                  [rng.integers(0, n_vnfs, int(rng.integers(1, 6))).tolist()])
    residual = np.asarray(net.capacities)
    plan = get_consumption(net, cat, residual, 0)
    if not plan.at_edge:
        return
    chain = cat.sfc_chain[0]
    load = np.zeros(n, dtype=np.int64)
    for pos, s in enumerate(plan.assignment):
        load[s] += cat.vnf_demand[chain[pos]]
    assert np.all(load <= residual)
    # latency is exactly the fold of direct hops, all of which must exist
    lat = net.latency_matrix
    refold = sum(lat[plan.assignment[j - 1], plan.assignment[j]]
                 for j in range(1, len(plan.assignment)))
    assert plan.latency == pytest.approx(refold if refold else 0.0)
    assert not math.isinf(plan.latency)
    for j in range(1, len(plan.assignment)):
        a, b = plan.assignment[j - 1], plan.assignment[j]
        assert a == b or not math.isinf(lat[a, b])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20))
def test_greedy_never_beats_exhaustive_direct_walks(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    links = {(u, v): round(float(rng.uniform(0.1, 2.0)), 3)
             for u in range(n) for v in range(u + 1, n)}
    net = EdgeNetwork(rng.integers(2, 12, n), links)
    cat = Catalog(rng.integers(1, 6, 3),
                  [rng.integers(0, 3, int(rng.integers(1, 5))).tolist()])
    residual = np.asarray(net.capacities)
    plan = get_consumption(net, cat, residual, 0)
    best = brute_min_latency(net, cat, residual, 0)
    if plan.at_edge:
        assert plan.latency >= best - 1e-12
    # if the exhaustive search finds nothing, greedy must not pretend otherwise
    if math.isinf(best):
        assert not plan.at_edge
