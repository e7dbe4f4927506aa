from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcbackup import Catalog, EdgeNetwork, validate_instance
from sfcbackup.model import cheapest_link_anchor

from reference import neighbors


def small_net() -> EdgeNetwork:
    return EdgeNetwork([10, 8, 9], {(0, 1): 2.0, (1, 2): 5.0})


def test_validate_clean_instance() -> None:
    net = small_net()
    cat = Catalog([3, 4], [[0, 1], [1]])
    assert validate_instance(net, cat) == []


def test_validate_dangling_vnf_id() -> None:
    net = small_net()
    cat = Catalog([3, 4], [[0, 99]])
    problems = validate_instance(net, cat)
    assert any("unknown VNF 99" in p for p in problems)


def test_validate_disconnected() -> None:
    net = EdgeNetwork([5, 5, 5], {(0, 1): 1.0})
    problems = validate_instance(net, Catalog([1], [[0]]))
    assert any("disconnected" in p for p in problems)


def test_validate_negative_and_structural() -> None:
    net = EdgeNetwork([5, -1], {(0, 0): 1.0, (0, 1): -2.0})
    cat = Catalog([-3], [[0], []])
    problems = validate_instance(net, cat)
    assert any("capacity[1]" in p for p in problems)
    assert any("self-loop" in p for p in problems)
    assert any("invalid latency" in p for p in problems)
    assert any("demand is negative" in p for p in problems)
    assert any("empty chain" in p for p in problems)


def test_validate_duplicate_link() -> None:
    net = EdgeNetwork([5, 5], [(0, 1, 1.0), (1, 0, 2.0)])
    problems = validate_instance(net, Catalog([1], [[0]]))
    assert any("duplicate link" in p for p in problems)


def test_single_server_no_links_is_connected() -> None:
    net = EdgeNetwork([7])
    assert validate_instance(net, Catalog([2], [[0]])) == []


def test_neighbors_by_latency_sorted() -> None:
    net = EdgeNetwork([1, 1, 1], {(0, 1): 5.0, (0, 2): 2.0})
    assert net.neighbor_lists == ((2, 1), (0,), (0,))
    assert [net.latency_rows[0][m] for m in net.neighbor_lists[0]] == [2.0, 5.0]


def test_neighbors_by_latency_tie_by_id() -> None:
    net = EdgeNetwork([1, 1, 1, 1, 1], {(4, 0): 3.0, (0, 1): 3.0})
    assert net.neighbor_lists[0] == (1, 4)


def test_neighbors_isolated_node() -> None:
    net = EdgeNetwork([1, 1, 1], {(0, 1): 1.0})
    assert net.neighbor_lists[2] == ()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 30))
def test_neighbors_ordering_property(n: int, raw_seed: int) -> None:
    rng = np.random.default_rng(raw_seed)
    links = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                links[(u, v)] = float(rng.uniform(0.1, 3.0))
    net = EdgeNetwork([1] * n, links)
    for node in range(n):
        nbrs = net.neighbor_lists[node]
        lats = [net.latency_rows[node][m] for m in nbrs]
        assert lats == sorted(lats)
        expected = {v for (u, v) in links if u == node} | {u for (u, v) in links if v == node}
        assert set(nbrs) == expected
        # the reference walks' lists, ties by id, in the same order
        assert neighbors(net)[node] == list(nbrs)


def anchors(net: EdgeNetwork, residual: list[int]) -> set[int]:
    # the anchor of a list residual and of its int64 array form, which must agree
    return {cheapest_link_anchor(net, residual),
            cheapest_link_anchor(net, np.asarray(residual, dtype=np.int64))}


def test_cheapest_link_anchor_larger_residual() -> None:
    net = EdgeNetwork([10, 8, 9], {(0, 1): 2.0, (1, 2): 5.0})
    assert anchors(net, [10, 8, 9]) == {0}
    assert anchors(net, [3, 8, 9]) == {1}


def test_cheapest_link_anchor_residual_tie_smaller_id() -> None:
    net = EdgeNetwork([10, 10], {(0, 1): 1.0})
    assert anchors(net, [10, 10]) == {0}


def test_cheapest_link_anchor_latency_tie_lexicographic() -> None:
    net = EdgeNetwork([5, 5, 9, 9], {(0, 1): 3.0, (2, 3): 3.0})
    # the (0, 1) link wins the tie even though (2, 3) has fatter endpoints
    assert anchors(net, [5, 5, 9, 9]) == {0}
    assert anchors(net, [5, 4, 9, 9]) == {0}


def test_cheapest_link_anchor_linkless_fallback() -> None:
    net = EdgeNetwork([7])
    assert anchors(net, [7]) == {0}
    # a linkless network anchors at the first highest-residual server
    net = EdgeNetwork([3, 9, 9])
    assert anchors(net, [3, 9, 9]) == {1}


def test_latency_matrix_symmetric_with_inf_gaps() -> None:
    net = small_net()
    mat = net.latency_matrix
    assert mat[0, 1] == 2.0 and mat[1, 0] == 2.0
    assert math.isinf(mat[0, 2])
    assert np.all(np.diag(mat) == 0.0)


def test_scaled_capacities_floor() -> None:
    net = EdgeNetwork([10, 8, 9, 12, 8, 11])
    assert net.scaled(1.5).capacities == (15, 12, 13, 18, 12, 16)
    assert net.scaled(0.5).capacities == (5, 4, 4, 6, 4, 5)


def test_fresh_residual_is_a_copy() -> None:
    # capacities are an immutable tuple, so a residual built from them is a copy
    net = small_net()
    assert isinstance(net.capacities, tuple)
    res = np.asarray(net.capacities)
    res[0] -= 5
    assert net.capacities == (10, 8, 9)
