from __future__ import annotations

import math

import numpy as np
import pytest

from sfcbackup import Catalog, EdgeNetwork
from sfcbackup import default_config_path, load_config
from sfcbackup import kernels, lockstep
from sfcbackup.kernels import (FIRST_FIT, GREEDY, PlanGraph, first_fit_chain_walk,
                               greedy_chain_walk, slot_decide)
from sfcbackup.harness import PLACEMENT_MODES
from sfcbackup.model import cheapest_link_anchor
from sfcbackup.workload import make_ground_truth

from reference import (anchor, decoded, first_fit_walk, greedy_walk, latencies, neighbors,
                       select, selection_inputs, slot_rows, verified_slot)


def random_setup(rng: np.random.Generator):
    n = int(rng.integers(1, 6))
    links = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                links[(u, v)] = round(float(rng.uniform(0.1, 2.0)), 3)
    net = EdgeNetwork(rng.integers(0, 14, n), links)
    n_vnfs = int(rng.integers(1, 6))
    n_sfcs = int(rng.integers(1, 5))
    cat = Catalog(rng.integers(1, 8, n_vnfs),
                  [rng.integers(0, n_vnfs, int(rng.integers(1, 5))).tolist()
                   for _ in range(n_sfcs)])
    q = rng.uniform(0.0, 8.0, n_sfcs)
    v = rng.uniform(0.0, 1.0, n_vnfs)
    return net, cat, q, v


def test_chain_walks_match_python_definitions() -> None:
    # the list walks, and src's anchor, against the reference's: a walk hands
    # back the reference plan when it is finite and DEAD_END when it is not,
    # a first-fit plan over a missing link included
    rng = np.random.default_rng(2024)
    outcomes = {"edge": 0, "cloud": 0}
    missing_link = 0        # first-fit plans the reference finds crossing a missing link
    for _ in range(150):
        net, cat, _, _ = random_setup(rng)
        nbrs, lat = neighbors(net), latencies(net)
        res = rng.integers(0, 14, net.n_servers).tolist()
        before = list(res)
        start = anchor(net, res)
        assert cheapest_link_anchor(net, res) == start
        for chain in cat.sfc_chain:
            needs = tuple(cat.vnf_demand[i] for i in chain)
            want = greedy_walk(res, cat.vnf_demand, chain, nbrs, lat, start)
            got = greedy_chain_walk(res, sorted(res), needs, net.neighbor_lists,
                                    net.latency_rows, start)
            # the list path must hand back plain floats, never numpy scalars
            assert got == (want if math.isfinite(want[0]) else kernels.DEAD_END)
            assert type(got[0]) is float
            outcomes["cloud" if math.isinf(got[0]) else "edge"] += 1
            want = first_fit_walk(res, cat.vnf_demand, chain, lat)
            got = first_fit_chain_walk(res, needs, net.latency_rows)
            assert got == (want if math.isfinite(want[0]) else kernels.DEAD_END)
            assert type(got[0]) is float
            missing_link += math.isinf(want[0]) and want[1] is not None
        # plans are tentative: the walks never touch the residual
        assert res == before
    assert min(outcomes.values()) > 50
    assert missing_link > 20


def run_slot_decide(mode, net, cat, q, v, graph=None, omega=1.0, mu=1.0):
    """slot_decide on graph (a fresh one when None): (deployed, residual) as lists.

    q and v are estimate arrays; selection_inputs builds slot_decide's
    inputs from them as lists.
    """
    graph = graph if graph is not None else PlanGraph(net, cat, mode)
    ids, residuals = [], []
    inputs = selection_inputs(cat, q.tolist(), v.tolist(), omega)
    n = slot_decide(graph, *inputs, mu, ids, residuals)
    assert type(n) is int and n == len(ids) and len(residuals) == 1
    deployed = decoded(graph, ids)
    assert all(type(plan.latency) is float for _, plan in deployed)
    return deployed, list(residuals[0])


def definition(mode, net, cat, q, v, omega=1.0, mu=1.0):
    """reference.select, the unpruned loop, on the same estimates."""
    return select(net, cat, mode == GREEDY, q.tolist(), v.tolist(), omega, mu)


def bundled_cases(rng: np.random.Generator, count: int):
    # exploration sentinels (+inf popularity) and certain failures (gate 0)
    # take branches that uniform estimates never reach
    cfg = load_config(default_config_path())
    net, cat = cfg.network, cfg.catalog
    for _ in range(count):
        q = rng.uniform(0.0, 10.0, cat.n_sfcs)
        q[rng.random(cat.n_sfcs) < 0.2] = math.inf
        v = rng.uniform(0.0, 0.3, cat.n_vnfs)
        v[rng.random(cat.n_vnfs) < 0.1] = 1.0
        yield net, cat, q, v


def test_slot_decide_matches_python_definition() -> None:
    # the pruned graph kernel against the unpruned reference loop
    rng = np.random.default_rng(77)
    cases = [random_setup(rng) for _ in range(120)]
    cases += bundled_cases(np.random.default_rng(11), 100)
    checked = 0
    for net, cat, q, v in cases:
        for mode in (GREEDY, FIRST_FIT):
            got = run_slot_decide(mode, net, cat, q, v)
            assert got == definition(mode, net, cat, q, v)
            checked += len(got[0])
    # the generator must actually exercise commits, not just empty slots
    assert checked > 50


def tie_heavy_instance(rng: np.random.Generator):
    # few distinct values everywhere, so equal scores and equal bounds are
    # common: link latencies of 0.5 and 1.0, and repeated chains
    n = int(rng.integers(1, 6))
    links = {(u, v): float(rng.choice([0.5, 1.0]))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6}
    net = EdgeNetwork(rng.integers(0, 12, n), links)
    n_vnfs = int(rng.integers(1, 5))
    chains = [rng.integers(0, n_vnfs, int(rng.integers(1, 4))).tolist()
              for _ in range(int(rng.integers(1, 4)))]
    for _ in range(int(rng.integers(0, 4))):
        chains.append(list(chains[int(rng.integers(len(chains)))]))
    order = rng.permutation(len(chains))
    cat = Catalog(rng.integers(0, 6, n_vnfs), [chains[k] for k in order])
    return net, cat


def tie_heavy_estimates(rng: np.random.Generator, cat):
    # integer popularity with the +inf exploration sentinel, gates of 0, 1/2
    # and 1, and a few weights
    q = rng.choice([0.0, 1.0, 2.0, 3.0, math.inf], cat.n_sfcs,
                   p=[0.15, 0.25, 0.25, 0.25, 0.1])
    v = rng.choice([0.0, 0.5, 1.0], cat.n_vnfs, p=[0.7, 0.15, 0.15])
    omega = float(rng.choice([0.5, 1.0, 2.0]))
    mu = float(rng.choice([0.0, 1.0, 2.0]))
    return q, v, omega, mu


def test_slot_decide_pruning_keeps_ties_on_tie_heavy_instances() -> None:
    # the pruned graph kernel against the unpruned reference loop where ties
    # decide: a chain that only matches the best score must still win on a
    # smaller id, although the scan meets it later. mu = 0 makes every score
    # equal its bound. Each of the 3000 cases runs on a cold graph and on the
    # warm graph shared by every case of its instance, whose nodes hold plans
    # and edges that earlier estimates walked and committed.
    rng = np.random.default_rng(4242)
    checked = 0
    warm_cases = 0
    for _ in range(1000):
        net, cat = tie_heavy_instance(rng)
        graphs = {mode: PlanGraph(net, cat, mode) for mode in (GREEDY, FIRST_FIT)}
        for _ in range(3):
            q, v, omega, mu = tie_heavy_estimates(rng, cat)
            for mode, warm in graphs.items():
                cached = sum(len(plans) for _, plans, _ in warm.nodes.values())
                want = definition(mode, net, cat, q, v, omega, mu)
                assert run_slot_decide(mode, net, cat, q, v, omega=omega, mu=mu) == want
                got = run_slot_decide(mode, net, cat, q, v, warm, omega, mu)
                assert got == want
                checked += len(got[0])
                warm_cases += cached > 0
    assert checked > 3000
    assert warm_cases > 3000


@pytest.mark.parametrize("cap", [0, 1])
def test_capped_graph_decides_as_an_uncapped_one(monkeypatch, cap: int) -> None:
    # past the cap, new residual states are planned for the slot at hand and
    # dropped: cost changes, decisions do not
    rng = np.random.default_rng(99)
    cases = [random_setup(rng) for _ in range(60)]
    cases += bundled_cases(np.random.default_rng(12), 60)
    uncapped, capped = {}, {}
    for net, cat, q, v in cases:
        for mode in (GREEDY, FIRST_FIT):
            key = (id(net), id(cat), mode)
            if key not in uncapped:
                uncapped[key] = PlanGraph(net, cat, mode)
                capped[key] = PlanGraph(net, cat, mode)
            want = run_slot_decide(mode, net, cat, q, v, uncapped[key])
            monkeypatch.setattr(kernels, "NODE_CAP", cap)
            got = run_slot_decide(mode, net, cat, q, v, capped[key])
            monkeypatch.undo()
            assert got == want
            assert len(capped[key].nodes) <= cap
            # a capped graph stores no edge, and a stored edge never keeps
            # a node that was not stored
            for graph in capped[key], uncapped[key]:
                edges = [edge for _, _, out in graph.nodes.values() for edge in out.values()]
                assert sorted(e for _, e in edges) == list(range(graph.stored))
                assert all(graph.nodes.get(nxt[0]) is nxt for nxt, _ in edges)
            assert capped[key].stored == 0
    # the uncapped graphs did grow past the cap
    assert any(len(graph.nodes) > cap + 1 for graph in uncapped.values())


def test_graph_shared_across_seeds_decides_as_a_fresh_one_per_slot() -> None:
    # the bundled config with one graph per policy across 30 seeds, as
    # harness.run shares it, against a fresh graph on every slot
    cfg = load_config(default_config_path())
    net, cat = cfg.network, cfg.catalog
    slots = 50
    for mode in PLACEMENT_MODES.values():
        shared = PlanGraph(net, cat, mode)
        for seed in range(1, 31):
            gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                                   cat.n_sfcs, seed)
            observations = slot_rows(gt, 1, slots + 1)
            runs = []
            for graph in (shared, None):
                learners = lockstep.Learners.fresh(1, cat.n_sfcs, cat.n_vnfs, cfg.users,
                                                   cfg.failure_bonus_scale,
                                                   cfg.failure_bonus_sign)
                runs.append([verified_slot(learners, t, requests, failed, cfg.weights,
                                           graph or PlanGraph(net, cat, mode))
                             for t, (requests, failed) in enumerate(observations, start=1)])
            for a, b in zip(*runs):
                assert a.deployed == b.deployed
                assert a.residual_after == b.residual_after
        assert 0 < len(shared.nodes) < kernels.NODE_CAP


class WalkCounter:
    def __init__(self, walk):
        self.walk = walk
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.walk(*args)


def test_slot_decide_walks_fewer_chains_than_unpruned_and_none_when_warm(monkeypatch) -> None:
    # the unpruned loop walks every remaining chain in every round, commits
    # included: rounds n_committed + 1, with F, F - 1, ... chains left. A
    # cold graph walks fewer; the same call again on the same graph walks none.
    cfg = load_config(default_config_path())
    net, cat = cfg.network, cfg.catalog
    q = np.array([4.0, 9.0, 1.0, 6.0, 2.0, 7.0])
    v = np.full(cat.n_vnfs, 0.1)
    for mode, name in ((GREEDY, "greedy_chain_walk"),
                       (FIRST_FIT, "first_fit_chain_walk")):
        counter = WalkCounter(getattr(kernels, name))
        monkeypatch.setattr(kernels, name, counter)
        graph = PlanGraph(net, cat, mode)
        got = run_slot_decide(mode, net, cat, q, v, graph)
        cold = counter.calls
        again = run_slot_decide(mode, net, cat, q, v, graph)
        monkeypatch.undo()
        assert got == definition(mode, net, cat, q, v)
        assert again == got
        n = len(got[0])
        unpruned = sum(cat.n_sfcs - r for r in range(n + 1))
        assert n >= 2
        assert 0 < cold < unpruned
        assert counter.calls == cold


def test_slot_decide_appends_to_its_outputs() -> None:
    # the kernel appends a slot's ids and residual after what its output lists
    # held, so one pair of lists collects a chunk of slots; the same call on a
    # warm graph hands back the same edge ids
    cfg = load_config(default_config_path())
    graph = PlanGraph(cfg.network, cfg.catalog, GREEDY)
    q = [4.0, 9.0, 1.0, 6.0, 2.0, 7.0]
    v = [0.1] * cfg.catalog.n_vnfs
    ids, residuals = [-1], ["held"]
    n = slot_decide(graph, *selection_inputs(cfg.catalog, q, v, 1.0), 1.0, ids, residuals)
    assert n >= 2 and len(ids) == 1 + n and len(residuals) == 2
    assert slot_decide(graph, *selection_inputs(cfg.catalog, q, v, 1.0), 1.0, ids,
                       residuals) == n
    assert ids == [-1] + ids[1:1 + n] * 2
    assert residuals == ["held"] + [residuals[1]] * 2
    assert sorted(ids[1:1 + n]) == list(range(n)) == list(range(graph.stored))


def test_plan_graph_checks_its_owner() -> None:
    # the plan graph carries its network and catalog, so only its mode can be wrong
    cfg = load_config(default_config_path())
    with pytest.raises(ValueError, match="placement mode"):
        PlanGraph(cfg.network, cfg.catalog, 7)
