"""harness.run and its batched stages against the definitions in tests/reference.py.

reference.reference_run is the simulator written slot by slot from the
definitions, and every run here must equal it column for column, on both
decide paths of the one learner state, a lockstep.Learners: lockstep's numpy
stages, forced by LOCKSTEP_MIN_SEEDS = 1, and one policy.learned_rows call
per policy and chunk, forced by one past the learner rows (learned policies
x seeds). The random policy decides a whole draw block of rows at once, or
its few equal pieces, and lockstep.random_rows must also equal
reference.random_placement row by row.
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfcbackup import (Catalog, EdgeNetwork, InvariantViolation, RewardWeights, apply_overrides,
                       default_config_path, load_config, run)
from sfcbackup import harness, kernels, lockstep, workload
from sfcbackup import policy as policy_module
from sfcbackup.harness import LOCKSTEP_MIN_SEEDS, PLACEMENT_MODES, POLICY_ORDER

from reference import (PlacementPlan, assert_matches_reference, decision_of, decoded, estimates,
                       fresh_learners, random_placement, realized_reward, records, reference_run,
                       selection_inputs, unpack_rows, update)


def counted(monkeypatch, calls: dict, module, name: str, key: str) -> None:
    """Wraps module.name so that every call adds one to calls[key]."""
    real = getattr(module, name)

    def call(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, call)


def test_lockstep_path_is_taken_from_the_seed_threshold(monkeypatch) -> None:
    # the learner rows, learned policies x seeds, pick the decide path: one
    # lockstep.estimates call per slot for every row, the policies' seeds
    # stacked, from LOCKSTEP_MIN_SEEDS rows on, and one policy.learned_rows
    # call per policy and chunk, here all three slots, below that; alone, a
    # learned policy's rows are its seeds
    calls = {"lockstep": 0, "per_seed": 0, "random": 0}
    for module, name, key in ((lockstep, "estimates", "lockstep"),
                              (harness, "learned_rows", "per_seed"),
                              (lockstep, "random_rows", "random")):
        counted(monkeypatch, calls, module, name, key)
    cfg = load_config(default_config_path())
    learned = len(PLACEMENT_MODES)
    stacked = -(-LOCKSTEP_MIN_SEEDS // learned)     # the fewest seeds whose rows reach it
    run(apply_overrides(cfg, slots=3, seeds=f"1..{stacked}"))
    assert calls == {"lockstep": 3, "per_seed": 0, "random": 1}
    run(apply_overrides(cfg, slots=3, seeds=f"1..{stacked - 1}"))
    assert calls == {"lockstep": 3, "per_seed": learned, "random": 2}
    calls.update(lockstep=0, per_seed=0)
    run(apply_overrides(cfg, slots=3, seeds=f"1..{LOCKSTEP_MIN_SEEDS}", policy="rtsd"))
    assert calls == {"lockstep": 3, "per_seed": 0, "random": 2}
    run(apply_overrides(cfg, slots=3, seeds=f"1..{LOCKSTEP_MIN_SEEDS - 1}", policy="rtsd"))
    assert calls == {"lockstep": 3, "per_seed": 1, "random": 2}


def test_the_decide_path_can_switch_between_chunks_of_one_run(monkeypatch) -> None:
    # the row count picks the decide path on each chunk, not once per seed
    # group: with LOCKSTEP_MIN_SEEDS flipped between 1 and past the group's
    # learner rows on every chunk, the one learner state passes from
    # lockstep's stages to policy.learned_rows and back, and the run still
    # equals the reference
    calls = {"lockstep": 0, "per_seed": 0}
    counted(monkeypatch, calls, lockstep, "estimates", "lockstep")
    counted(monkeypatch, calls, harness, "learned_rows", "per_seed")
    cfg = apply_overrides(load_config(default_config_path()), slots=12, seeds="1..3")
    n_rows = len(PLACEMENT_MODES) * len(cfg.seeds)
    # chunks of two slots for the three seeds, six in the run
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    per_row = cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + layout.width + cfg.network.n_servers
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES", per_row * 2 * len(cfg.seeds))
    real_chunk = harness._learned_chunk
    chunks = []

    def flipping(*args):
        monkeypatch.setattr(harness, "LOCKSTEP_MIN_SEEDS", n_rows + 1 if len(chunks) % 2 else 1)
        chunks.append(args[4])      # t0
        return real_chunk(*args)

    monkeypatch.setattr(harness, "_learned_chunk", flipping)
    result = run(cfg)
    trace, summary = reference_run(cfg)
    for col in harness.CSV_COLUMNS:
        assert [(type(v), v) for v in result.trace[col]] == \
               [(type(v), v) for v in trace[col]], col
    assert result.summary == summary
    assert chunks == list(range(1, cfg.slots + 1, 2))
    # both paths ran: three chunks of two slots on lockstep's stages, and
    # three on one policy.learned_rows call per learned policy
    assert calls == {"lockstep": 3 * 2, "per_seed": 3 * len(PLACEMENT_MODES)}


def test_ground_truths_are_built_once_per_run(monkeypatch) -> None:
    # one GroundTruth a run, which every seed group's simulate_run reads
    seen = []
    real_simulate = harness.simulate_run
    built = []
    real_make = harness.make_ground_truth

    def make(*args):
        built.append(real_make(*args))
        return built[-1]

    def simulate(network, catalog, gt, seeds, weights, policies, *args, **kwargs):
        seen.append((policies, gt, seeds))
        return real_simulate(network, catalog, gt, seeds, weights, policies, *args, **kwargs)

    monkeypatch.setattr(harness, "make_ground_truth", make)
    monkeypatch.setattr(harness, "simulate_run", simulate)
    cfg = load_config(default_config_path())
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    per_row = cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + layout.width + cfg.network.n_servers
    max_values = harness.LOCKSTEP_MAX_VALUES
    # seeds, the values bound, and the seed groups it makes
    for n, bound, groups in ((LOCKSTEP_MIN_SEEDS, max_values, [range(1, LOCKSTEP_MIN_SEEDS + 1)]),
                             (2, max_values, [[1, 2]]),
                             (7, per_row * 3, [[1, 2, 3], [4, 5, 6], [7]])):
        monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES", bound)
        seen.clear()
        built.clear()
        run(apply_overrides(cfg, slots=2, seeds=f"1..{n}"))
        [gt] = built
        # one call for rtsd, bandit and random per group, each on the run's gt
        assert [(policies, list(seeds)) for policies, _, seeds in seen] == \
               [(POLICY_ORDER, list(group)) for group in groups]
        assert all(seen_gt is gt for _, seen_gt, _ in seen)


@st.composite
def instances(draw) -> dict:
    """Small configs with ties, linkless single servers, chains that never fit and repeats."""
    n_servers = draw(st.integers(1, 4))
    links = [[k, k + 1, draw(st.sampled_from([0.0, 0.5, 1.0]))]
             for k in range(n_servers - 1)]        # a path keeps the network connected
    for u in range(n_servers):
        for v in range(u + 2, n_servers):
            if draw(st.booleans()):
                links.append([u, v, draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))])
    n_vnfs = draw(st.integers(1, 4))
    chains = draw(st.lists(st.lists(st.integers(0, n_vnfs - 1), min_size=1, max_size=3),
                           min_size=1, max_size=4))
    probs = st.sampled_from([0.0, 0.3, 0.5, 1.0])
    first = draw(st.integers(0, 50))
    n_seeds = draw(st.sampled_from([1, 2, LOCKSTEP_MIN_SEEDS - 1, LOCKSTEP_MIN_SEEDS,
                                    LOCKSTEP_MIN_SEEDS + 1]))
    learner = {"failure_bonus_sign": draw(st.sampled_from([1, -1]))}
    scale = draw(st.sampled_from([None, 0.0, 1.0, 1e308]))    # None: the per-user default
    if scale is not None:
        learner["failure_bonus_scale"] = scale
    return {
        "network": {"capacities": draw(st.lists(st.integers(0, 12), min_size=n_servers,
                                                max_size=n_servers)),
                    "links": links},
        "catalog": {"vnf_demand": draw(st.lists(st.integers(0, 15), min_size=n_vnfs,
                                                max_size=n_vnfs)),
                    "sfc_chain": chains},
        "ground_truth": {"request_prob": draw(st.one_of(
                             probs, st.lists(probs, min_size=len(chains), max_size=len(chains)))),
                         "failure_mean": draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                                                       min_size=n_vnfs, max_size=n_vnfs))},
        "weights": {"omega": draw(st.sampled_from([0.5, 1.0, 2.0])),
                    "mu": draw(st.sampled_from([0.0, 1.0, 3.0]))},
        "users": draw(st.integers(1, 5)),
        "slots": draw(st.integers(1, 12)),
        "seeds": f"{first}..{first + n_seeds - 1}",
        "learner": learner,
    }


# Module constants that set where blocks, chunks, seed groups and the plan
# graph end. The small values make a 12-slot run cross every such boundary.
BOUNDARIES = {"OBS_BLOCK_SLOTS": harness, "LOCKSTEP_MAX_VALUES": harness, "NODE_CAP": kernels}
DEFAULTS = {name: getattr(module, name) for name, module in BOUNDARIES.items()}
boundaries = st.fixed_dictionaries({
    name: st.sampled_from([DEFAULTS[name], *small]) for name, small
    in (("OBS_BLOCK_SLOTS", [1, 2, 5]), ("LOCKSTEP_MAX_VALUES", [20, 40, 90]), ("NODE_CAP", [2]))})


@settings(max_examples=25, deadline=None)
@example(doc={
    # one linkless server, a repeated VNF, a chain that never fits, tied popularity
    "network": {"capacities": [9], "links": []},
    "catalog": {"vnf_demand": [2, 3, 20], "sfc_chain": [[0, 0], [1], [2], [0, 1]]},
    "ground_truth": {"request_prob": 0.5, "failure_mean": [0.1, 0.0, 0.5]},
    "weights": {"omega": 1.0, "mu": 1.0}, "users": 3, "slots": 10,
    "seeds": f"7..{6 + LOCKSTEP_MIN_SEEDS}", "learner": {"failure_bonus_sign": 1}},
    limits=DEFAULTS)
@example(doc={
    # perfbench's small-regret instance with regret on, in chunks of one slot
    "network": {"capacities": [10, 8, 6], "links": [[0, 1, 0.4], [1, 2, 0.7], [0, 2, 1.1]]},
    "catalog": {"vnf_demand": [3, 4, 2, 5], "sfc_chain": [[0, 1], [2, 3, 2], [1, 1]]},
    "ground_truth": {"request_prob": [0.7, 0.5, 0.4], "failure_mean": [0.05, 0.1, 0.02, 0.2]},
    "users": 4, "slots": 30, "seeds": "2..4", "regret": True,
    "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1}},
    limits={"OBS_BLOCK_SLOTS": 3, "LOCKSTEP_MAX_VALUES": 40, "NODE_CAP": 2})
@example(doc={
    # a chain of zero demand, whose commits come back to their plan-graph node
    "network": {"capacities": [4, 3], "links": [[0, 1, 0.5]]},
    "catalog": {"vnf_demand": [0, 2], "sfc_chain": [[0], [1, 0]]},
    "ground_truth": {"request_prob": 0.8, "failure_mean": [0.1, 0.05]},
    "users": 3, "slots": 12, "seeds": "1..3"},
    limits={"OBS_BLOCK_SLOTS": 5, "LOCKSTEP_MAX_VALUES": 40, "NODE_CAP": 2})
@given(doc=instances(), limits=boundaries)
def test_run_equals_the_reference(doc: dict, limits: dict) -> None:
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, value in limits.items():
            monkeypatch.setattr(BOUNDARIES[name], name, value)
        assert_matches_reference(load_config(doc), monkeypatch)


def test_bundled_run_equals_the_reference(monkeypatch) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=30,
                          seeds=f"5..{4 + LOCKSTEP_MIN_SEEDS}")
    assert_matches_reference(cfg, monkeypatch)


def test_ten_chain_run_equals_the_reference(monkeypatch) -> None:
    # ten chains: slots that commit eight or more, where a pairwise sum over
    # the chains would round otherwise than the commit-order sum both rewards
    # take, which the smaller instances above never reach
    cfg = load_config({
        "network": {"capacities": [14, 9, 12, 7],
                    "links": [[0, 1, 0.4], [1, 2, 0.9], [2, 3, 0.3], [0, 3, 1.3]]},
        "catalog": {"vnf_demand": [2, 3, 1, 4, 2],
                    "sfc_chain": [[0, 1], [2], [3, 3], [4, 0, 2], [1], [2, 4], [0],
                                  [3, 1], [4], [1, 2, 0]]},
        "ground_truth": {"request_prob": [0.9, 0.3, 0.6, 0.45, 0.8, 0.2, 0.7, 0.5, 0.35, 0.65],
                         "failure_mean": [0.05, 0.1, 0.02, 0.2, 0.01]},
        "weights": {"omega": 1.3, "mu": 0.7},
        "users": 6, "slots": 40, "seeds": f"3..{2 + LOCKSTEP_MIN_SEEDS}",
        "learner": {"failure_bonus_scale": 0.5, "failure_bonus_sign": -1},
    })
    assert_matches_reference(cfg, monkeypatch)


def test_reference_calls_no_simulator_stage(monkeypatch) -> None:
    # every function and class of kernels and lockstep, and the two
    # environment draws, raise wherever a module binds them; the reference
    # still runs every policy
    stages = [value for module in (kernels, lockstep) for value in vars(module).values()
              if callable(value) and getattr(value, "__module__", None) == module.__name__]
    stages += [workload.sample_arrays, workload.slot_stream]
    assert len(stages) > 20

    class Refused:
        """A stage's stand-in: calling it, or reading an attribute such as Layout.of, raises."""

        def __call__(self, *args, **kwargs):
            raise AssertionError("the reference called a simulator stage")

        def __getattr__(self, name):
            raise AssertionError("the reference called a simulator stage")

    refuse = Refused()
    for name, module in list(sys.modules.items()):
        if name.startswith("sfcbackup") or name == "reference":
            for attr, value in list(vars(module).items()):
                if any(value is stage for stage in stages):
                    monkeypatch.setattr(module, attr, refuse)
    cfg = apply_overrides(load_config(default_config_path()), slots=4, seeds="1..2")
    trace, _ = reference_run(cfg)
    assert len(trace["t"]) == len(POLICY_ORDER) * 2 * 4
    with pytest.raises(AssertionError, match="simulator stage"):
        run(cfg)


# a small instance for the decide paths: a repeated VNF ([0, 0]), chains
# that share VNFs, and room for two or three chains a slot
LEARNER_NETWORK = EdgeNetwork([9, 6, 7], [(0, 1, 0.4), (1, 2, 0.9)])
LEARNER_CATALOG = Catalog([2, 3, 1, 4], [[0, 0], [1, 2], [3], [2, 0, 1]])
LEARNER_FIELDS = (("selected", "request_total", "request_mean"),
                  ("placements", "failure_total", "failure_mean"))


def test_lockstep_learners_equal_the_per_seed_learners(monkeypatch) -> None:
    # policy.learned_rows decides and learns chunk by chunk on one block of a
    # two-block lockstep.Learners, as harness stacks the two learned
    # policies: rtsd's block first, bandit's second. A one-block Learners,
    # fed the rows it returns, and a reference.update pair per seed follow it
    # slot by slot. Every slot's lockstep estimates equal reference.estimates,
    # every seed's kernel inputs equal selection_rows' row, value for value,
    # after every chunk all six learner fields agree, and the other block's
    # rows are as they were. One seed and three, both placement walks, both
    # bonus signs at the default and a set scale, and a scale whose bonus
    # overflows; the chunks start at slots 1, 2, 6 and 13.
    rng = np.random.default_rng(5)
    n_sfcs, n_vnfs, users = LEARNER_CATALOG.n_sfcs, LEARNER_CATALOG.n_vnfs, 5
    weights = RewardWeights(omega=1.3, mu=0.7)
    layout = lockstep.Layout.of(LEARNER_NETWORK, LEARNER_CATALOG)
    seen = []       # each kernel call's inputs, in call order
    real = kernels.slot_decide

    def decide(graph, value, gates, bounds, ranked, *rest):
        seen.append((value, gates, bounds, list(ranked)))
        return real(graph, value, gates, bounds, ranked, *rest)

    monkeypatch.setattr(kernels, "slot_decide", decide)
    for n_seeds, policy, (sign, scale) in product(
            (1, 3), PLACEMENT_MODES, ((1, None), (-1, None), (1, 0.8), (-1, 0.8), (1, 1e308))):
        live = lockstep.Learners.fresh(2 * n_seeds, n_sfcs, n_vnfs, users, scale, sign)
        first = list(PLACEMENT_MODES).index(policy) * n_seeds
        other = slice(n_seeds - first, 2 * n_seeds - first)
        # the other block holds arms of its own, which the chunks must leave be
        kept = {}
        for name in LEARNER_FIELDS[0] + LEARNER_FIELDS[1]:
            field = getattr(live, name)
            field[other] = rng.integers(1, 50, size=field[other].shape)
            kept[name] = field[other].copy()
        batch = lockstep.Learners.fresh(n_seeds, n_sfcs, n_vnfs, users, scale, sign)
        shadows = [fresh_learners(n_sfcs, n_vnfs, users, failure_bonus_scale=scale,
                                  failure_bonus_sign=sign) for _ in range(n_seeds)]
        graph = kernels.PlanGraph(LEARNER_NETWORK, LEARNER_CATALOG, PLACEMENT_MODES[policy])
        deployed = repeats = 0
        for t0, n_slots in ((1, 1), (2, 4), (6, 7), (13, 3)):
            requests = rng.integers(0, users + 1, size=(n_slots, n_seeds, n_sfcs))
            failed = (rng.random((n_slots, n_seeds, n_vnfs)) < 0.3).astype(np.uint8)
            seen.clear()
            _, counts, _, x, placed = policy_module.learned_rows(
                live, first, t0, requests.swapaxes(0, 1).tolist(),
                failed.swapaxes(0, 1).tolist(), weights, graph)
            deployed += sum(counts)
            repeats += int((placed[:, 0] >= 2).sum())       # [0, 0] and more copies
            for j, t in enumerate(range(t0, t0 + n_slots)):
                q, v = lockstep.estimates(batch, t)
                for shadow, q_row, v_row in zip(shadows, q.tolist(), v.tolist()):
                    assert (q_row, v_row) == estimates(shadow, t)
                # the seeds ran one after another, each through the chunk's slots
                inputs = [seen[s * n_slots + j] for s in range(n_seeds)]
                rows = lockstep.selection_rows(layout, q, v, weights.omega)
                assert repr(inputs) == repr(list(zip(*rows)))
                rows = slice(j * n_seeds, (j + 1) * n_seeds)
                lockstep.update(batch, requests[j], failed[j], x[rows], placed[rows])
                for shadow, *observed in zip(shadows, requests[j].tolist(), failed[j].tolist(),
                                             x[rows].tolist(), placed[rows].tolist()):
                    update(shadow, *observed)
            for k, names in enumerate(LEARNER_FIELDS):
                for name in names:
                    field = getattr(live, name)
                    assert field[first:first + n_seeds].tolist() == getattr(batch, name).tolist() \
                        == [getattr(shadow[k], name) for shadow in shadows], \
                        (n_seeds, policy, sign, scale, t0, name)
                    assert np.array_equal(field[other], kept[name]), name
        assert deployed > 2 * n_seeds and repeats, (n_seeds, policy, sign, scale)


def test_run_past_the_plan_graph_node_cap_equals_the_reference(monkeypatch) -> None:
    # the bundled instance reaches many more than two residual states, so past
    # the cap nearly every commit reaches a state the graph never stores and
    # takes an id after the stored edges'; each chunk's gather then drops
    # those ids, and after the run the edge tables hold the stored edges alone
    graphs, handed = [], []

    class RecordedGraph(kernels.PlanGraph):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            graphs.append(self)

        def commit(self, node, f):
            edge = super().commit(node, f)
            handed.append((self, edge[1]))
            return edge

    monkeypatch.setattr(kernels, "NODE_CAP", 2)
    monkeypatch.setattr(harness, "PlanGraph", RecordedGraph)
    cfg = apply_overrides(load_config(default_config_path()), slots=25,
                          seeds=f"1..{LOCKSTEP_MIN_SEEDS}", policy="rtsd")
    assert_matches_reference(cfg, monkeypatch)
    assert len(graphs) == 2         # one run per decide path
    for graph in graphs:
        stored = [e for _, _, edges in graph.nodes.values() for _, e in edges.values()]
        assert len(graph.nodes) == 2
        assert sorted(stored) == list(range(graph.stored))
        assert len(graph.edge_sfc) == len(graph.edge_latency) == len(graph.edge_servers) \
            == graph.stored
        unstored = [e for g, e in handed if g is graph and e >= graph.stored]
        assert len(unstored) > 10 * cfg.slots


@pytest.mark.parametrize("node_cap", [2, 20, kernels.NODE_CAP])
def test_gather_equals_the_edge_tables_read_by_id(monkeypatch, node_cap: int) -> None:
    # gather keeps the stored edges' arrays on the graph from chunk to chunk and
    # converts only the edges past them; each chunk's Records equal those read
    # off the edge tables' lists at the call, past NODE_CAP (2: most ids are
    # unstored), across it (20: the stored edges stop growing mid-run) and
    # below it (the run reaches fewer than 30 residual states a graph)
    unstored, graphs = [], {}     # graphs: each one's stored edge counts at the calls
    real = lockstep.gather

    def gather(graph, ids, counts, residuals):
        ends = np.cumsum(counts).tolist()
        want = records([decoded(graph, ids[end - n:end]) for n, end in zip(counts, ends)],
                       residuals)
        unstored.append(sum(e >= graph.stored for e in ids))
        graphs.setdefault(graph, set()).add(graph.stored)
        got = real(graph, ids, counts, residuals)
        for name in ("row", "sfc", "latency", "positions", "servers", "residual"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        return got

    monkeypatch.setattr(kernels, "NODE_CAP", node_cap)
    monkeypatch.setattr(lockstep, "gather", gather)
    cfg = apply_overrides(load_config(default_config_path()), slots=40, seeds="1..3",
                          policy=["rtsd", "bandit"])
    # chunks of one slot for the three seeds
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    per_row = cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + layout.width + cfg.network.n_servers
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES", per_row * 3)
    run(cfg)
    assert len(unstored) == 2 * cfg.slots
    assert any(unstored) == (node_cap < DEFAULTS["NODE_CAP"])
    for graph, stored in graphs.items():
        assert len(graph.nodes) <= node_cap
        assert len(stored) > (node_cap > 2)       # the arrays were extended mid-run
        assert [len(table) for table in graph.edge_arrays[:4]] == [graph.stored] * 4
        assert len(graph.edge_arrays[4]) == sum(map(len, graph.edge_servers))


def test_lockstep_groups_bound_the_seeds_advanced_together(monkeypatch) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=20,
                          seeds=f"1..{2 * LOCKSTEP_MIN_SEEDS + 3}")
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    per_row = cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + layout.width + cfg.network.n_servers
    # every policy: two groups of LOCKSTEP_MIN_SEEDS seeds, then the last three,
    # and a learned policy's check and slot_values calls of LOCKSTEP_MIN_SEEDS
    # rows at most; the random policy's hold up to 2 * LOCKSTEP_MAX_VALUES
    # entries in each (L, R) table of random_rows
    max_values = harness.LOCKSTEP_MAX_VALUES
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES",
                        per_row * LOCKSTEP_MIN_SEEDS + per_row - 1)
    sizes = {policy: [] for policy in POLICY_ORDER}
    # rows of every check call, each a learned chunk or a random piece, and of
    # every slot_values call
    rows = {"learned": [], "random": [], "slot_values": []}
    real_simulate = harness.simulate_run

    def recorded(network, catalog, gt, seeds, weights, policies, *args, **kwargs):
        for policy in policies:
            sizes[policy].append(len(seeds))
        return real_simulate(network, catalog, gt, seeds, weights, policies, *args, **kwargs)

    def bound() -> int:
        return max(1, harness._batch_rows(layout))

    real_check, real_values = lockstep.check, lockstep.slot_values

    def check(layout, rec, label, x=None, placed=None):
        # the random policy keeps no learners, and hands check no x
        rows["random" if x is None else "learned"].append(rec.residual.shape[0])
        return real_check(layout, rec, label, x, placed)

    def slot_values(*args):
        rows["slot_values"].append(args[5].residual.shape[0])
        return real_values(*args)

    monkeypatch.setattr(harness, "simulate_run", recorded)
    monkeypatch.setattr(lockstep, "check", check)
    monkeypatch.setattr(lockstep, "slot_values", slot_values)
    assert_matches_reference(cfg, monkeypatch)
    # the run on lockstep's stages, at the shipped LOCKSTEP_MIN_SEEDS (the last
    # group on policy.learned_rows), then on policy.learned_rows
    groups = [LOCKSTEP_MIN_SEEDS] * 2 + [3]
    assert sizes == {policy: groups * 3 for policy in POLICY_ORDER}
    sizes["random"].clear()
    # two slots group the random policy's seeds as twenty do
    short = apply_overrides(cfg, slots=2, policy="random")
    assert_matches_reference(short, monkeypatch)
    assert sizes["random"] == groups * 3
    # every checked batch of rows is valued as one
    assert sorted(rows["slot_values"]) == sorted(rows["learned"] + rows["random"])
    assert max(rows["learned"]) == bound()
    assert bound() < max(rows["random"]) <= \
        2 * harness.LOCKSTEP_MAX_VALUES // layout.chain_flat.shape[0]

    # at the default bounds a lockstep run checks many slots per call
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES", max_values)
    sizes["rtsd"].clear()
    rows["learned"].clear()
    run(apply_overrides(cfg, seeds=f"1..{LOCKSTEP_MIN_SEEDS}", policy="rtsd"))
    assert sizes["rtsd"] == [LOCKSTEP_MIN_SEEDS]
    assert 0 < len(rows["learned"]) < cfg.slots
    assert max(rows["learned"]) <= bound()


# the fewest seeds whose learner rows, stacked for both learned policies, reach
# LOCKSTEP_MIN_SEEDS: a run of every policy takes lockstep's stages here, a
# policy alone policy.learned_rows
STACKED_SEEDS = -(-LOCKSTEP_MIN_SEEDS // len(PLACEMENT_MODES))


@pytest.mark.parametrize("n_seeds", [1, 3, STACKED_SEEDS, LOCKSTEP_MIN_SEEDS,
                                     2 * LOCKSTEP_MIN_SEEDS + 3])
def test_policies_run_together_as_they_run_alone(monkeypatch, n_seeds: int) -> None:
    # one pass decides every policy on the same draws, the learned policies'
    # learners stacked in one state; each policy's rows and summary entry must
    # still be those of a run of that policy alone
    cfg = apply_overrides(load_config(default_config_path()), slots=20,
                          seeds=f"1..{n_seeds}")
    if n_seeds > LOCKSTEP_MIN_SEEDS:
        # seed groups of LOCKSTEP_MIN_SEEDS, as in the test above, the last one
        # on policy.learned_rows
        layout = lockstep.Layout.of(cfg.network, cfg.catalog)
        per_row = (cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + layout.width
                   + cfg.network.n_servers)
        monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES", per_row * LOCKSTEP_MIN_SEEDS)
    together = run(cfg)
    policy_column = together.trace["policy"]
    for policy in POLICY_ORDER:
        alone = run(apply_overrides(cfg, policy=policy))
        rows = [k for k, name in enumerate(policy_column) if name == policy]
        assert len(rows) == n_seeds * cfg.slots
        for col in harness.CSV_COLUMNS:
            assert [(type(v), v) for v in map(together.trace[col].__getitem__, rows)] == \
                   [(type(v), v) for v in alone.trace[col]], (policy, col)
        assert together.summary["policies"][policy] == alone.summary["policies"][policy]
        assert list(alone.summary["policies"]) == [policy]


# --- the batched verification -------------------------------------------------

TAMPER_DOC = {
    "network": {"capacities": [10, 1], "links": [[0, 1, 0.5]]},
    "catalog": {"vnf_demand": [3, 2], "sfc_chain": [[0], [1, 1]]},
    "ground_truth": {"request_prob": 0.9, "failure_mean": [0.0, 0.0]},
    "users": 4, "slots": 3, "seeds": f"1..{LOCKSTEP_MIN_SEEDS}", "policies": "rtsd",
    "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
}


def _swap_first(graph, ids: list, first: int, **changes) -> int:
    # a tampered copy of the row's first edge goes to the end of the edge
    # tables, and its id replaces the row's first id, so no other row changes;
    # returns the edge's chain
    e = ids[first]
    entry = {"sfc": graph.edge_sfc[e], "latency": graph.edge_latency[e],
             "servers": graph.edge_servers[e], **changes}
    graph.edge_sfc.append(entry["sfc"])
    graph.edge_latency.append(entry["latency"])
    graph.edge_servers.append(entry["servers"])
    ids[first] = len(graph.edge_sfc) - 1
    return entry["sfc"]


def _load(residuals: list, f: int, servers, sign: int) -> None:
    # takes (sign 1) or gives back (sign -1) chain f's load on servers, one
    # position each, from the row's residual, so that a tampered plan keeps it
    # equal to capacity minus load and only the condition under test objects
    demand, chains = TAMPER_DOC["catalog"]["vnf_demand"], TAMPER_DOC["catalog"]["sfc_chain"]
    residual = list(residuals[-1])
    for server, i in zip(servers, chains[f]):
        residual[server] -= sign * demand[i]
    residuals[-1] = tuple(residual)


def _tamper_plan(graph, ids: list, first: int, residuals: list, servers) -> int:
    # the row's first commit moves onto servers, the residual following it
    f = graph.edge_sfc[ids[first]]
    _load(residuals, f, graph.edge_servers[ids[first]], -1)
    _load(residuals, f, servers, 1)
    return _swap_first(graph, ids, first, servers=servers)


def _overload(graph, ids: list, first: int, residuals: list) -> None:
    _tamper_plan(graph, ids, first, residuals, (1,) * len(graph.edge_servers[ids[first]]))


def _twice(graph, ids: list, first: int, residuals: list) -> int:
    # chain 0 again: its demand of 3 still fits what the row leaves on server 0
    e = next(e for e in ids[first:] if graph.edge_sfc[e] == 0)
    ids.append(e)
    _load(residuals, 0, graph.edge_servers[e], 1)
    return 0


def _short_residual(graph, ids: list, first: int, residuals: list) -> None:
    residuals[-1] = (residuals[-1][0] - 1,) + residuals[-1][1:]


def _expected(message: str, sfc: int | None) -> str:
    # the full text after "slot t: ", with the chain a commit's fault names
    return message if sfc is None else f"SFC {sfc} {message}"


# Each tamper acts on one call of kernels.slot_decide: ids[first:] are the
# row's edge ids and residuals[-1] its residual. It returns the chain whose
# commit it broke, or None for a fault of the row's totals. Server 1 holds 1,
# and the unknown server 2 is left off the residual.
TAMPERS = {
    "server load exceeds capacity": _overload,
    "residual bookkeeping mismatch": _short_residual,
    "committed a partial plan":
        lambda graph, ids, first, residuals: _tamper_plan(
            graph, ids, first, residuals, graph.edge_servers[ids[first]][:-1]),
    "assigned to unknown server 2":
        lambda graph, ids, first, residuals: _swap_first(
            graph, ids, first, servers=(2,) * len(graph.edge_servers[ids[first]])),
    "committed twice": _twice,
    "committed at infinite latency":
        lambda graph, ids, first, residuals: _swap_first(graph, ids, first, latency=math.inf),
}


TAMPER_SEED_COUNTS = (1, LOCKSTEP_MIN_SEEDS - 1, LOCKSTEP_MIN_SEEDS)


def _decide_call(cfg, slot: int, seed: int) -> int:
    """The call of kernels.slot_decide, from 0, that decides seed number seed's slot.

    For a run of one learned policy: lockstep's stages decide slot by slot,
    each slot across the seeds, and policy.learned_rows runs a chunk seed by
    seed, each seed's slots of the chunk in order.
    """
    n_seeds = len(cfg.seeds)
    if n_seeds >= LOCKSTEP_MIN_SEEDS:
        return (slot - 1) * n_seeds + seed
    chunk, block = harness._chunk_and_block(lockstep.Layout.of(cfg.network, cfg.catalog),
                                            n_seeds)
    b0 = (slot - 1) // block * block + 1            # the slot's block, then its chunk
    t0 = b0 + (slot - b0) // chunk * chunk
    length = min(chunk, b0 + block - t0, cfg.slots + 1 - t0)
    return (t0 - 1) * n_seeds + seed * length + slot - t0
LATE_TAMPER = "residual bookkeeping mismatch"


def _tamper_case(message: str, n_seeds: int, slot: int | None, slots: int | None):
    name = message if n_seeds == LOCKSTEP_MIN_SEEDS else f"{message}, seeds={n_seeds}"
    if slot is None:
        name += ", past the first block"
    elif slot != 2:
        name += f", slot={slot}"
    return pytest.param(message, n_seeds, slot, slots, id=name)


@pytest.mark.parametrize("message, n_seeds, slot, slots", [
    *(_tamper_case(message, n, 2, 3) for message in TAMPERS for n in TAMPER_SEED_COUNTS),
    *(_tamper_case(LATE_TAMPER, n, None, None) for n in TAMPER_SEED_COUNTS)])
def test_batched_check_rejects_a_tampered_commit(monkeypatch, message: str, n_seeds: int,
                                                 slot: int | None, slots: int | None) -> None:
    # both decide paths check a chunk of decisions after deciding it, and
    # name the earliest slot that fails
    cfg = apply_overrides(load_config(TAMPER_DOC), seeds=f"1..{n_seeds}", slots=slots)
    if slot is None:
        # past the first block of drawn slots, in the next block's one, partial chunk
        _, block = harness._chunk_and_block(lockstep.Layout.of(cfg.network, cfg.catalog),
                                            n_seeds)
        slot, cfg = block + 3, apply_overrides(cfg, slots=block + 7)
    seed = min(3, n_seeds - 1)              # the fourth seed, or the last one
    target = _decide_call(cfg, slot, seed) + 1
    calls, named = [], []
    real = kernels.slot_decide

    def tampered(graph, value, gates, bounds, ranked, mu, ids, residuals):
        first = len(ids)
        real(graph, value, gates, bounds, ranked, mu, ids, residuals)
        calls.append(1)
        if len(calls) == target:
            assert len(ids) > first, "the tampered seed must have committed a chain"
            named.append(TAMPERS[message](graph, ids, first, residuals))
        return len(ids) - first

    monkeypatch.setattr(kernels, "slot_decide", tampered)
    with pytest.raises(InvariantViolation) as err:
        run(cfg)
    assert str(err.value) == f"seed {cfg.seeds[seed]}, slot {slot}: {_expected(message, *named)}"


# What the learners of one row were updated with, its backup vector x and its
# copies per VNF (rows of the arrays lockstep.update takes and learned_rows
# returns), tampered in place so that x, the copies, or both fall out of step
# with the records. Chain 2 runs what chain 0 runs, so moving a commit between
# them keeps the copies and changes x alone; counting a chain twice, or every
# copy twice, changes the copies alone.
SYNC_DOC = {**TAMPER_DOC, "catalog": {"vnf_demand": [3, 2], "sfc_chain": [[0], [1, 1], [0]]}}
SYNC_CHAINS = SYNC_DOC["catalog"]["sfc_chain"]


def _first_commit(x) -> int:
    return next(f for f, n in enumerate(x) if n)


def _drop_chain(x, placed) -> None:
    f = _first_commit(x)
    x[f] = 0
    for i in SYNC_CHAINS[f]:
        placed[i] -= 1


def _move_chain(x, placed) -> None:
    assert x[0], "the tampered seed must have committed chain 0"
    x[0] = 0
    x[2] = 1


def _count_twice(x, placed) -> None:
    for i in SYNC_CHAINS[_first_commit(x)]:
        placed[i] += 1


def _double_copies(x, placed) -> None:
    for i in range(len(placed)):
        placed[i] *= 2


SYNC_TAMPERS = {
    "dropped": (_drop_chain, "backup vector out of sync with plans"),
    "moved": (_move_chain, "backup vector out of sync with plans"),
    "twice": (_count_twice, "placement counts out of sync with plans"),
    "doubled": (_double_copies, "placement counts out of sync with plans"),
}


@pytest.mark.parametrize("n_seeds", TAMPER_SEED_COUNTS)
@pytest.mark.parametrize("tamper", SYNC_TAMPERS)
def test_batched_check_rejects_learners_out_of_sync(monkeypatch, tamper: str,
                                                    n_seeds: int) -> None:
    # the backup vector and copies the learners are updated with, handed to
    # lockstep.update or returned by learned_rows, are tampered at the fourth
    # (or the last) seed's slot 2 and the first seed's slot 3: check holds the
    # records to those arrays, on either decide path, and names the earlier
    # slot
    cfg = apply_overrides(load_config(SYNC_DOC), seeds=f"1..{n_seeds}", slots=4)
    seed = min(3, n_seeds - 1)
    targets = {(2 - 1) * n_seeds + seed, (3 - 1) * n_seeds}    # slot-major rows, from 0
    change, message = SYNC_TAMPERS[tamper]
    decided = []

    def tampered_row(x, placed) -> None:
        if len(decided) in targets:
            change(x, placed)
        decided.append(1)

    if n_seeds >= LOCKSTEP_MIN_SEEDS:
        real_update = lockstep.update

        def tampered_update(learners, requests, failed, x, placed):
            for row in zip(x, placed):
                tampered_row(*row)
            real_update(learners, requests, failed, x, placed)
        monkeypatch.setattr(lockstep, "update", tampered_update)
    else:
        real_rows = harness.learned_rows

        def tampered_rows(*args):
            ids, counts, residuals, x, placed = real_rows(*args)
            for row in zip(x, placed):      # slot-major, as lockstep.update's
                tampered_row(*row)
            return ids, counts, residuals, x, placed
        monkeypatch.setattr(harness, "learned_rows", tampered_rows)
    with pytest.raises(InvariantViolation) as err:
        run(cfg)
    assert str(err.value) == f"seed {cfg.seeds[seed]}, slot 2: {message}"


def _first_record(rec, row: int) -> int:
    return int(np.flatnonzero(rec.row == row)[0])


def _tamper_server(rec, row: int, server: int) -> int:
    r = _first_record(rec, row)
    rec.servers[int(rec.positions[:r].sum())] = server
    return int(rec.sfc[r])


def _tamper_latency(rec, row: int) -> int:
    r = _first_record(rec, row)
    rec.latency[r] = math.inf
    return int(rec.sfc[r])


# Each tamper returns the chain whose commit it broke, or None, as TAMPERS do.
# TAMPER_DOC has two servers, so -1 would index the last one from the end.
RANDOM_TAMPERS = {
    "assigned to unknown server 2": lambda rec, row: _tamper_server(rec, row, 2),
    "assigned to unknown server -1": lambda rec, row: _tamper_server(rec, row, -1),
    "residual bookkeeping mismatch":
        lambda rec, row: rec.residual[row].__setitem__(-1, rec.residual[row, -1] + 1),
    "committed at infinite latency": _tamper_latency,
}


def test_batched_check_rejects_a_tampered_random_commit(monkeypatch) -> None:
    cfg = apply_overrides(load_config(TAMPER_DOC), policy="random", slots=6)
    real = lockstep.random_rows
    for message, tamper in RANDOM_TAMPERS.items():
        named = []

        def tampered(layout, u, tamper=tamper, named=named):
            rec = real(layout, u)
            # the rows are slot-major: row (2 - 1) * S + 3 is the fourth seed's
            # slot 2, where chain 0 always fits
            named.append(tamper(rec, (2 - 1) * len(cfg.seeds) + 3))
            return rec

        monkeypatch.setattr(lockstep, "random_rows", tampered)
        with pytest.raises(InvariantViolation) as err:
            run(cfg)
        assert str(err.value) == f"seed {cfg.seeds[3]}, slot 2: {_expected(message, *named)}"


@pytest.mark.parametrize("policy", ["rtsd", "random"])
@pytest.mark.parametrize("n_seeds", [3, LOCKSTEP_MIN_SEEDS])
def test_check_names_the_earliest_failing_slot(monkeypatch, policy: str, n_seeds: int) -> None:
    # the first seed's slot 5 and the third seed's slot 2 are both tampered;
    # the error names slot 2, the earlier one, at every seed count
    cfg = apply_overrides(load_config(TAMPER_DOC), policy=policy, seeds=f"1..{n_seeds}",
                          slots=6)
    if policy == "random":
        targets = {(5 - 1) * n_seeds, (2 - 1) * n_seeds + 2}   # slot-major rows, from 0
        real_rows = lockstep.random_rows

        def tampered_rows(layout, u):
            rec = real_rows(layout, u)
            for row in targets:
                rec.residual[row, -1] += 1
            return rec
        monkeypatch.setattr(lockstep, "random_rows", tampered_rows)
    else:
        targets = {_decide_call(cfg, 5, 0), _decide_call(cfg, 2, 2)}
        calls = []
        real_decide = kernels.slot_decide

        def tampered_decide(graph, value, gates, bounds, ranked, mu, ids, residuals):
            out = real_decide(graph, value, gates, bounds, ranked, mu, ids, residuals)
            if len(calls) in targets:
                _short_residual(graph, ids, len(ids) - out, residuals)
            calls.append(1)
            return out
        monkeypatch.setattr(kernels, "slot_decide", tampered_decide)
    with pytest.raises(InvariantViolation) as err:
        run(cfg)
    assert str(err.value) == f"seed {cfg.seeds[2]}, slot 2: residual bookkeeping mismatch"


# --- the selection inputs -------------------------------------------------------

@st.composite
def selection_cases(draw) -> tuple:
    """Several seeds' estimates on one catalog: unexplored arms, certain failures, ties.

    Up to 40 chains and few distinct estimates, so that equal bounds are
    common, also among many keys, where a sort that is not stable reorders
    them whatever path numpy's default sort takes on the CPU. A negative
    failure estimate never reaches the builders in a run, where estimates are
    clamped to [0, 1]; it holds them to the loop's floor of the worst
    estimate at 0.0.
    """
    n_vnfs = draw(st.integers(1, 5))
    chains = draw(st.lists(st.lists(st.integers(0, n_vnfs - 1), min_size=1, max_size=4),
                           min_size=1, max_size=40))
    n_seeds = draw(st.integers(1, 4))
    q_value = st.one_of(st.sampled_from([math.inf, 0.0, 1.0, 2.5]), st.floats(0.0, 10.0))
    v_value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, -0.25]), st.floats(-1.0, 1.0))
    q = draw(st.lists(st.lists(q_value, min_size=len(chains), max_size=len(chains)),
                      min_size=n_seeds, max_size=n_seeds))
    v = draw(st.lists(st.lists(v_value, min_size=n_vnfs, max_size=n_vnfs),
                      min_size=n_seeds, max_size=n_seeds))
    omega = draw(st.one_of(st.sampled_from([1.0, 0.5, 3.0]), st.floats(0.01, 10.0)))
    return Catalog([1] * n_vnfs, chains), q, v, omega


@settings(max_examples=100, deadline=None)
# two bounds ten times each, which numpy's default argsort reorders, and 20 equal bounds
@example(case=(Catalog([1], [[0]] * 20), [[2.0, 1.0] * 10, [1.0] * 20], [[0.0], [0.5]], 1.0))
# unexplored arms with a gate of 0 (bound nan) and of 1 (bound inf), a
# repeated VNF, a negative estimate floored, and two equal bounds
@example(case=(Catalog([1, 1, 1], [[0], [1, 1], [2], [1, 2]]),
               [[math.inf, math.inf, 2.0, 2.0]], [[1.0, 0.0, -0.25]], 0.5))
@given(case=selection_cases())
def test_selection_rows_equal_the_per_seed_inputs(case) -> None:
    # lockstep.selection_rows, every seed at once, against reference.selection_inputs
    # seed by seed; repr holds each value's type and every bit of each float, so
    # nan matches nan and 0.0 does not match -0.0
    cat, q, v, omega = case
    layout = lockstep.Layout.of(EdgeNetwork([1], []), cat)
    rows = lockstep.selection_rows(layout, np.array(q), np.array(v), omega)
    want = [selection_inputs(cat, q_row, v_row, omega) for q_row, v_row in zip(q, v)]
    assert repr(rows) == repr(tuple(list(part) for part in zip(*want)))


# --- the random policy ----------------------------------------------------------

NEAR_ONE = math.nextafter(1.0, 0.0)


@st.composite
def random_policy_cases(draw) -> tuple:
    """An instance and rows of uniforms: ties, missing links, zero capacity, repeats.

    Up to 24 rows rank up to 6 chains of up to 5 VNFs each their own way, so
    one call puts chains of different lengths at the same rank.
    """
    n_servers = draw(st.integers(1, 6))
    links = [(u, v, draw(st.sampled_from([0.0, 0.5, 1.0])))
             for u in range(n_servers) for v in range(u + 1, n_servers)
             if draw(st.booleans())]
    n_vnfs = draw(st.integers(1, 4))
    chains = draw(st.lists(st.lists(st.integers(0, n_vnfs - 1), max_size=5), max_size=6))
    net = EdgeNetwork(draw(st.lists(st.integers(0, 12), min_size=n_servers,
                                    max_size=n_servers)), links)
    cat = Catalog(draw(st.lists(st.integers(0, 15), min_size=n_vnfs, max_size=n_vnfs)),
                  chains)
    value = st.one_of(st.sampled_from([0.0, 0.5, NEAR_ONE]),
                      st.floats(0.0, 1.0, exclude_max=True))
    width = lockstep.Layout.of(net, cat).width
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                         min_size=1, max_size=24))
    return net, cat, rows


@settings(max_examples=100, deadline=None)
@example(case=(EdgeNetwork([9], []), Catalog([2, 3, 20], [[0, 0], [1], [2], [0, 1]]),
               [[0.5] * 10, [NEAR_ONE] * 10, [0.0] * 10]))
@example(case=(EdgeNetwork([6, 6, 0], [(0, 1, 0.5)]), Catalog([3], [[0, 0, 0], [0]]),
               [[0.1, 0.1, 0.0, 0.9, NEAR_ONE, NEAR_ONE], [0.2, 0.1, NEAR_ONE, 0.0, 0.0, 0.5]]))
@example(case=(EdgeNetwork([5, 5], []), Catalog([3], [[0, 0]]),    # a split needs a missing link
               [[0.0, 0.0, NEAR_ONE], [0.5, NEAR_ONE, 0.0]]))
@given(case=random_policy_cases())
def test_random_rows_equal_the_per_slot_loop(case) -> None:
    net, cat, rows = case
    layout = lockstep.Layout.of(net, cat)
    u = np.array(rows, dtype=np.float64).reshape(len(rows), layout.width)
    rec = lockstep.random_rows(layout, u)
    assert unpack_rows(rec, len(rows)) == [random_placement(net, cat, row) for row in rows]
    x, _ = lockstep.check(layout, rec, lambda k: (0, k + 1))
    assert [sorted(f for f, _ in deployed) for deployed, _ in unpack_rows(rec, len(rows))] == \
           [np.flatnonzero(row).tolist() for row in x]


@pytest.mark.parametrize("n_servers", [255, 256])
def test_random_rows_count_servers_past_a_byte(n_servers: int) -> None:
    # past a byte of servers: a server index of 255 or 256 no longer fits one
    # byte of state, and the float counts run past 255. Single-VNF chains on
    # every fourth server at zero capacity: demand 0 finds room on all N,
    # demand 9 on none, and demands 1 and 2 on fewer as the chains fill them
    net = EdgeNetwork([0 if s % 4 == 3 else 1 + s % 3 for s in range(n_servers)], [])
    cat = Catalog([0, 1, 2, 9], [[0], [1], [2], [1], [3], [2], [0]])
    layout = lockstep.Layout.of(net, cat)
    rows = [[0.0] * layout.width, [NEAR_ONE] * layout.width,
            [0.5] * 7 + [0.0, NEAR_ONE, 0.5, 0.25, 0.0, NEAR_ONE, 0.999]]     # ties in rank
    rows += np.random.default_rng(n_servers).random((5, layout.width)).tolist()
    rec = lockstep.random_rows(layout, np.array(rows))
    assert unpack_rows(rec, len(rows)) == [random_placement(net, cat, row) for row in rows]
    assert rec.servers.max() == n_servers - 1       # demand 0 at NEAR_ONE takes the last
    lockstep.check(layout, rec, lambda k: (0, k + 1))


def state_types(monkeypatch) -> list[np.dtype]:
    """The integer type of every lockstep.random_rows call's state from now on."""
    seen = []
    real = lockstep._occurrences

    def recorded(layout, u, state):
        seen.append(state)
        return real(layout, u, state)

    monkeypatch.setattr(lockstep, "_occurrences", recorded)
    return seen


def assert_random_rows_equal_the_reference(net: EdgeNetwork, cat: Catalog, seed: int,
                                           n_random: int = 12) -> None:
    """random_rows on tied and random rows equals random_placement row by row, in int64."""
    layout = lockstep.Layout.of(net, cat)
    rows = [[0.0] * layout.width, [NEAR_ONE] * layout.width, [0.5] * layout.width]
    rows += np.random.default_rng(seed).random((n_random, layout.width)).tolist()
    rec = lockstep.random_rows(layout, np.array(rows))
    assert rec.servers.dtype == np.int64 and rec.residual.dtype == np.int64
    assert unpack_rows(rec, len(rows)) == [random_placement(net, cat, row) for row in rows]
    lockstep.check(layout, rec, lambda k: (0, k + 1))


def test_random_rows_on_one_linkless_server(monkeypatch) -> None:
    # every occurrence has one server to go to, so chains of any length
    # co-locate or do not fit; one byte of state holds it all
    seen = state_types(monkeypatch)
    assert_random_rows_equal_the_reference(
        EdgeNetwork([7], []), Catalog([2, 3, 0, 8], [[0, 1], [1, 1, 0], [2], [3], [0, 2, 0]]), 1)
    assert seen == [np.int8]


# the largest value of each type the state can take, and the first past it
TYPE_EDGES = [(2 ** 7 - 1, np.int8), (2 ** 7, np.int16), (2 ** 15 - 1, np.int16),
              (2 ** 15, np.int32), (2 ** 31 - 1, np.int32), (2 ** 31, np.int64)]


@pytest.mark.parametrize("edge, state", TYPE_EDGES)
def test_random_rows_at_a_capacity_edge(monkeypatch, edge: int, state: type) -> None:
    # the largest capacity sets the state's type; a demand one below it fits
    # the two largest servers once each, and single-VNF chains keep the
    # sentinel bound at minus that demand
    seen = state_types(monkeypatch)
    assert_random_rows_equal_the_reference(
        EdgeNetwork([edge, edge - 1, 2], [(0, 1, 0.5)]),
        Catalog([edge - 1, 1, 2], [[0], [1], [2], [0], [1], [0]]), edge)
    assert seen == [state]


@pytest.mark.parametrize("edge, state", TYPE_EDGES)
def test_random_rows_at_a_demand_edge(monkeypatch, edge: int, state: type) -> None:
    # the largest demand sets the state's type: it passes every capacity, so
    # its chains never fit, while a demand one below it fills server 0
    seen = state_types(monkeypatch)
    assert_random_rows_equal_the_reference(
        EdgeNetwork([edge - 1, 3, 2], [(1, 2, 0.5)]),
        Catalog([edge, 1, edge - 1], [[0], [1], [2], [1], [0], [2]]), edge)
    assert seen == [state]


@pytest.mark.parametrize("demand, state", [
    (2 ** 6, np.int8), (2 ** 6 + 1, np.int16), (2 ** 14, np.int16), (2 ** 14 + 1, np.int32),
    (2 ** 30, np.int32), (2 ** 30 + 1, np.int64), (2 ** 62, np.int64)])
def test_random_rows_at_a_sentinel_edge(monkeypatch, demand: int, state: type) -> None:
    # a chain running its VNF twice takes twice the demand from the sentinel
    # row when it finds no room, and that bound alone moves the type: every
    # capacity and demand fits the narrower one. Past int64 (three copies of
    # 2 ** 62) the type stays int64, and the sentinel, which nothing reads,
    # wraps
    seen = state_types(monkeypatch)
    assert_random_rows_equal_the_reference(
        EdgeNetwork([demand + 36, demand, 0], [(0, 1, 0.5)]),
        Catalog([demand, 1], [[0, 0], [1], [0], [1, 0]] if demand < 2 ** 62
                else [[0, 0, 0], [1], [0]]), demand)
    assert seen == [state]


@pytest.mark.parametrize("n_servers", [32, 33, 64, 127, 128])
def test_random_rows_on_many_servers(monkeypatch, n_servers: int) -> None:
    # wider count matrices, past the 32 servers no perfbench workload reaches;
    # a server index of 127 still fits one byte of state, one of 128 does not
    rng = np.random.default_rng(n_servers)
    net = EdgeNetwork(rng.integers(0, 9, n_servers).tolist(),
                      [(s, s + 1, 0.5) for s in range(n_servers - 1)]
                      + [(0, n_servers - 1, 1.0)])
    cat = Catalog([1, 3, 5, 0], [[0, 1], [2, 2, 1], [3], [1, 0, 2, 3], [2], [0, 0]])
    seen = state_types(monkeypatch)
    assert_random_rows_equal_the_reference(net, cat, n_servers, n_random=40)
    assert seen == [np.int8 if n_servers < 128 else np.int16]


def test_random_rows_decide_a_wide_block_in_one_call(monkeypatch) -> None:
    # 16 servers, 30 VNFs and 24 chains of 3 or 4 VNFs (84 positions): a row
    # holds 24 + 30 + (24 + 84) + 16 = 178 values, so 2 seeds x 50 slots, one
    # block, fit one chunk of LOCKSTEP_MAX_VALUES values
    n_servers, n_vnfs = 16, 30
    doc = {"network": {"capacities": [20] * n_servers,
                       "links": [[s, (s + 1) % n_servers, 0.5] for s in range(n_servers)]},
           "catalog": {"vnf_demand": [1 + i % 8 for i in range(n_vnfs)],
                       "sfc_chain": [[(5 * f + j) % n_vnfs for j in range(3 + f % 2)]
                                     for f in range(24)]},
           "ground_truth": {"request_prob": 0.5, "failure_mean": [0.05] * n_vnfs},
           "users": 10, "slots": 50, "seeds": "1..2", "policies": "random"}
    cfg = load_config(doc)
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    assert cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + layout.width + cfg.network.n_servers == 178
    shapes = random_calls(monkeypatch)
    run(cfg)
    assert shapes == [(50, 2)]


def random_calls(monkeypatch) -> list[tuple[int, ...]]:
    """The leading shape, (slots, seeds), of every lockstep.random_rows call from now on."""
    shapes = []
    real = lockstep.random_rows

    def recorded(layout, u):
        shapes.append(u.shape[:-1])
        return real(layout, u)

    monkeypatch.setattr(lockstep, "random_rows", recorded)
    return shapes


def test_random_policy_is_decided_once_per_draw_block(monkeypatch) -> None:
    # the bundled config's 30 seeds are one group: perfbench's canonical 50
    # slots are one block and one random_rows call, where the learned
    # policies take chunks of 19 slots; the 500 slots of a full run are two
    # blocks, each in three pieces within 2 * LOCKSTEP_MAX_VALUES entries
    cfg = apply_overrides(load_config(default_config_path()), slots=50, seeds="1..30")
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    assert harness._chunk_and_block(layout, 30) == (19, 256)
    shapes = random_calls(monkeypatch)
    run(cfg)
    assert shapes == [(50, 30)]
    shapes.clear()
    run(apply_overrides(cfg, slots=500, policy="random"))
    assert shapes == [(86, 30)] * 2 + [(84, 30)] + [(82, 30)] * 2 + [(80, 30)]
    assert 86 * 30 * layout.chain_flat.shape[0] <= 2 * harness.LOCKSTEP_MAX_VALUES


def test_random_pieces_across_chunks_and_blocks_equal_the_reference(monkeypatch) -> None:
    # three seeds in chunks of 2 slots, blocks of 10 and pieces of at most 9
    # slots: a block of 10 splits into two pieces of 5, whose boundary falls
    # inside a learned chunk, and the last block of 3 is one piece
    cfg = apply_overrides(load_config(default_config_path()), slots=23, seeds="4..6")
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    per_row = cfg.catalog.n_sfcs + cfg.catalog.n_vnfs + layout.width + cfg.network.n_servers
    monkeypatch.setattr(harness, "LOCKSTEP_MAX_VALUES", per_row * 3 * 2)
    monkeypatch.setattr(harness, "OBS_BLOCK_SLOTS", 10)
    assert harness._chunk_and_block(layout, 3) == (2, 10)
    assert 2 * harness.LOCKSTEP_MAX_VALUES // (layout.chain_flat.shape[0] * 3) == 9
    shapes = random_calls(monkeypatch)
    run(apply_overrides(cfg, policy="random"))
    assert shapes == [(5, 3)] * 4 + [(3, 3)]
    assert_matches_reference(cfg, monkeypatch)
    assert_matches_reference(apply_overrides(cfg, policy="random"), monkeypatch)


def decide_peaks(monkeypatch) -> list[int]:
    """The tracemalloc peak of every lockstep.random_rows call from now on, in bytes.

    Each is the most the call held at once above what was held when it began.
    """
    peaks = []
    real = lockstep.random_rows

    def traced(layout, u):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        rec = real(layout, u)
        peaks.append(tracemalloc.get_traced_memory()[1] - held)
        return rec

    monkeypatch.setattr(lockstep, "random_rows", traced)
    return peaks


def test_a_random_decide_holds_bounded_memory(monkeypatch) -> None:
    # the largest piece the bundled layout takes, 2 * LOCKSTEP_MAX_VALUES // L
    # = 2730 rows, read in place from a block's uniforms, peaks at about
    # 2.0 MiB, while it builds the records from the tables it stepped over,
    # 13 bytes a row and occurrence; and the piece's rows, not the group's
    # seeds, set a call's memory: a block of 400 seeds holds no more per call
    # than one of 100
    cfg = load_config(default_config_path())
    layout = lockstep.Layout.of(cfg.network, cfg.catalog)
    rows = 2 * harness.LOCKSTEP_MAX_VALUES // layout.chain_flat.shape[0]
    assert rows == 2730
    u = workload.policy_uniform_block(list(range(30)), 1, 1 + rows // 30, layout.width)
    peaks = decide_peaks(monkeypatch)
    small = {"network": {"capacities": [10, 8, 6],
                         "links": [[0, 1, 0.4], [1, 2, 0.7], [0, 2, 1.1]]},
             "catalog": {"vnf_demand": [3, 4, 2, 5], "sfc_chain": [[0, 1], [2, 3, 2], [1, 1]]},
             "ground_truth": {"request_prob": [0.7, 0.5, 0.4],
                              "failure_mean": [0.05, 0.1, 0.02, 0.2]},
             "users": 4, "slots": harness.OBS_BLOCK_SLOTS, "policies": "random"}
    tracemalloc.start()
    try:
        lockstep.random_rows(layout, u)
        [largest] = peaks
        most = {}
        for n_seeds in (100, 400):
            peaks.clear()
            run(load_config(dict(small, seeds=f"1..{n_seeds}")))
            most[n_seeds] = max(peaks)
    finally:
        tracemalloc.stop()
    assert largest <= 2.5 * 2 ** 20
    assert most[400] <= 1.1 * most[100]


@pytest.mark.parametrize("n_seeds", [1, LOCKSTEP_MIN_SEEDS - 1, LOCKSTEP_MIN_SEEDS, 30])
def test_random_run_equals_the_reference(monkeypatch, n_seeds: int) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=40, policy="random",
                          seeds=f"3..{2 + n_seeds}")
    assert_matches_reference(cfg, monkeypatch)


# --- the summation order of both rewards -----------------------------------------

# terms whose sum depends on its order, (1e16 + 1.0) - 1e16 = 0.0 against
# (1e16 - 1e16) + 1.0 = 1.0 among them, and -0.0; SPECIAL adds the infinities and NaN
TERMS = (1e16, 1.0, -1e16, 3.0, 0.1, 0.2, 0.3, -0.0, 2.5e-16, -1.0, 1e-300, 7.0)
SPECIAL = (math.inf, -math.inf, math.nan)


def test_expected_reward_adds_each_row_in_commit_order() -> None:
    # every row count of commits from 0 to F = 12, each row in its own order of
    # chains: slot_values' expected value must be the row's terms added left to
    # right from 0.0 in commit order, as reference.expected_slot_value adds a
    # slot's, bit for bit; a sum in chain-id order, or numpy's pairwise sum of
    # the nine or more terms of a long row, rounds some rows otherwise
    n_sfcs, n_rows = 12, 91
    layout = lockstep.Layout.of(EdgeNetwork([1]), Catalog([1], [[0]] * n_sfcs))
    rng = np.random.default_rng(26)
    commits = [rng.permutation(n_sfcs)[:k % (n_sfcs + 1)].tolist() for k in range(n_rows)]
    commits[-2:] = [[4], [9, 2, 5]]            # rows of -0.0 terms only
    value_true = rng.choice(TERMS, size=(n_rows, n_sfcs))
    value_true[-26:] = rng.choice(TERMS + SPECIAL, size=(26, n_sfcs))
    value_true[-2:] = -0.0
    gate_true = np.ones((n_rows, n_sfcs))
    mu = 0.7
    rec = lockstep.Records(
        row=np.repeat(np.arange(n_rows), [len(row) for row in commits]),
        sfc=np.array([f for row in commits for f in row], dtype=np.int64),
        latency=np.zeros(sum(map(len, commits))),
        positions=np.ones(sum(map(len, commits)), dtype=np.int64),
        servers=np.zeros(sum(map(len, commits)), dtype=np.int64),
        residual=np.zeros((n_rows, 1), dtype=np.int64))
    with np.errstate(invalid="ignore"):     # inf + -inf is nan, as in Python, but numpy warns
        values = lockstep.slot_values(layout, 1.0, mu,
                                      np.zeros((n_rows, n_sfcs), dtype=np.int64),
                                      np.ones((n_rows, n_sfcs), dtype=bool), rec, value_true,
                                      gate_true)
    want = []
    for value, gate, row in zip(value_true.tolist(), gate_true.tolist(), commits):
        total = 0.0
        for f in row:
            total += (value[f] - mu * 0.0) * gate[f]
        want.append(total)
    assert np.array(values["expected"]).view(np.int64).tolist() == \
           np.array(want).view(np.int64).tolist()
    assert values["deployed"] == [len(row) for row in commits]
    # the terms do round differently in another order, and reach every special value
    assert any(math.fsum(value_true[k, row]) != total for k, (row, total)
               in enumerate(zip(commits, want)) if math.isfinite(total))
    assert {repr(v) for v in want} >= {"inf", "-inf", "nan", "0.0"}


def test_realized_reward_adds_each_row_in_commit_order() -> None:
    # as above for the realised reward: chain f runs VNF f alone, commits at
    # latency -term with mu = 1.0 and no requests, so that it earns term, and
    # fails where survived is not set; slot_values must add each row's
    # surviving terms left to right from 0.0 in commit order, as
    # reference.realized_reward adds a slot's, bit for bit
    n_sfcs, n_rows = 12, 91
    cat = Catalog([1] * n_sfcs, [[f] for f in range(n_sfcs)])
    layout = lockstep.Layout.of(EdgeNetwork([n_sfcs]), cat)
    weights = RewardWeights(omega=1.0, mu=1.0)
    rng = np.random.default_rng(29)
    commits = [rng.permutation(n_sfcs)[:k % (n_sfcs + 1)].tolist() for k in range(n_rows)]
    earned = rng.choice(TERMS, size=(n_rows, n_sfcs))
    earned[-26:] = rng.choice(TERMS + SPECIAL, size=(26, n_sfcs))
    survived = rng.random((n_rows, n_sfcs)) < 0.8
    decided = [[(f, PlacementPlan(sfc=f, assignment=(0,), latency=-terms[f])) for f in row]
               for terms, row in zip(earned.tolist(), commits)]
    with np.errstate(invalid="ignore"):     # inf + -inf is nan, as in Python, but numpy warns
        values = lockstep.slot_values(layout, weights.omega, weights.mu,
                                      np.zeros((n_rows, n_sfcs), dtype=np.int64), survived,
                                      records(decided, [[0]] * n_rows),
                                      np.zeros((n_rows, n_sfcs)), np.ones((n_rows, n_sfcs)))
    want = [realized_reward(weights, [0] * n_sfcs, (~flags).tolist(),
                            decision_of(cat, 1, deployed, [0]), cat)[1]
            for flags, deployed in zip(survived, decided)]
    assert np.array(values["realized"]).view(np.int64).tolist() == \
           np.array(want).view(np.int64).tolist()
    # the surviving terms do round differently in another order, and reach
    # every special value
    assert any(math.fsum(earned[k, [f for f in row if survived[k, f]]]) != total
               for k, (row, total) in enumerate(zip(commits, want)) if math.isfinite(total))
    assert {repr(v) for v in want} >= {"inf", "-inf", "nan", "0.0"}
