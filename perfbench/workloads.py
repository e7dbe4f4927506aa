"""The benchmark's workloads, built from a workload seed.

Each workload is an experiment config plus the simulator seeds and slot count
one pass runs. The workload seed picks the simulator seeds, so two seeds give
two different observation sequences on the same instance. This module uses
only the standard library: the set-up probe times importing the package, and
importing numpy here first would hide part of that cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The wide-edge instance is drawn once from this seed, not from the workload
# seed: instances differ in how many chains fit per slot, which moves the
# per-decision cost by more than the benchmark's bounds.
WIDE_EDGE_INSTANCE_SEED = 1


def wide_edge_doc(instance_seed: int = WIDE_EDGE_INSTANCE_SEED) -> dict:
    """16 servers on a ring plus 16 random chords, 30 VNF types, 24 chains of length 2-5.

    The ring keeps the network connected for every instance seed, so the
    instance always passes config validation.
    """
    rng = random.Random(instance_seed)
    n_servers, n_vnfs, n_sfcs, n_chords = 16, 30, 24, 16
    pairs = {tuple(sorted((s, (s + 1) % n_servers))) for s in range(n_servers)}
    while len(pairs) < n_servers + n_chords:
        pairs.add(tuple(sorted(rng.sample(range(n_servers), 2))))
    links = [[u, v, round(rng.uniform(0.3, 1.2), 3)] for u, v in sorted(pairs)]
    chains = [[rng.randrange(n_vnfs) for _ in range(rng.randint(2, 5))]
              for _ in range(n_sfcs)]
    return {
        "network": {"capacities": [rng.randint(16, 26) for _ in range(n_servers)],
                    "links": links},
        "catalog": {"vnf_demand": [rng.randint(1, 8) for _ in range(n_vnfs)],
                    "sfc_chain": chains},
        "ground_truth": {
            "request_prob": [round(rng.uniform(0.3, 0.9), 3) for _ in range(n_sfcs)],
            "failure_mean": [round(rng.uniform(0.01, 0.08), 3) for _ in range(n_vnfs)],
        },
        "weights": {"omega": 1.0, "mu": 1.0},
        "users": 10,
        "policies": "all",
        "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
    }


def small_regret_doc() -> dict:
    """The 3-server, 3-chain instance of acceptance criterion 9, with regret on."""
    return {
        "network": {"capacities": [10, 8, 6],
                    "links": [[0, 1, 0.4], [1, 2, 0.7], [0, 2, 1.1]]},
        "catalog": {"vnf_demand": [3, 4, 2, 5],
                    "sfc_chain": [[0, 1], [2, 3, 2], [1, 1]]},
        "ground_truth": {"request_prob": [0.7, 0.5, 0.4],
                         "failure_mean": [0.05, 0.1, 0.02, 0.2]},
        "users": 4,
        "policies": "all",
        "regret": True,
        "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    doc: Callable[[], dict] | None   # None means the bundled config
    n_seeds: int
    slots: int

    def seeds(self, seed: int, tiny: bool = False) -> list[int]:
        """Simulator seeds for one workload seed; disjoint across workload seeds."""
        n = 1 if tiny else self.n_seeds
        return [seed * 1000 + i for i in range(n)]


# Sizes. canonical runs as many seeds as the bundled config (30) but 50 of its
# 500 slots: each seed is an independent trajectory, and the share of host time
# per layer at 30 x 50 stays within two points of the full 30 x 500 run, with
# the same walks per decision and commit ratios. Longer passes would leave too
# few of them in a run to ride out the host's changes of speed. canonical is
# the one workload with many seeds, so work batched across seeds shows there;
# small-regret (one seed, many slots) and wide-edge (two seeds) are the
# workloads where it should not.
WORKLOADS = {
    w.name: w for w in (
        Workload("canonical", None, n_seeds=30, slots=50),
        Workload("wide-edge", wide_edge_doc, n_seeds=2, slots=50),
        Workload("small-regret", small_regret_doc, n_seeds=1, slots=1000),
    )
}

TINY_SLOTS = 60


def build(package, name: str, seed: int, tiny: bool = False):
    """Load and validate the workload's config through the package's own loader."""
    w = WORKLOADS[name]
    harness = package.harness
    source = harness.default_config_path() if w.doc is None else w.doc()
    cfg = harness.load_config(source)
    return harness.apply_overrides(cfg, seeds=w.seeds(seed, tiny),
                                   slots=TINY_SLOTS if tiny else w.slots,
                                   policy="all")


def ground_truths(package, cfg) -> list:
    """The hidden parameters of every simulator seed, as the harness builds them."""
    return [package.make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                                      cfg.catalog.n_sfcs, s)
            for s in cfg.seeds]
