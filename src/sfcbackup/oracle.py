"""Exhaustive reference optima for small instances.

The oracle knows the true popularity and failure parameters and may route a
chain link over multiple physical hops, so its assignments are evaluated with
all-pairs shortest-path latencies. Search is plain DFS with pruning and a
hard state budget; anything bigger than a few servers and a few short chains
should stay out of here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lockstep import Layout, true_values
from .model import Catalog, EdgeNetwork, RewardWeights
from .workload import GroundTruth

DEFAULT_STATE_BUDGET = 10_000_000


class SearchSpaceTooLarge(RuntimeError):
    """The requested enumeration would exceed the state budget."""


@dataclass(eq=False)
class OracleResult:
    best_selection: tuple[int, ...]     # value-maximizing SFC subset
    best_value: float                   # its objective value (>= 0, empty subset allowed)


def shortest_path_matrix(network: EdgeNetwork) -> np.ndarray:
    """All-pairs shortest-path latencies (Floyd-Warshall on the link matrix)."""
    sp = network.latency_matrix.copy()
    for k in range(network.n_servers):
        np.minimum(sp, sp[:, k][:, None] + sp[k, :][None, :], out=sp)
    return sp


def optimal_chain_latency(network: EdgeNetwork, catalog: Catalog, residual,
                          f: int, node_budget: int = DEFAULT_STATE_BUDGET) -> float:
    """Exact minimum latency for SFC f against ``residual``; +inf when nothing fits.

    Enumerates every capacity-feasible assignment of the chain's occurrences
    to servers (branch-and-bound), charging consecutive occurrences the
    shortest-path distance between their servers.
    """
    chain = catalog.sfc_chain[f]
    n = network.n_servers
    if len(chain) == 0:
        return math.inf
    if n ** len(chain) > node_budget:
        raise SearchSpaceTooLarge(
            f"{n}^{len(chain)} assignments exceed the budget of {node_budget}")
    return float(_joint_min_weighted_latency(catalog, [f], [1.0],
                                             shortest_path_matrix(network).tolist(), residual))


def _joint_min_weighted_latency(catalog: Catalog, subset: list[int],
                                weights_per_sfc: list[float], sp: list[list[float]],
                                residual) -> float:
    """Min over joint placements within ``residual`` of sum_f w_f * L_f; inf if none.

    sp is shortest_path_matrix's result as nested lists, sp[a][b] from a to b.
    """
    res = np.array(residual, dtype=np.int64).tolist()
    chains = [catalog.sfc_chain[f] for f in subset]
    return _placements(chains, weights_per_sfc, catalog.vnf_demand, sp, res,
                       0, 0, -1, 0.0, math.inf)


def _placements(chains, weights, demands, sp, res, ci: int, j: int, prev: int,
                acc: float, best: float) -> float:
    """The DFS of _joint_min_weighted_latency from occurrence j of chains[ci]: the new best.

    acc is the weighted latency of the occurrences placed so far, prev the
    server of the last one in this chain, and best the least complete sum
    found so far; a branch is followed only while it stays below best. res is
    the live residual, a list, restored on return; sp holds the shortest-path
    latencies as lists, so every access reads a Python float, not a numpy
    scalar, and computes the same IEEE values. A plain recursive function, so a
    search leaves no reference cycle behind.
    """
    while ci < len(chains) and j == len(chains[ci]):
        ci, j, prev = ci + 1, 0, -1
    if ci == len(chains):
        return acc
    need = demands[chains[ci][j]]
    w = weights[ci]
    for s in range(len(res)):
        if res[s] >= need:
            step = 0.0 if j == 0 else w * sp[prev][s]
            if acc + step < best:
                res[s] -= need
                best = _placements(chains, weights, demands, sp, res, ci, j + 1, s,
                                   acc + step, best)
                res[s] += need
    return best


def optimal_slot_value(network: EdgeNetwork, catalog: Catalog, gt: GroundTruth,
                       weights: RewardWeights = RewardWeights(),
                       node_budget: int = DEFAULT_STATE_BUDGET) -> OracleResult:
    """Best achievable slot value under the true parameters.

    Maximizes sum_f (omega * q_f - mu * L_f) * (1 - U_f) over SFC subsets with
    jointly feasible placement, minimizing the weighted latency sum within
    each subset. omega * q_f and the gate 1 - U_f are lockstep.true_values',
    the ones the simulator's expected reward reads: q_f is chain f's true
    popularity and 1 - U_f its survival chance, the product of one minus the
    true failure rates of its distinct VNFs. Deterministic: the
    first maximal subset in bitmask order wins ties.
    """
    n_sfcs = catalog.n_sfcs
    if n_sfcs > 16:
        raise SearchSpaceTooLarge(f"{n_sfcs} SFCs is past the subset budget")
    total_len = sum(len(c) for c in catalog.sfc_chain)
    if network.n_servers ** max(1, total_len) > node_budget:
        raise SearchSpaceTooLarge(
            f"{network.n_servers}^{total_len} joint assignments exceed the budget")

    sp = shortest_path_matrix(network).tolist()
    worth, gate = (a.tolist() for a in true_values(Layout.of(network, catalog), gt, weights))

    best_value = 0.0
    best_sel: tuple[int, ...] = ()
    for mask in range(1, 1 << n_sfcs):
        subset = [f for f in range(n_sfcs) if mask >> f & 1]
        base = sum(worth[f] * gate[f] for f in subset)
        lat_weights = [weights.mu * gate[f] for f in subset]
        penalty = _joint_min_weighted_latency(catalog, subset, lat_weights, sp,
                                              network.capacities)
        if math.isinf(penalty):
            continue
        value = base - penalty
        if value > best_value:
            best_value = value
            best_sel = tuple(subset)

    return OracleResult(best_selection=best_sel, best_value=float(best_value))
