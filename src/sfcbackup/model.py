"""Edge network and service chain model, the reward weights, and the error a failed check raises.

Servers hold a single scalar resource pool. Links are undirected with a fixed
latency; a VNF placed next to its predecessor on the same server costs zero
latency. Chains are ordered VNF id sequences and may repeat a VNF; every
occurrence consumes its full demand.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np


def _normalize_links(links) -> tuple[tuple[int, int, float], ...]:
    """Accept {(u, v): lat} or iterables of (u, v, lat); order pairs, sort by (lat, u, v)."""
    if isinstance(links, Mapping):
        triples = [(u, v, lat) for (u, v), lat in links.items()]
    else:
        triples = [(u, v, lat) for u, v, lat in links]
    out = []
    for u, v, lat in triples:
        u, v = int(u), int(v)
        if v < u:
            u, v = v, u
        out.append((u, v, float(lat)))
    out.sort(key=lambda e: (e[2], e[0], e[1]))
    return tuple(out)


class InvariantViolation(RuntimeError):
    """A committed decision broke capacity safety or bookkeeping coupling."""


@dataclass(frozen=True)
class RewardWeights:
    omega: float = 1.0   # weight on served request count
    mu: float = 1.0      # weight on chain latency

    def __post_init__(self):
        if not (self.omega > 0.0) or not (self.mu >= 0.0):
            raise ValueError("need omega > 0 and mu >= 0")


@dataclass(eq=False)
class EdgeNetwork:
    """Edge servers plus symmetric weighted links.

    ``capacities[n]`` is server n's resource pool. Instances are treated as
    immutable after construction; derived arrays and list views are cached on
    first use.
    """

    capacities: tuple[int, ...]
    links: tuple[tuple[int, int, float], ...]

    def __init__(self, capacities: Sequence[int], links=()) -> None:
        self.capacities = tuple(int(c) for c in capacities)
        self.links = _normalize_links(links)
        self._cache: dict[str, object] = {}

    @property
    def n_servers(self) -> int:
        return len(self.capacities)

    @property
    def latency_matrix(self) -> np.ndarray:
        """Dense (N, N) latency lookup: 0 on the diagonal, +inf where no link exists."""
        mat = self._cache.get("lat")
        if mat is None:
            n = self.n_servers
            mat = np.full((n, n), math.inf, dtype=np.float64)
            np.fill_diagonal(mat, 0.0)
            for u, v, lat in self.links:
                mat[u, v] = lat
                mat[v, u] = lat
            self._cache["lat"] = mat
        return mat

    @property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """Entry n lists server n's direct neighbors by ascending latency, ties by id."""
        tab = self._cache.get("nbr_lists")
        if tab is None:
            adj: list[list[tuple[float, int]]] = [[] for _ in range(self.n_servers)]
            for u, v, lat in self.links:
                adj[u].append((lat, v))
                adj[v].append((lat, u))
            tab = tuple(tuple(m for _, m in sorted(entries)) for entries in adj)
            self._cache["nbr_lists"] = tab
        return tab

    @property
    def latency_rows(self) -> list[list[float]]:
        """latency_matrix as nested lists of floats, for element-wise Python access."""
        rows = self._cache.get("lat_rows")
        if rows is None:
            rows = self.latency_matrix.tolist()
            self._cache["lat_rows"] = rows
        return rows

    def scaled(self, factor: float) -> "EdgeNetwork":
        """Copy with every capacity multiplied by ``factor`` and floored to int."""
        caps = [int(math.floor(c * factor)) for c in self.capacities]
        return EdgeNetwork(caps, self.links)


@dataclass(eq=False)
class Catalog:
    """VNF resource demands plus the chain composition of every SFC."""

    vnf_demand: tuple[int, ...]
    sfc_chain: tuple[tuple[int, ...], ...]

    def __init__(self, vnf_demand: Sequence[int], sfc_chain: Iterable[Sequence[int]]) -> None:
        self.vnf_demand = tuple(int(d) for d in vnf_demand)
        self.sfc_chain = tuple(tuple(int(i) for i in chain) for chain in sfc_chain)

    @property
    def n_vnfs(self) -> int:
        return len(self.vnf_demand)

    @property
    def n_sfcs(self) -> int:
        return len(self.sfc_chain)


def validate_instance(network: EdgeNetwork, catalog: Catalog) -> list[str]:
    """Check structural sanity; returns a list of problems (empty when clean)."""
    problems: list[str] = []
    n = network.n_servers
    if n == 0:
        problems.append("network has no servers")
    for idx, cap in enumerate(network.capacities):
        if cap < 0:
            problems.append(f"capacity[{idx}] is negative")

    seen_pairs: set[tuple[int, int]] = set()
    for u, v, lat in network.links:
        if u == v:
            problems.append(f"link ({u}, {v}) is a self-loop")
            continue
        if not (0 <= u < n and 0 <= v < n):
            problems.append(f"link ({u}, {v}) references an unknown server")
            continue
        if (u, v) in seen_pairs:
            problems.append(f"duplicate link ({u}, {v})")
        seen_pairs.add((u, v))
        if not (lat >= 0.0) or math.isinf(lat):
            problems.append(f"link ({u}, {v}) has invalid latency {lat}")

    if n > 1 and not problems:
        # BFS connectivity over the validated link set
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in seen_pairs:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for m in adj[node]:
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        for node in range(n):
            if node not in seen:
                problems.append(f"network is disconnected: server {node} unreachable from 0")
                break

    if catalog.n_sfcs == 0:
        problems.append("catalog has no SFCs")
    for idx, d in enumerate(catalog.vnf_demand):
        if d < 0:
            problems.append(f"VNF {idx} demand is negative")
    for f, chain in enumerate(catalog.sfc_chain):
        if len(chain) == 0:
            problems.append(f"SFC {f} has an empty chain")
        for i in chain:
            if not (0 <= i < catalog.n_vnfs):
                problems.append(f"SFC {f} references unknown VNF {i}")
    return problems


def cheapest_link_anchor(network: EdgeNetwork, residual: Sequence[int]) -> int:
    """Start node for the greedy placement walk.

    The endpoint of the globally cheapest link holding the larger residual;
    latency ties fall to the lexicographically smallest pair, residual ties to
    the smaller server id. A linkless (single-server) network anchors at the
    highest-residual server, the first one on ties. residual may be a list or
    an array.
    """
    if not network.links:
        return max(range(len(residual)), key=residual.__getitem__)
    u, v, _ = network.links[0]      # links are sorted by (latency, u, v), with u < v
    return u if residual[u] >= residual[v] else v
