"""Edge network and service chain model.

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

# Latency sentinel for anything served from the remote cloud instead of the edge.
CLOUD_LATENCY = math.inf


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
    def caps_array(self) -> np.ndarray:
        arr = self._cache.get("caps")
        if arr is None:
            arr = np.asarray(self.capacities, dtype=np.int64)
            self._cache["caps"] = arr
        return arr

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
    def neighbor_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, count): ids[n, :count[n]] lists n's neighbors by ascending latency, ties by id."""
        tab = self._cache.get("nbr")
        if tab is None:
            n = self.n_servers
            adj: list[list[tuple[float, int]]] = [[] for _ in range(n)]
            for u, v, lat in self.links:
                adj[u].append((lat, v))
                adj[v].append((lat, u))
            count = np.zeros(n, dtype=np.int64)
            ids = np.full((n, max(1, n - 1)), -1, dtype=np.int64)
            for node, entries in enumerate(adj):
                entries.sort()
                count[node] = len(entries)
                for k, (_, m) in enumerate(entries):
                    ids[node, k] = m
            tab = (ids, count)
            self._cache["nbr"] = tab
        return tab

    @property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        """neighbor_table as plain ints: entry n lists n's neighbors by ascending latency."""
        tab = self._cache.get("nbr_lists")
        if tab is None:
            ids, count = self.neighbor_table
            tab = tuple(tuple(row[:k]) for row, k in zip(ids.tolist(), count.tolist()))
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

    @property
    def cheapest_link(self) -> tuple[int, int]:
        """Endpoints (u, v) of the globally cheapest link, or (-1, -1) if linkless."""
        if not self.links:
            return (-1, -1)
        u, v, _ = self.links[0]
        return (u, v)

    def latency(self, u: int, v: int) -> float:
        return float(self.latency_matrix[u, v])

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
        self._cache: dict[str, object] = {}

    @property
    def n_vnfs(self) -> int:
        return len(self.vnf_demand)

    @property
    def n_sfcs(self) -> int:
        return len(self.sfc_chain)

    @property
    def demand_array(self) -> np.ndarray:
        arr = self._cache.get("demand")
        if arr is None:
            arr = np.asarray(self.vnf_demand, dtype=np.int64)
            self._cache["demand"] = arr
        return arr

    @property
    def chain_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Chains flattened to (vnf_ids, start_offsets) so kernels can slice them."""
        tab = self._cache.get("chains")
        if tab is None:
            starts = np.zeros(self.n_sfcs + 1, dtype=np.int64)
            flat: list[int] = []
            for f, chain in enumerate(self.sfc_chain):
                flat.extend(chain)
                starts[f + 1] = len(flat)
            tab = (np.asarray(flat, dtype=np.int64), starts)
            self._cache["chains"] = tab
        return tab

    @property
    def max_chain_len(self) -> int:
        return max((len(c) for c in self.sfc_chain), default=0)

    @property
    def chain_peaks(self) -> tuple[float, ...]:
        """Largest single VNF demand per chain; -inf for an empty chain, which always fits."""
        tab = self._cache.get("peaks")
        if tab is None:
            demands = self.vnf_demand
            tab = tuple(max((demands[i] for i in chain), default=-math.inf)
                        for chain in self.sfc_chain)
            self._cache["peaks"] = tab
        return tab

    def chain_demand(self, f: int) -> int:
        """Total resource units SFC f consumes when fully deployed."""
        return int(sum(self.vnf_demand[i] for i in self.sfc_chain[f]))


def fresh_residual(network: EdgeNetwork) -> np.ndarray:
    """Residual capacity vector at the start of a slot (full pools, int64)."""
    return network.caps_array.copy()


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


def neighbors_by_latency(network: EdgeNetwork, node: int) -> list[tuple[int, float]]:
    """Direct neighbors of ``node`` as (server, latency), cheapest first, ties by id."""
    ids, count = network.neighbor_table
    lat = network.latency_matrix
    return [(int(m), float(lat[node, m])) for m in ids[node, : count[node]]]


def cheapest_link_anchor(network: EdgeNetwork, residual: Sequence[int]) -> int:
    """Start node for the greedy placement walk.

    The endpoint of the globally cheapest link holding the larger residual;
    latency ties fall to the lexicographically smallest pair, residual ties to
    the smaller server id. A linkless (single-server) network anchors at the
    highest-residual server, the first one on ties. residual may be a list or
    an array.
    """
    u, v = network.cheapest_link
    if u < 0:
        return max(range(len(residual)), key=residual.__getitem__)
    return u if residual[u] >= residual[v] else v
