"""Hot placement and selection kernels.

Two backends share one interface. The list kernels (greedy_chain_walk,
first_fit_chain_walk, slot_decide_lists) work on Python ints, floats and
lists: indexing a numpy array one element at a time builds a numpy scalar per
access, which makes plain Python several times slower on arrays than on
lists. The array kernels (the ``*_array`` twins) implement the same rules on
primitive numpy arrays so that numba can compile them; they are the reference
the list kernels are tested against.

The selection loop re-plans every remaining chain after each commit, and
slot_decide_lists prunes those plans without changing a decision. A plan's
score (omega*q - mu*latency)*gate never exceeds its bound omega*q*gate, since
latency and mu are non-negative and IEEE rounding is monotone; so each round
walks the chains by descending bound and stops once no bound can beat the best
score, ties kept for the smallest id. A chain whose largest single demand
exceeds every server's residual must dead-end, so it is not walked. The array
kernels plan every remaining chain each round, as the definition reads.

numba is optional (the ``jit`` extra). The backend is fixed at import:
slot_decide runs the jitted array kernel when numba imports, and the list
kernel otherwise or when SFCBACKUP_DISABLE_NUMBA=1 is set before import.
Either way it takes the instance objects plus list outputs and returns the
committed count, so callers never branch on the backend.

List conventions: residuals and capacities are ints, demands non-negative
ints; chains are sequences of VNF ids; ``nbrs[n]`` lists server n's direct
neighbors by ascending latency (EdgeNetwork.neighbor_lists); ``lat[a][b]`` is
the link latency, 0 on the diagonal and +inf where no link exists
(EdgeNetwork.latency_rows). The list walks return (latency, assignment).
Array conventions: residual/caps int64 (N,), demands int64 (I,), chains as a
flat int64 vnf-id vector plus (F+1,) start offsets, lat float64 (N, N); the
array walks fill an assignment buffer and return the latency. A latency of
+inf means the chain does not fit at the edge (cloud verdict).
"""

from __future__ import annotations

import os
from bisect import bisect_left
from math import inf

import numpy as np

from .model import cheapest_link_anchor

_flag = os.environ.get("SFCBACKUP_DISABLE_NUMBA", "").strip()
try:
    from numba import njit as _njit
    _HAVE_NUMBA = True
except ImportError:  # numba is the optional ``jit`` extra
    _HAVE_NUMBA = False

NUMBA_ENABLED = _HAVE_NUMBA and _flag in ("", "0")

if NUMBA_ENABLED:
    def _jit(fn):
        return _njit(cache=True)(fn)
else:
    def _jit(fn):
        return fn

# slot_decide placement modes
GREEDY = 0
FIRST_FIT = 1


def greedy_chain_walk(residual, pools, demands, chain, nbrs, lat, anchor):
    """Walk a chain from the anchor, packing the current server first.

    Consecutive occurrences stay on the current server while its effective
    residual (real residual minus this plan's own tentative consumption)
    covers the demand; otherwise the walk hops to the first direct neighbor,
    in ascending latency order, that fits. No backtracking, no multi-hop
    moves. So a chain whose total demand fits the anchor stays there whole.
    One guard precedes the walk: when the anchor cannot hold the whole chain
    but some single server can, the chain co-locates on the tightest such
    pool (best fit, ties to the smallest id), since zero latency cannot be
    beaten. pools is sorted(residual), shared by all walks against one
    residual. Returns (latency, assignment), or (+inf, None) when the walk
    dead-ends.
    """
    total = 0
    for i in chain:
        total += demands[i]
    if residual[anchor] >= total:
        return 0.0, [anchor] * len(chain)
    k = bisect_left(pools, total)
    if k < len(pools):
        return 0.0, [residual.index(pools[k])] * len(chain)
    tent = [0] * len(residual)
    cur = anchor
    latency = 0.0
    assign = []
    for i in chain:
        need = demands[i]
        if residual[cur] - tent[cur] < need:
            for m in nbrs[cur]:
                if residual[m] - tent[m] >= need:
                    if assign:
                        latency += lat[cur][m]
                    cur = m
                    break
            else:
                return inf, None
        assign.append(cur)
        tent[cur] += need
    return latency, assign


def first_fit_chain_walk(residual, demands, chain, lat):
    """Pack the chain onto servers in index order with a forward-only pointer.

    Occurrences pile onto the current server until it cannot afford the next
    one, then the pointer advances (never wraps). Returns (latency,
    assignment): (+inf, None) when the scan runs off the end, and latency
    +inf when the plan crosses a missing link.
    """
    n = len(residual)
    s = 0
    used = 0        # this plan's load on server s; the pointer never returns
    latency = 0.0
    assign = []
    for i in chain:
        need = demands[i]
        if residual[s] - used < need:
            s += 1
            while s < n and residual[s] < need:
                s += 1
            if s >= n:
                return inf, None
            if assign:
                latency += lat[assign[-1]][s]
            used = 0
        assign.append(s)
        used += need
    return latency, assign


def slot_decide_lists(mode, network, catalog, q_est, v_est, omega, mu,
                      x_out, order_out, lat_out, assign_out, residual_out):
    """One slot's full greedy selection loop.

    Repeatedly plans the not-yet-deployed chains against the current
    residual, scores each edge-feasible plan with
    (omega * q_est - mu * latency) * (1 - worst chain failure estimate),
    and commits the strictly-best positive score (ties fall to the smallest
    SFC id). Stops when nothing scores positive. mode selects the placement
    walk (GREEDY or FIRST_FIT); the greedy anchor is
    model.cheapest_link_anchor of the live residual, recomputed each round.
    Returns the number of committed chains. The list outputs are
    overwritten: x_out (0/1 per SFC), order_out (SFC ids in commit order,
    padded with -1), lat_out (plan latency, +inf where not deployed),
    assign_out (per SFC, one server per chain position, -1 where not
    deployed) and residual_out.

    A round plans only the chains that could still win, and commits what
    planning every chain would commit:
    - Bound-ordered scan. A chain's score never exceeds its bound
      omega * q_est * gate (latency and mu are non-negative, and rounding is
      monotone), so chains with a positive bound are scanned by descending
      bound, ties by id, and the scan stops at the first bound below the best
      score so far, or equal to it with a larger id than the best chain's.
      Chains with no positive bound are never planned: they cannot score
      above 0. A plan is taken on a higher score, or on an equal score with
      a smaller id, so the winner is still the smallest id among the best.
    - Dead-end pre-check. A chain whose largest single demand exceeds every
      server's residual dead-ends in either walk, so it is skipped unplanned.
    """
    demands = catalog.vnf_demand
    chains = catalog.sfc_chain
    peaks = catalog.chain_peaks
    nbrs = network.neighbor_lists
    lat = network.latency_rows
    greedy = mode == GREEDY
    n_sfcs = len(chains)
    value = [omega * q for q in q_est.tolist()]
    rates = v_est.tolist()
    gates = []
    for chain in chains:
        worst = 0.0
        for i in chain:
            if rates[i] > worst:
                worst = rates[i]
        gates.append(1.0 - worst)
    bounds = [v * g for v, g in zip(value, gates)]
    # descending bound, ties by ascending id (reverse=True keeps the sort stable)
    ranked = sorted([f for f in range(n_sfcs) if gates[f] > 0.0 and bounds[f] > 0.0],
                    key=bounds.__getitem__, reverse=True)

    residual = residual_out
    residual[:] = network.capacities
    x_out[:] = [0] * n_sfcs
    order_out[:] = [-1] * n_sfcs
    lat_out[:] = [inf] * n_sfcs
    assign_out[:] = [[-1] * len(chain) for chain in chains]
    n_committed = 0
    while ranked:
        if greedy:
            anchor = cheapest_link_anchor(network, residual)
            pools = sorted(residual)
            top = pools[-1]
        else:
            top = max(residual)
        best_f = -1
        best_score = 0.0
        best_lat = inf
        best_assign = None
        for f in ranked:
            bound = bounds[f]
            if bound < best_score or (bound == best_score and f > best_f):
                break       # every later chain is bounded the same way
            if peaks[f] > top:
                continue
            # looked up as module globals on every call, so they can be wrapped
            if greedy:
                latency, assign = greedy_chain_walk(residual, pools, demands,
                                                    chains[f], nbrs, lat, anchor)
            else:
                latency, assign = first_fit_chain_walk(residual, demands,
                                                       chains[f], lat)
            if latency == inf:
                continue
            score = (value[f] - mu * latency) * gates[f]
            if score > best_score or (score == best_score and f < best_f):
                best_f = f
                best_score = score
                best_lat = latency
                best_assign = assign
        if best_f < 0:
            break
        ranked.remove(best_f)
        for s, i in zip(best_assign, chains[best_f]):
            residual[s] -= demands[i]
        assign_out[best_f] = best_assign
        x_out[best_f] = 1
        lat_out[best_f] = best_lat
        order_out[n_committed] = best_f
        n_committed += 1
    return n_committed


@_jit
def greedy_chain_walk_array(residual, demands, chain, nbr_ids, nbr_count,
                            lat, anchor, assign_out):
    """greedy_chain_walk on int64 arrays, with nbr_ids/nbr_count from neighbor_table."""
    n = residual.shape[0]
    length = chain.shape[0]
    total = 0
    for j in range(length):
        total += demands[chain[j]]
    if residual[anchor] < total:
        best = -1
        for s in range(n):
            if residual[s] >= total and (best < 0 or residual[s] < residual[best]):
                best = s
        if best >= 0:
            for j in range(length):
                assign_out[j] = best
            return 0.0
    tent = np.zeros(n, dtype=np.int64)
    cur = anchor
    for j in range(length):
        need = demands[chain[j]]
        if residual[cur] - tent[cur] >= need:
            assign_out[j] = cur
            tent[cur] += need
        else:
            moved = False
            for k in range(nbr_count[cur]):
                m = nbr_ids[cur, k]
                if residual[m] - tent[m] >= need:
                    cur = m
                    assign_out[j] = m
                    tent[m] += need
                    moved = True
                    break
            if not moved:
                return np.inf
    latency = 0.0
    for j in range(1, length):
        latency += lat[assign_out[j - 1], assign_out[j]]
    return latency


@_jit
def first_fit_chain_walk_array(residual, demands, chain, lat, assign_out):
    """first_fit_chain_walk on int64 arrays."""
    n = residual.shape[0]
    tent = np.zeros(n, dtype=np.int64)
    s = 0
    length = chain.shape[0]
    for j in range(length):
        need = demands[chain[j]]
        while s < n and residual[s] - tent[s] < need:
            s += 1
        if s >= n:
            return np.inf
        assign_out[j] = s
        tent[s] += need
    latency = 0.0
    for j in range(1, length):
        latency += lat[assign_out[j - 1], assign_out[j]]
    return latency


@_jit
def slot_decide_array(mode, caps, demands, chain_vnf, chain_start, nbr_ids,
                      nbr_count, lat, link_u, link_v, q_est, v_est, omega, mu,
                      x_out, order_out, lat_out, assign_out, residual_out):
    """slot_decide's selection loop on primitive arrays.

    Chains come flattened as (chain_vnf, chain_start) and the cheapest link
    as its endpoints (link_u, link_v), (-1, -1) when the network is linkless.
    x_out, order_out, lat_out, assign_out (N_sfcs, max chain length, padded
    with -1) and residual_out are overwritten. Returns the committed count.
    """
    n = caps.shape[0]
    n_sfcs = chain_start.shape[0] - 1
    residual_out[:] = caps
    x_out[:] = 0
    order_out[:] = -1
    lat_out[:] = np.inf
    assign_out[:, :] = -1
    max_len = assign_out.shape[1]
    scratch = np.empty(max_len, dtype=np.int64)
    best_assign = np.empty(max_len, dtype=np.int64)
    n_committed = 0
    while True:
        anchor = 0
        if mode == GREEDY:     # model.cheapest_link_anchor, inlined for numba
            if link_u >= 0:
                anchor = link_u if residual_out[link_u] >= residual_out[link_v] else link_v
            else:
                best_r = residual_out[0]
                for s in range(1, n):
                    if residual_out[s] > best_r:
                        anchor = s
                        best_r = residual_out[s]
        best_f = -1
        best_score = 0.0
        best_lat = np.inf
        for f in range(n_sfcs):
            if x_out[f] == 1:
                continue
            lo = chain_start[f]
            hi = chain_start[f + 1]
            chain = chain_vnf[lo:hi]
            if mode == GREEDY:
                latency = greedy_chain_walk_array(residual_out, demands, chain,
                                                  nbr_ids, nbr_count, lat,
                                                  anchor, scratch)
            else:
                latency = first_fit_chain_walk_array(residual_out, demands,
                                                     chain, lat, scratch)
            if latency == np.inf:
                continue
            worst = 0.0
            for j in range(hi - lo):
                rate = v_est[chain[j]]
                if rate > worst:
                    worst = rate
            gate = 1.0 - worst
            if gate <= 0.0:
                continue
            score = (omega * q_est[f] - mu * latency) * gate
            if score > best_score:
                best_f = f
                best_score = score
                best_lat = latency
                for j in range(hi - lo):
                    best_assign[j] = scratch[j]
        if best_f < 0:
            break
        lo = chain_start[best_f]
        hi = chain_start[best_f + 1]
        for j in range(hi - lo):
            residual_out[best_assign[j]] -= demands[chain_vnf[lo + j]]
            assign_out[best_f, j] = best_assign[j]
        x_out[best_f] = 1
        lat_out[best_f] = best_lat
        order_out[n_committed] = best_f
        n_committed += 1
    return n_committed


def slot_decide_via_arrays(mode, network, catalog, q_est, v_est, omega, mu,
                           x_out, order_out, lat_out, assign_out, residual_out):
    """slot_decide_lists' interface over slot_decide_array (the numba backend)."""
    n_sfcs = catalog.n_sfcs
    chain_vnf, chain_start = catalog.chain_arrays
    nbr_ids, nbr_count = network.neighbor_table
    link_u, link_v = network.cheapest_link
    x = np.zeros(n_sfcs, dtype=np.uint8)
    order = np.full(n_sfcs, -1, dtype=np.int64)
    lat = np.full(n_sfcs, np.inf, dtype=np.float64)
    assign = np.full((n_sfcs, max(1, catalog.max_chain_len)), -1, dtype=np.int64)
    residual = np.zeros(network.n_servers, dtype=np.int64)
    n_committed = slot_decide_array(
        mode, network.caps_array, catalog.demand_array, chain_vnf, chain_start,
        nbr_ids, nbr_count, network.latency_matrix, link_u, link_v,
        np.asarray(q_est, dtype=np.float64), np.asarray(v_est, dtype=np.float64),
        omega, mu, x, order, lat, assign, residual)
    x_out[:] = x.tolist()
    order_out[:] = order.tolist()
    lat_out[:] = lat.tolist()
    assign_out[:] = [row[:len(chain)] for row, chain in zip(assign.tolist(), catalog.sfc_chain)]
    residual_out[:] = residual.tolist()
    return int(n_committed)


slot_decide = slot_decide_via_arrays if NUMBA_ENABLED else slot_decide_lists


def warmup() -> None:
    """Trigger compilation on a toy instance so later calls run at full speed."""
    caps = np.array([4, 4], dtype=np.int64)
    demands = np.array([2, 2], dtype=np.int64)
    chain_vnf = np.array([0, 1], dtype=np.int64)
    chain_start = np.array([0, 2], dtype=np.int64)
    nbr_ids = np.array([[1], [0]], dtype=np.int64)
    nbr_count = np.array([1, 1], dtype=np.int64)
    lat = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = np.array([1.0])
    v = np.array([0.0, 0.0])
    x = np.zeros(1, dtype=np.uint8)
    order = np.zeros(1, dtype=np.int64)
    lat_out = np.zeros(1, dtype=np.float64)
    assign = np.zeros((1, 2), dtype=np.int64)
    res = np.zeros(2, dtype=np.int64)
    for mode in (GREEDY, FIRST_FIT):
        slot_decide_array(mode, caps, demands, chain_vnf, chain_start, nbr_ids,
                          nbr_count, lat, 0, 1, q, v, 1.0, 1.0, x, order,
                          lat_out, assign, res)
