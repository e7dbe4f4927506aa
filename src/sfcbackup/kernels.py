"""Hot placement and selection kernels.

The kernels work on Python ints, floats and lists: indexing a numpy array one
element at a time builds a numpy scalar per access, which makes plain Python
several times slower on arrays than on lists.

The selection loop re-plans every remaining chain after each commit, and
slot_decide prunes those plans without changing a decision. A plan's score
(omega*q - mu*latency)*gate never exceeds its bound omega*q*gate, since
latency and mu are non-negative and IEEE rounding is monotone; so each round
walks the chains by descending bound and stops once no bound can beat the best
score, ties kept for the smallest id. A chain whose largest single demand
exceeds every server's residual must dead-end, so it is not walked. The
unpruned definition, which plans every remaining chain each round, lives in
tests/reference_kernels.py, and the tests hold this module to it.

Conventions: residuals and capacities are ints, demands non-negative ints;
chains are sequences of VNF ids; ``nbrs[n]`` lists server n's direct
neighbors by ascending latency (EdgeNetwork.neighbor_lists); ``lat[a][b]`` is
the link latency, 0 on the diagonal and +inf where no link exists
(EdgeNetwork.latency_rows). The walks return (latency, assignment); a latency
of +inf means the chain does not fit at the edge (cloud verdict).
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf

from .model import cheapest_link_anchor

# There is no compiled backend; perfbench's run manifest still reports this.
NUMBA_ENABLED = False

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


def slot_decide(mode, network, catalog, q_est, v_est, omega, mu,
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
