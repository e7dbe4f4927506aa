"""Reference definitions of the slot kernels and the random policy, for the tests.

The selection loop and the two chain walks are written as the definition
reads: every round plans every remaining chain against the live residual,
and the strictly best positive score is committed, ties to the smallest SFC
id. They run on int64/float64 numpy arrays, with chains flattened as
(chain_vnf, chain_start) and neighbors as a padded (ids, count) table; the
array walks fill an assignment buffer and return the latency, +inf where the
chain does not fit at the edge. sfcbackup.kernels, which prunes the loop,
keeps plans in a plan graph and works on Python lists, is tested against
them. get_consumption plans one chain with the greedy walk.

random_placement is the random policy one slot at a time, as a loop over
Python lists; sfcbackup.lockstep.random_rows, which decides many slots at
once on numpy arrays, is tested against it.

realized_reward and expected_slot_value value one slot's decision as the
objective defines it; sfcbackup.lockstep.slot_values, which values many
rows at once, is tested against them.

slot_rows and slot_row give sample_arrays' draws as Python lists, one
(requests, failed) pair per slot, the form the per-slot functions take.
A cloud plan, which only get_consumption returns, has an empty assignment
and +inf latency.
"""

from __future__ import annotations

import math

import numpy as np

from sfcbackup import kernels, lockstep
from sfcbackup.kernels import GREEDY
from sfcbackup.learning import chain_failure_rate
from sfcbackup.model import PlacementPlan, cheapest_link_anchor
from sfcbackup.workload import sample_arrays, true_popularity


def slot_rows(gt, t0: int, t1: int) -> list[tuple[list[int], list[int]]]:
    """Slots t0 .. t1-1 drawn by sample_arrays: a (requests, failed) pair of lists per slot."""
    requests, failed = sample_arrays(gt, t0, t1)
    return list(zip(requests.tolist(), failed.tolist()))


def slot_row(gt, t: int) -> tuple[list[int], list[int]]:
    """Slot t's (requests, failed) lists, drawn by sample_arrays."""
    return slot_rows(gt, t, t + 1)[0]


def chain_arrays(catalog) -> tuple[np.ndarray, np.ndarray]:
    """Chains flattened to (vnf_ids, start_offsets) so the kernels can slice them."""
    starts = np.zeros(catalog.n_sfcs + 1, dtype=np.int64)
    flat: list[int] = []
    for f, chain in enumerate(catalog.sfc_chain):
        flat.extend(chain)
        starts[f + 1] = len(flat)
    return np.asarray(flat, dtype=np.int64), starts


def neighbor_table(network) -> tuple[np.ndarray, np.ndarray]:
    """(ids, count): ids[n, :count[n]] lists n's neighbors by ascending latency, ties by id."""
    n = network.n_servers
    adj: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    for u, v, lat in network.links:
        adj[u].append((lat, v))
        adj[v].append((lat, u))
    count = np.zeros(n, dtype=np.int64)
    ids = np.full((n, max(1, n - 1)), -1, dtype=np.int64)
    for node, entries in enumerate(adj):
        entries.sort()
        count[node] = len(entries)
        for k, (_, m) in enumerate(entries):
            ids[node, k] = m
    return ids, count


def greedy_chain_walk_array(residual, demands, chain, nbr_ids, nbr_count,
                            lat, anchor, assign_out):
    """kernels.greedy_chain_walk on int64 arrays, with nbr_ids/nbr_count from neighbor_table."""
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


def first_fit_chain_walk_array(residual, demands, chain, lat, assign_out):
    """kernels.first_fit_chain_walk on int64 arrays."""
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


def slot_decide_array(mode, caps, demands, chain_vnf, chain_start, nbr_ids,
                      nbr_count, lat, link_u, link_v, q_est, v_est, omega, mu,
                      x_out, order_out, lat_out, assign_out, residual_out):
    """kernels.slot_decide's selection loop on primitive arrays, unpruned.

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
        if mode == GREEDY:     # model.cheapest_link_anchor, inlined
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


def cloud_plan(f: int) -> PlacementPlan:
    return PlacementPlan(sfc=int(f), assignment=(), latency=math.inf)


def get_consumption(network, catalog, residual, f: int) -> PlacementPlan:
    """Plan SFC f's chain with the greedy walk; cloud verdict when it dead-ends.

    The walk starts at the cheapest link's larger-residual endpoint, keeps
    packing the current server while its effective residual lasts, and
    otherwise hops to the cheapest direct neighbor that fits. A chain that
    fits inside any single pool co-locates there outright (latency 0 is
    already optimal). Nothing here changes residual.
    """
    chain = catalog.sfc_chain[f]
    if len(chain) == 0:
        return cloud_plan(f)
    res = np.asarray(residual, dtype=np.int64).tolist()
    latency, assign = kernels.greedy_chain_walk(
        res, sorted(res), catalog.vnf_demand, chain, network.neighbor_lists,
        network.latency_rows, cheapest_link_anchor(network, res),
    )
    if latency == math.inf:
        return cloud_plan(f)
    return PlacementPlan(sfc=int(f), assignment=assign, latency=latency)


def random_placement(network, catalog, u) -> tuple[list[tuple[int, PlacementPlan]], list[int]]:
    """One random-policy slot on u, its W uniforms: (deployed in commit order, residual after).

    Chains are attempted in ascending u[f], ties by id. Occurrence j of chain
    f takes fits[int(u[starts[f] + j] * len(fits))], where fits lists, in id
    order, the servers whose residual, less what the chain's earlier
    occurrences took, still holds the VNF's demand. A chain commits only if
    every occurrence fits and its latency is finite.
    """
    lat = network.latency_rows
    demands = catalog.vnf_demand
    _, starts = catalog.uniform_layout
    residual = list(network.capacities)
    deployed: list[tuple[int, PlacementPlan]] = []

    for f in sorted(range(catalog.n_sfcs), key=u.__getitem__):
        chain = catalog.sfc_chain[f]
        base = starts[f]
        room = residual[:]
        assign: list[int] = []
        latency = 0.0
        for j, i in enumerate(chain):
            need = demands[i]
            fits = [s for s, r in enumerate(room) if r >= need]
            if not fits:
                break
            # u < 1, so the index stays below len(fits)
            spot = fits[int(u[base + j] * len(fits))]
            if assign:
                latency += lat[assign[-1]][spot]
            assign.append(spot)
            room[spot] -= need
        if not chain or len(assign) < len(chain) or math.isinf(latency):
            continue
        residual = room
        deployed.append((f, PlacementPlan(sfc=f, assignment=tuple(assign), latency=latency)))
    return deployed, residual


def unpack_rows(rec, n_rows: int) -> list[tuple[list, list[int]]]:
    """lockstep.Records as random_placement's output: one (deployed, residual) pair per row."""
    out = [([], rec.residual[k].tolist()) for k in range(n_rows)]
    ends = np.cumsum(rec.positions).tolist()
    for r, (k, f) in enumerate(zip(rec.row.tolist(), rec.sfc.tolist())):
        assignment = tuple(rec.servers[ends[r] - int(rec.positions[r]):ends[r]].tolist())
        out[k][0].append((f, PlacementPlan(sfc=f, assignment=assignment,
                                           latency=float(rec.latency[r]))))
    return out


def random_slots(network, catalog, u) -> list[tuple[list, list[int]]]:
    """lockstep.random_rows on the rows of u, in one call, unpacked row by row."""
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    return unpack_rows(lockstep.random_rows(lockstep.Layout.of(network, catalog), u),
                       u.shape[0])


def realized_reward(weights, requests, failed, decision, catalog) -> tuple[np.ndarray, float]:
    """What the slot actually earned, per SFC and in total.

    A deployed chain pays off only if none of its constituent VNFs failed
    this slot (copies of the same VNF share one failure outcome); the payoff
    uses the realized request count. Chains not deployed earn 0.
    """
    earned = [0.0] * catalog.n_sfcs
    for f, plan in decision.deployed:
        if any(failed[i] for i in catalog.sfc_chain[f]):
            continue
        earned[f] = weights.omega * requests[f] - weights.mu * plan.latency
    per_sfc = np.array(earned, dtype=np.float64)
    # numpy's pairwise summation order, not Python's left-to-right one
    return per_sfc, float(per_sfc.sum())


def expected_slot_value(weights, gt, decision, catalog) -> float:
    """Decision value under the true parameters (the selection objective)."""
    q = true_popularity(gt).tolist()
    rates = gt.failure_mean.tolist()
    total = 0.0
    for f, plan in decision.deployed:
        u_true = chain_failure_rate(catalog, rates, f)
        total += (weights.omega * q[f] - weights.mu * plan.latency) * (1.0 - u_true)
    return total
