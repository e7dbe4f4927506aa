"""The batched stages of harness.simulate_run: many seeds, or many slots, per numpy operation.

harness.simulate_run runs every policy of a seed group through one loop over
blocks of (slot, seed) rows, the learned policies in chunks of each block,
and these are its stages. The learned policies keep one learner state, a
Learners whose rows [k*S, (k+1)*S) are learned policy k's S seeds, and its
row count (learned policies x seeds) picks, on each chunk, how the chunk
advances it. From harness.LOCKSTEP_MIN_SEEDS rows
on, each slot runs, for all rows at once:

- estimates: the (P*S, F) and (P*S, I) optimistic estimates, a few numpy
  operations;
- decide_learned: selection_rows builds every row's selection inputs
  (value, gates, bounds and ranked chains, as policy.learned_rows builds
  them for one seed) with about ten numpy operations, then the selection
  scan (kernels.slot_decide) runs once per row, on its policy's plan graph;
- update: the learners learn from the slot's observation, repeated for each
  policy's block of rows, and from each row's commits.

Below that row count policy.learned_rows runs each policy's block of rows
through a chunk in one call, in plain Python, on lists read from the block
and written back at the chunk's end. gather turns one learned policy's
chunk of edge ids into Records. The random policy keeps no state across
slots, so random_rows decides a whole draw block's rows at once, or the
few equal pieces of it that its (L, R) tables of chain occurrences bound.
Each policy's Records of a chunk or piece then go through check, which holds
them, and the backup vectors and VNF copies its learners were updated with,
to the eight conditions of a sound slot decision, and slot_values, which
values them. A policy's learners, ids, records and series never mix with
another's: the rows of a Learners are independent, and each block scans on
its own graph.

Exactness. Every float is computed by the expression policy.learned_rows
evaluates, one operation at a time: numpy's sqrt, division, multiplication and
addition round correctly, as Python's do, and an int converts to float64
exactly as Python converts it. No 0/0 is computed: the updates divide only
the arms numpy's where= selects, and the estimates divide an unexplored arm by
2.0 and then discard it. The selection inputs take the same products and
differences as learned_rows, and a maximum is exact, so each learner row's
inputs equal the lists learned_rows builds for its seed. A slot's
realised and expected rewards each add its terms left to right in commit
order: slot_values adds every row's first terms at once, then their second,
one vector add per commit rank, and a row with fewer commits adds +0.0,
which leaves a sum begun at +0.0 as it is. So a slot's values do not depend
on the rows accounted with it. The seeds of a group share one set of
parameters, so true_values computes each chain's value and gate once, and
every row reads that one (F,) row.

The stage functions (estimates, selection_rows, decide_learned, gather,
random_rows, check, slot_values, update) live at module level and are looked
up as module globals on every call, so a profiler can wrap them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import kernels
from .model import Catalog, EdgeNetwork, InvariantViolation, RewardWeights
from .workload import GroundTruth, popularity_sums

# The per-slot series of a run, the keys of slot_values' result.
SERIES = ("realized", "expected", "remaining", "deployed")


@dataclass(eq=False)
class Layout:
    """A run's network and catalog as the index arrays the batched stages read.

    chain_flat concatenates the chains, chain f starting at chain_start[f];
    copies[f, i] counts VNF i's occurrences in chain f, and uses[i, f] is 1
    where chain f runs VNF i. width is W, the uniforms one random-policy slot
    reads: one per chain, then one per chain position.
    """

    network: EdgeNetwork
    catalog: Catalog
    capacities: np.ndarray      # (N,) int64
    demand: np.ndarray          # (I,) int64
    chain_len: np.ndarray       # (F,) int64
    chain_start: np.ndarray     # (F,) int64
    chain_flat: np.ndarray      # (L,) int64
    copies: np.ndarray          # (F, I) int64
    uses: np.ndarray            # (I, F) int64
    width: int

    @classmethod
    def of(cls, network: EdgeNetwork, catalog: Catalog) -> "Layout":
        chains = catalog.sfc_chain
        chain_len = np.array([len(chain) for chain in chains], dtype=np.int64)
        copies = np.zeros((catalog.n_sfcs, catalog.n_vnfs), dtype=np.int64)
        for f, chain in enumerate(chains):
            for i in chain:
                copies[f, i] += 1
        return cls(network=network, catalog=catalog,
                   capacities=np.array(network.capacities, dtype=np.int64),
                   demand=np.array(catalog.vnf_demand, dtype=np.int64),
                   chain_len=chain_len,
                   chain_start=(np.cumsum(chain_len) - chain_len).astype(np.int64),
                   chain_flat=np.array([i for chain in chains for i in chain], dtype=np.int64),
                   copies=copies,
                   uses=(copies > 0).astype(np.int64).T.copy(),
                   width=catalog.n_sfcs + int(chain_len.sum()))


@dataclass(eq=False)
class Learners:
    """Both learners of every learner row; row r holds one (policy, seed)'s arms.

    The one learner state of a seed group's learned policies, whichever path
    decides a chunk: estimates and update advance every row a slot at a
    time, and policy.learned_rows a block of rows a chunk at a time. The
    popularity learner's selected[r, f] counts the slots where chain f was
    backed up, and request_mean[r, f] averages the request counts over
    exactly those slots. The failure learner's placements[r, i] counts the
    slots that placed VNF i, however many copies (CUCB's T_i), and
    failure_mean[r, i] averages the failure flags over exactly those slots.
    Means are total / count, updated only on the arms a slot deployed. users
    scales the popularity bonus; bonus_sign and bonus_scale set the failure
    bonus's direction and size, +1 and users by default, -1 treating
    unexplored VNFs optimistically. users is a float, exact for a config's
    users: harness._check bounds users x F by 2 ** 16.
    """

    users: float
    bonus_scale: float
    bonus_sign: int
    selected: np.ndarray        # (R, F) int64
    request_total: np.ndarray   # (R, F) float64
    request_mean: np.ndarray    # (R, F) float64
    placements: np.ndarray      # (R, I) int64
    failure_total: np.ndarray   # (R, I) float64
    failure_mean: np.ndarray    # (R, I) float64

    @classmethod
    def fresh(cls, n_rows: int, n_sfcs: int, n_vnfs: int, users: int,
              failure_bonus_scale: float | None, failure_bonus_sign: int) -> "Learners":
        if failure_bonus_scale is None:
            failure_bonus_scale = float(users)
        return cls(users=float(users), bonus_scale=float(failure_bonus_scale),
                   bonus_sign=int(failure_bonus_sign),
                   selected=np.zeros((n_rows, n_sfcs), dtype=np.int64),
                   request_total=np.zeros((n_rows, n_sfcs)),
                   request_mean=np.zeros((n_rows, n_sfcs)),
                   placements=np.zeros((n_rows, n_vnfs), dtype=np.int64),
                   failure_total=np.zeros((n_rows, n_vnfs)),
                   failure_mean=np.zeros((n_rows, n_vnfs)))


@dataclass(eq=False)
class Records:
    """The commits of R rows, each one (seed, slot), as flat arrays.

    Record r commits chain sfc[r] in row row[r] at latency[r], on the next
    positions[r] entries of servers. A row's records are consecutive, in
    commit order, and the rows ascend. residual[k] is the capacity row k says
    is left.
    """

    row: np.ndarray             # (C,) int64
    sfc: np.ndarray             # (C,) int64
    latency: np.ndarray         # (C,) float64
    positions: np.ndarray       # (C,) int64
    servers: np.ndarray         # (sum of positions,) int64
    residual: np.ndarray        # (R, N) int64


def true_values(layout: Layout, gt: GroundTruth,
                weights: RewardWeights) -> tuple[np.ndarray, np.ndarray]:
    """Each chain's true value and gate under gt's parameters, as two (F,) arrays.

    value_true[f] is omega times chain f's true popularity, the column sum of
    gt.request_prob in user order (workload.popularity_sums), and
    gate_true[f] the chance that chain f survives a slot: the product of
    1 - gt.failure_mean[i] over its distinct VNFs, left to right in order of
    first occurrence, as copies of a VNF share one failure flag. They are
    what slot_values charges every row, and what oracle.optimal_slot_value
    values a chain with. A chain that runs no VNF has no gate, and is refused.
    """
    if not layout.chain_len.all():
        raise ValueError("every SFC's chain must run at least one VNF")
    rate = gt.failure_mean.tolist()
    survival = [math.prod(1.0 - rate[i] for i in dict.fromkeys(chain))
                for chain in layout.catalog.sfc_chain]
    return weights.omega * popularity_sums(gt.request_prob), np.array(survival)


def estimates(learners: Learners, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The optimistic estimates of every learner row at slot t, as two arrays.

    q is (R, F) and v is (R, I); row r holds learner row r's estimates, the
    floats policy.learned_rows computes for that row: q[r, f] is
    chain f's mean request count plus its bonus, +inf while unexplored, and
    v[r, i] VNF i's failure mean plus its signed bonus, clamped to [0, 1],
    0 while unexplored.
    """
    log_term = 3.0 * math.log(t)
    c = learners.selected
    # an unexplored arm divides by 2.0 instead of 0.0; np.where then discards it
    q = learners.request_mean + learners.users * np.sqrt(log_term / (2.0 * np.maximum(c, 1)))
    q = np.where(c > 0, q, math.inf)
    h = learners.placements
    with np.errstate(over="ignore"):    # a huge bonus scale overflows to inf, as in Python
        v = learners.failure_mean + learners.bonus_sign * (
            learners.bonus_scale * np.sqrt(log_term / (2.0 * np.maximum(h, 1))))
    v = np.where(v < 0.0, 0.0, np.where(v > 1.0, 1.0, v))
    v = np.where(h > 0, v, 0.0)
    return q, v


def selection_rows(layout: Layout, q: np.ndarray, v: np.ndarray,
                   omega: float) -> tuple[list, list, list, list]:
    """The selection inputs of every learner row: value, gates, bounds and ranked, row by row.

    q and v are estimates' (R, F) and (R, I) arrays. Row r of each result is
    the list policy.learned_rows builds from q[r] and v[r], value for value: the
    same IEEE operations, the worst estimate of a chain taken by a maximum
    over its VNFs and floored at 0.0 as the loop starts from 0.0, and the
    chains ranked by a stable sort, which keeps equal bounds in id order.
    Every chain must run at least one VNF.
    """
    value = omega * q
    gates = 1.0 - np.maximum(np.maximum.reduceat(v[:, layout.chain_flat], layout.chain_start,
                                                 axis=1), 0.0)
    with np.errstate(invalid="ignore"):     # inf * 0.0 is nan, as in Python
        bounds = value * gates
    eligible = (gates > 0.0) & (bounds > 0.0)
    order = np.argsort(np.where(eligible, -bounds, math.inf), axis=1, kind="stable")
    ranked = [row[:n] for row, n in zip(order.tolist(), eligible.sum(axis=1).tolist())]
    return value.tolist(), gates.tolist(), bounds.tolist(), ranked


def decide_learned(graphs: list[kernels.PlanGraph], layout: Layout, q: np.ndarray,
                   v: np.ndarray, omega: float, mu: float, ids: list[list], counts: list[list],
                   residuals: list[list]) -> np.ndarray:
    """One slot of every learner row: selection_rows, then kernels.slot_decide per row.

    q and v hold one block of S rows per learned policy, block k's rows
    [k*S, (k+1)*S) its seeds' estimates: block k scans on graphs[k] and
    appends to ids[k], counts[k] and residuals[k]. Returns the (P*S, F)
    count of each chain's commits.
    """
    n_rows, n_sfcs = q.shape
    n_seeds = n_rows // len(graphs)
    rows = zip(*selection_rows(layout, q, v, omega))
    made, sfc = [], []
    for graph, block_ids, block_counts, block_residuals in zip(graphs, ids, counts, residuals):
        first = len(block_ids)
        for value, gates, bounds, ranked in islice(rows, n_seeds):
            # looked up on the module every call, so that a profiler can wrap it
            block_counts.append(kernels.slot_decide(graph, value, gates, bounds, ranked, mu,
                                                    block_ids, block_residuals))
        made += block_counts[-n_seeds:]
        sfc += map(graph.edge_sfc.__getitem__, block_ids[first:])
    row = np.repeat(np.arange(n_rows), made)
    return np.bincount(row * n_sfcs + np.array(sfc, dtype=np.int64),
                       minlength=n_rows * n_sfcs).reshape(n_rows, n_sfcs)


def gather(graph: kernels.PlanGraph, ids: list, counts: list, residuals: list) -> Records:
    """A chunk's learned decisions as Records, read from the graph's edge tables by id.

    Row k committed the next counts[k] ids and left residuals[k]. The stored
    edges never change, so their arrays are kept on the graph, as
    graph.edge_arrays, and extended by the edges stored since the last call;
    only the edges past them are converted here. The graph is then trimmed,
    so an id past its stored edges lasts one chunk.
    """
    stored = graph.stored
    tables = graph.edge_arrays or _edge_arrays(graph, 0, 0, 0)
    if len(tables[0]) < stored:
        tables = _joined(tables, _edge_arrays(graph, len(tables[0]), stored, len(tables[4])))
    graph.edge_arrays = tables
    if len(graph.edge_sfc) > stored:
        tables = _joined(tables, _edge_arrays(graph, stored, len(graph.edge_sfc),
                                              len(tables[4])))
    sfc, latency, lengths, starts, servers = tables
    ids = np.array(ids, dtype=np.int64)
    positions = lengths[ids]
    # record r's servers start at starts[ids[r]] in servers, and at shift[r] less in its own
    shift = starts[ids] - (np.cumsum(positions) - positions)
    rec = Records(row=np.repeat(np.arange(len(counts)), counts),
                  sfc=sfc[ids], latency=latency[ids], positions=positions,
                  servers=servers[np.repeat(shift, positions) + np.arange(positions.sum())],
                  residual=np.fromiter(chain.from_iterable(residuals),
                                       np.int64).reshape(len(residuals), -1))
    graph.trim()
    return rec


def _edge_arrays(graph: kernels.PlanGraph, first: int, last: int, base: int) -> tuple:
    """Edges first .. last-1 as arrays: (sfc, latency, lengths, starts, servers).

    The edges' servers follow one another in servers, and starts[e] is the
    index of edge e's first one once these arrays extend arrays holding base
    servers.
    """
    assignments = graph.edge_servers[first:last]
    lengths = np.fromiter(map(len, assignments), np.int64, last - first)
    return (np.array(graph.edge_sfc[first:last], dtype=np.int64),
            np.array(graph.edge_latency[first:last], dtype=np.float64),
            lengths, base + np.cumsum(lengths) - lengths,
            np.fromiter(chain.from_iterable(assignments), np.int64, int(lengths.sum())))


def _joined(head: tuple, tail: tuple) -> tuple:
    """Two _edge_arrays tuples, the first edges' then the next ones'."""
    return tuple(np.concatenate(pair) for pair in zip(head, tail))


def random_rows(layout: Layout, u: np.ndarray) -> Records:
    """The random policy's commits in every row of u, an (..., W) array of slot uniforms.

    u's leading axes index its rows in C order: harness.simulate_run hands
    it a (slots, seeds, W) view of a block's uniforms, rows slot-major, which
    is read where it lies, not copied. Each row is one slot on a fresh
    residual, its W = layout.width uniforms in [0, 1): one per chain, then
    one per chain position. Chains are attempted once each, in ascending
    u[f], ties by id. Occurrence j of chain f goes to the server at index
    int(u[n_sfcs + chain_start[f] + j] * count) among the count servers, in
    id order, whose residual, less what the chain's earlier occurrences took,
    holds the VNF's demand; the hops' link latencies add up in position order
    from 0.0. A chain commits only if every occurrence found room and its
    latency is finite. This is the law of drawing each next chain uniformly
    among those left and placing each occurrence on the first server with
    room in a fresh uniform permutation of the servers.

    Each row's L chain occurrences, in rank order and then chain order, are
    laid out once as (L, R) tables, and the rows advance together, one step
    per occurrence, on server-major (N + 1, R) residuals. Row N is a
    sentinel: an occurrence that finds no room lands there, and the hop
    table charges +inf to enter it, which every later hop of the chain
    keeps, so the one test of a finite latency at the chain's last
    occurrence also rejects a chain that did not fit. Chain ids and server
    counts are kept in the narrowest unsigned types that hold F and N. Where
    a row's chain has already failed its steps go on, on numbers that
    nothing reads: the room and the latency are reset at the row's next
    chain, and neither the failed chain's latency nor its servers are
    recorded.
    """
    n_servers = layout.network.n_servers
    chain_len = layout.chain_len
    # step k reads row k of spots and latency as the position's demand and
    # uniform, then overwrites it with the server it chose and the chain's
    # latency so far: two (L, R) tables, not four
    first, last, spots, latency, sfc = _occurrences(layout, u)
    n_occ, n_rows = sfc.shape
    rows = np.arange(n_rows)

    # server-major (N + 1, R) state: row N is where an occurrence with no room
    # lands, a sentinel that no count reads, and hops[N] is a chain's start
    residual = np.zeros((n_servers + 1, n_rows), dtype=np.int64)
    residual[:n_servers] = layout.capacities[:, None]
    room = residual
    hops = np.full((n_servers + 1, n_servers + 1), math.inf)
    hops[:n_servers, :n_servers] = layout.network.latency_matrix
    hops[n_servers, :n_servers] = 0.0
    hops = hops.ravel()                 # hops[a * (N + 1) + b], a to b
    has_room = np.empty((n_servers, n_rows), dtype=bool)
    below = np.empty((n_servers, n_rows), dtype=bool)
    count_to = np.empty((n_servers, n_rows), dtype=np.min_scalar_type(n_servers))
    lat = np.zeros(n_rows)
    spot = np.zeros(n_rows, dtype=np.int64)
    done = np.empty((n_occ, n_rows), dtype=bool)        # where a row commits a chain
    for k in range(n_occ):
        need, start = spots[k], first[k]
        room = np.where(start, residual, room)
        np.greater_equal(room[:n_servers], need, out=has_room)
        np.add.accumulate(has_room.view(np.uint8), axis=0, out=count_to)
        # the servers before the chosen one are those whose count_to is at most
        # the index int(latency[k] * count), so at most latency[k] * count;
        # count_to[-1] = count is more, unless no server has room: then all N
        # are, and the spot is the sentinel row N
        np.less_equal(count_to, latency[k] * count_to[-1], out=below)
        prev, spot = spot, np.add.reduce(below.view(np.uint8), axis=0,
                                         dtype=count_to.dtype).astype(np.int64)
        room.reshape(-1)[spot * n_rows + rows] -= need     # room[spot, rows], on the flat view
        # a chain starts from 0.0 at row N; column N, no room, is +inf
        np.copyto(prev, n_servers, where=start)
        np.copyto(lat, 0.0, where=start)
        lat += hops[prev * (n_servers + 1) + spot]
        spots[k], latency[k] = spot, lat
        fits = np.logical_and(last[k], lat < math.inf, out=done[k])
        residual = np.where(fits, room, residual)

    # row-major: each row's commits in rank order, each commit's servers in
    # chain order. Commit c's servers, from entry cumsum(positions)[c] -
    # positions[c] of servers on, are those its occurrences rec_at[c] -
    # positions[c] + 1 .. rec_at[c] chose
    rec_row, rec_at = np.nonzero(done.T)
    rec_sfc = sfc[rec_at, rec_row].astype(np.int64)
    positions = chain_len[rec_sfc]
    occ = np.repeat(rec_at + 1 - np.cumsum(positions), positions) + np.arange(positions.sum())
    return Records(row=rec_row, sfc=rec_sfc, latency=latency[rec_at, rec_row],
                   positions=positions, servers=spots[occ, np.repeat(rec_row, positions)],
                   residual=np.ascontiguousarray(residual[:n_servers].T))


def _occurrences(layout: Layout, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """random_rows' (L, R) tables: row k of each is the k-th chain occurrence of every row.

    Occurrences are counted in rank order, then chain order, as random_rows
    takes them. Returns first and last, set where the occurrence is its
    chain's first or last; spots, its VNF's demand; latency, its uniform;
    and sfc, its chain, in the narrowest unsigned type that holds F. So the
    tables random_rows steps over hold 20 bytes a row and occurrence on the
    bundled layout; the setup's tables, built on the way, are dropped as
    soon as they are read.
    """
    n_sfcs = layout.catalog.n_sfcs
    n_occ = layout.chain_flat.shape[0]
    n_rows = math.prod(u.shape[:-1])
    rows = np.arange(n_rows)
    chain_len = layout.chain_len
    # layout.chain_flat[p] is VNF number place[p] of chain chain_of[p]
    chain_of = np.repeat(np.arange(n_sfcs), chain_len)
    place = np.arange(n_occ) - layout.chain_start[chain_of]
    # row r attempts its chains in order[r]; chain f's positions are then its
    # occurrences begin[r, f] .. begin[r, f] + chain_len[f] - 1
    order = np.argsort(u[..., :n_sfcs], axis=-1, kind="stable").reshape(n_rows, n_sfcs)
    lengths = chain_len[order]
    begin = np.empty_like(order)
    begin[rows[:, None], order] = np.cumsum(lengths, axis=1) - lengths
    # pos[k, r] is the position of row r's occurrence k, scattered on the flat
    # view from at, where at[p, r] is position p's flat index in pos
    at = begin.T[chain_of]
    del order, lengths, begin
    at += place[:, None]
    at *= n_rows
    at += rows
    pos = np.empty((n_occ, n_rows), dtype=np.intp)
    pos.reshape(-1)[at] = np.arange(n_occ)[:, None]
    del at
    return ((place == 0)[pos], (place == chain_len[chain_of] - 1)[pos],
            layout.demand[layout.chain_flat][pos],
            u[..., n_sfcs:][np.unravel_index(rows, u.shape[:-1]) + (pos,)],
            chain_of.astype(np.min_scalar_type(n_sfcs))[pos])


def check(layout: Layout, rec: Records, label, x: np.ndarray | None = None,
          placed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Recount every row's commits and hold them to the eight conditions of a sound decision.

    No chain committed twice; no partial plan; no infinite latency; every
    server id in range; load within capacity; the residual equal to capacity
    minus load; the backup vector x equal to the committed set; and the
    copies per VNF that feed the failure update equal to the per-position
    recount. x and placed are the (R, F) backup vectors and (R, I) copies the
    learners were updated with; None, for the random policy, which keeps no
    learners, takes them from rec. label(k) is row k's (seed, slot). Returns
    x and placed. A violation raises InvariantViolation for the first row
    that has one, worded by _fault.
    """
    n_rows, n_servers = rec.residual.shape
    n_sfcs = layout.catalog.n_sfcs
    n_vnfs = layout.catalog.n_vnfs
    row, sfc = rec.row, rec.sfc

    counted = np.bincount(row * n_sfcs + sfc, minlength=n_rows * n_sfcs).reshape(n_rows, n_sfcs)
    if x is None:
        x, placed = counted > 0, counted @ layout.copies

    # per record: a whole plan at finite latency on known servers
    pos_rec = np.repeat(np.arange(sfc.shape[0]), rec.positions)
    known = rec.servers % n_servers      # in range, and equal to the id where it was
    whole = ((rec.positions == layout.chain_len[sfc]) & ~np.isinf(rec.latency)
             & (np.bincount(pos_rec[known != rec.servers], minlength=sfc.shape[0]) == 0))
    # position p of a whole plan runs VNF chain_flat[p + shift]; known and the
    # clamp keep the positions of the other plans, whose rows fail anyway, in range
    shift = layout.chain_start[sfc] - (np.cumsum(rec.positions) - rec.positions)
    vnfs = layout.chain_flat[np.minimum(np.arange(pos_rec.shape[0]) + shift[pos_rec],
                                        max(layout.chain_flat.shape[0] - 1, 0))]
    pos_row = row[pos_rec]
    load = np.zeros(n_rows * n_servers, dtype=np.int64)
    np.add.at(load, pos_row * n_servers + known, layout.demand[vnfs])
    left = layout.capacities - load.reshape(n_rows, n_servers)
    recount = np.bincount(pos_row * n_vnfs + vnfs,
                          minlength=n_rows * n_vnfs).reshape(n_rows, n_vnfs)

    # per row: load within capacity, and residual, x and copies as recounted;
    # each is tested over the whole chunk at once, and row by row only to find
    # the first row that fails
    if (whole.all() and not (left < 0).any() and (rec.residual == left).all()
            and not (counted > 1).any() and (x == (counted > 0)).all()
            and (placed == recount).all()):
        return x, placed
    bad = ((left < 0) | (rec.residual != left)).any(axis=1)
    bad |= (counted > 1).any(axis=1) | (x != (counted > 0)).any(axis=1)
    bad |= (placed != recount).any(axis=1)
    bad[row[~whole]] = True
    k = int(bad.argmax())
    # the row's totals count only once each of its commits is whole
    totals = (((left[k] < 0).any(), "server load exceeds capacity"),
              ((rec.residual[k] != left[k]).any(), "residual bookkeeping mismatch"),
              ((x[k] != (counted[k] > 0)).any(), "backup vector out of sync with plans"),
              ((placed[k] != recount[k]).any(), "placement counts out of sync with plans"))
    fault = _fault(layout, rec, k) or next(text for broken, text in totals if broken)
    seed, t = label(k)
    raise InvariantViolation(f"seed {seed}, slot {t}: {fault}")


def _fault(layout: Layout, rec: Records, k: int) -> str | None:
    """The first of row k's commits, in commit order, that breaks a condition, worded.

    A commit fails if its chain was committed before in the row, if its plan
    is partial, if its latency is infinite, or on its first unknown server,
    checked in that order. None if every commit passes.
    """
    n_servers = layout.network.n_servers
    ends = np.cumsum(rec.positions).tolist()
    seen = set()
    for r in np.flatnonzero(rec.row == k).tolist():
        f = int(rec.sfc[r])
        servers = rec.servers[ends[r] - int(rec.positions[r]):ends[r]].tolist()
        if f in seen:
            return f"SFC {f} committed twice"
        seen.add(f)
        if len(servers) != len(layout.catalog.sfc_chain[f]):
            return f"SFC {f} committed a partial plan"
        if math.isinf(rec.latency[r]):
            return f"SFC {f} committed at infinite latency"
        for server in servers:
            if not 0 <= server < n_servers:
                return f"SFC {f} assigned to unknown server {server}"
    return None


def slot_values(layout: Layout, omega: float, mu: float, requests: np.ndarray,
                survived: np.ndarray, rec: Records, value_true: np.ndarray,
                gate_true: np.ndarray) -> dict[str, list]:
    """Every row's series entries: realized and expected reward, remaining resource, deployed.

    rec holds the rows' verified commits, requests the rows' (R, F) request
    counts and survived their (R, F) survival flags: survived[k, f] is set
    where none of chain f's VNFs failed in row k, (failed @ layout.uses) == 0
    for the rows' failure flags, as copies of a VNF share one flag. A
    committed chain earns omega times its requests less mu times its latency,
    and nothing if it did not survive. Its expected value is value_true[k, f]
    (omega times chain f's true popularity) less mu times the latency, times
    gate_true[k, f] (its true survival chance). Each row's realised and
    expected terms go into one by-rank table, and one loop adds them left to
    right in commit order, one vector add per commit rank over all rows.
    """
    n_rows = rec.residual.shape[0]
    row, sfc = rec.row, rec.sfc
    # terms[j, :, k] is row k's (j+1)-th realised and expected term in commit
    # order, and +0.0 past its last: a sum that starts from +0.0 is never -0.0,
    # so adding +0.0 leaves it as it is
    deployed = np.bincount(row, minlength=n_rows)
    rank = np.arange(row.shape[0]) - np.repeat(np.cumsum(deployed) - deployed, deployed)
    terms = np.zeros((deployed.max(initial=0), 2, n_rows))
    terms[rank, 0, row] = np.where(survived[row, sfc],
                                   omega * requests[row, sfc] - mu * rec.latency, 0.0)
    terms[rank, 1, row] = (value_true[row, sfc] - mu * rec.latency) * gate_true[row, sfc]
    sums = np.zeros((2, n_rows))
    for by_rank in terms:
        sums += by_rank
    realized, expected = sums.tolist()
    return {"realized": realized, "expected": expected,
            "remaining": rec.residual.sum(axis=1).tolist(), "deployed": deployed.tolist()}


def update(learners: Learners, requests: np.ndarray, failed: np.ndarray, x: np.ndarray,
           placed: np.ndarray) -> None:
    """Fold one slot's observation into every learner row, in place, as policy.learned_rows does.

    requests and failed are the rows' (R, F) and (R, I) observations, x their
    (R, F) backup vectors and placed their (R, I) copies per VNF. A chain with
    x set counts one pull and its request count; a VNF with placed copies
    counts one observation and its failure flag, however many copies.
    """
    learners.selected += x
    np.add(learners.request_total, requests, out=learners.request_total, where=x)
    np.divide(learners.request_total, learners.selected, out=learners.request_mean, where=x)
    hit = placed > 0
    learners.placements += hit
    np.add(learners.failure_total, failed, out=learners.failure_total, where=hit)
    np.divide(learners.failure_total, learners.placements, out=learners.failure_mean,
              where=hit)
