"""The simulator written from its definitions, slow and plain, for the tests.

reference_run(cfg) returns the (trace, summary) that harness.run(cfg) must
return, column for column. It is one loop over policies, seeds and slots,
and every step of a slot is written as the definition reads:

- draw_slot draws slot t's requests and failure flags on their own, from a
  Philox keyed (seed, 0) with its counter at [t, 0, 0, 0]: the K x F request
  uniforms, then the I failure uniforms. policy_uniforms draws the random
  policy's W uniforms from the key (seed, 1), counter [t * B, 0, 0, 0] with
  B = ceil(W / 4).
- fresh_learners is one seed's learner pair, its counts, totals and means
  lists; estimates, update and selection_inputs are the learners' formulas
  on such a pair, the steps that policy.learned_rows runs inline on a
  lockstep.Learners row and lockstep runs for many rows with numpy.
- select is the selection loop unpruned: each round plans every remaining
  chain against the live residual, with no plan graph, and commits the best
  positive score. greedy_walk and first_fit_walk are the two placements,
  anchor the greedy walk's start.
- random_placement is the random policy, one slot at a time, reading its
  uniforms where uniform_layout puts them.
- each decision is held to verify_decision, the eight conditions of a sound
  decision checked one commit at a time, and realized_reward and
  expected_slot_value value it with plain loops, a chain's expected value
  gated by one minus chain_failure_rate, its worst VNF's rate.

None of this calls sfcbackup.kernels or .lockstep, nor
workload.sample_arrays or workload.slot_stream; test_lockstep runs it with
all of them made to raise. Only the oracle value of a regret run comes from
sfcbackup.oracle, which test_oracle holds to its own enumeration.

The ROADMAP.md item "Make the reported numbers mean what their names say"
changes one definition here for each of its three parts:
(a) independent per-slot environment streams: the counter in draw_slot;
(b) the expected reward as the expectation of the realised one: the gate in
    expected_slot_value, chain_failure_rate;
(c) one failure observation per slot in which a VNF was placed: the
    placements count in update.

reference_random_slot is not a definition but a law: the permutation scan
the random policy's draws must follow in distribution.

reference_trace_text writes a trace as harness.emit must, one cell at a
time: trace.csv with repr of each number, "" for None and policy names as
they are; trace.jsonl with json.dumps of each row's dict.

The rest drives src for the tests, one adapter each:
assert_matches_reference holds harness.run to reference_run on both
decide paths; slot_rows and slot_row give one seed's sample_arrays draws
as lists; decoded turns plan-graph edge ids into (sfc, PlacementPlan) pairs;
verified_slot is a one-slot, one-seed chunk of policy.learned_rows as a
SlotDecision held to verify_decision and to what the learners were updated
with; learner_row reads a lockstep.Learners row as a fresh_learners pair;
get_consumption plans one chain with kernels.greedy_chain_walk;
records builds lockstep.Records from (sfc, PlacementPlan) lists; and
unpack_rows and random_slots turn lockstep.Records into (deployed, residual)
pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import inf, log, sqrt
from types import SimpleNamespace

import numpy as np

from sfcbackup import harness, kernels, lockstep
from sfcbackup.harness import CSV_COLUMNS
from sfcbackup.model import cheapest_link_anchor
from sfcbackup.oracle import optimal_slot_value
from sfcbackup.policy import InvariantViolation, learned_rows
from sfcbackup.workload import make_ground_truth, sample_arrays

# --- decisions -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PlacementPlan:
    """Where one committed SFC's chain goes at the edge.

    assignment holds one server per chain position, and latency sums the link
    latencies between consecutive positions. A chain that does not fit is
    never committed, so it has no plan.
    """

    sfc: int
    assignment: tuple[int, ...]
    latency: float


@dataclass(eq=False)
class SlotDecision:
    """One slot's committed backups.

    deployed lists (sfc, plan) in commit order; x is the per-SFC backup
    vector (0 or 1); placed_counts[i] totals deployed copies of VNF i across
    all committed chains this slot; residual_after is each server's capacity
    left after them. The three vectors are lists of Python ints.
    """

    t: int
    deployed: list[tuple[int, PlacementPlan]]
    x: list[int]
    placed_counts: list[int]
    residual_after: list[int]


def verify_decision(network, catalog, decision: SlotDecision) -> None:
    """Capacity, coupling and bookkeeping must agree: the eight conditions, one commit at a time.

    Raises InvariantViolation on the first inconsistency. lockstep.check
    words the same fault the same way, after the row's seed. The decision's
    vectors are compared by value, so lists, tuples and arrays are all
    checked alike.
    """
    n = network.n_servers
    demand = catalog.vnf_demand
    load = [0] * n
    placed = [0] * catalog.n_vnfs
    seen: set[int] = set()
    for f, plan in decision.deployed:
        chain = catalog.sfc_chain[f]
        if f in seen:
            raise InvariantViolation(f"slot {decision.t}: SFC {f} committed twice")
        seen.add(f)
        if len(plan.assignment) != len(chain):
            raise InvariantViolation(f"slot {decision.t}: SFC {f} committed a partial plan")
        if math.isinf(plan.latency):
            raise InvariantViolation(f"slot {decision.t}: SFC {f} committed at infinite latency")
        for server, i in zip(plan.assignment, chain):
            # bound check first: a negative id would index a list from the end
            if not (0 <= server < n):
                raise InvariantViolation(f"slot {decision.t}: SFC {f} assigned to unknown server {server}")
            load[server] += demand[i]
            placed[i] += 1
    caps = network.capacities
    if any(used > cap for used, cap in zip(load, caps)):
        raise InvariantViolation(f"slot {decision.t}: server load exceeds capacity")
    if list(decision.residual_after) != [cap - used for cap, used in zip(caps, load)]:
        raise InvariantViolation(f"slot {decision.t}: residual bookkeeping mismatch")
    x_expect = [0] * catalog.n_sfcs
    for f in seen:
        x_expect[f] = 1
    if list(decision.x) != x_expect:
        raise InvariantViolation(f"slot {decision.t}: backup vector out of sync with plans")
    if list(decision.placed_counts) != placed:
        raise InvariantViolation(f"slot {decision.t}: placement counts out of sync with plans")


# --- draws ------------------------------------------------------------------

def _philox(seed: int, domain: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, domain], counter=[block, 0, 0, 0]))


def draw_slot(gt, t: int) -> tuple[list[int], list[int]]:
    """Slot t's request counts and failure flags, drawn on their own as lists."""
    rng = _philox(gt.rng_seed, 0, t)
    u = rng.random(gt.request_prob.shape).tolist()
    fu = rng.random(gt.failure_mean.shape).tolist()
    p = gt.request_prob.tolist()
    requests = [sum(row_u[f] < row_p[f] for row_u, row_p in zip(u, p))
                for f in range(gt.request_prob.shape[1])]
    return requests, [int(a < b) for a, b in zip(fu, gt.failure_mean.tolist())]


def policy_uniforms(seed: int, t: int, width: int) -> list[float]:
    """Slot t's width random-policy uniforms, from its own counter blocks."""
    return _philox(seed, 1, t * -(-width // 4)).random(width).tolist()


# --- the learners -------------------------------------------------------------

def fresh_learners(n_sfcs: int, n_vnfs: int, users: int, *,
                   failure_bonus_scale: float | None = None, failure_bonus_sign: int = 1):
    """One seed's (popularity, failure) learners before its first slot, every field zero.

    The popularity learner's selected[f] counts the slots where chain f was
    backed up and request_mean[f] averages their request counts; the failure
    learner's placements[i] counts VNF i's deployed copies and failure_mean[i]
    divides its once-per-slot failure flags by that count. The failure bonus
    is scaled by failure_bonus_scale, users where None, in the direction of
    failure_bonus_sign.
    """
    scale = users if failure_bonus_scale is None else failure_bonus_scale
    pop = SimpleNamespace(users=users, selected=[0] * n_sfcs,
                          request_total=[0.0] * n_sfcs, request_mean=[0.0] * n_sfcs)
    fail = SimpleNamespace(bonus_scale=float(scale), bonus_sign=failure_bonus_sign,
                           placements=[0] * n_vnfs, failure_total=[0.0] * n_vnfs,
                           failure_mean=[0.0] * n_vnfs)
    return pop, fail


def estimates(learners, t: int) -> tuple[list[float], list[float]]:
    """Both learners' optimistic estimates at slot t, (q, v), one per chain and one per VNF.

    q[f] is chain f's mean request count plus its bonus, +inf while unexplored,
    which forces a first pull. v[i] is VNF i's failure-rate mean plus its
    signed bonus, clamped to [0, 1]; an unexplored VNF reports 0.
    """
    if t < 1:
        raise ValueError("estimates are defined for t >= 1")
    pop, fail = learners
    log_term = 3.0 * log(t)
    scale = pop.users
    q = [mean + scale * sqrt(log_term / (2.0 * c)) if c > 0 else inf
         for c, mean in zip(pop.selected, pop.request_mean)]
    scale, sign = fail.bonus_scale, fail.bonus_sign
    v = []
    for h, mean in zip(fail.placements, fail.failure_mean):
        if h > 0:
            est = mean + sign * (scale * sqrt(log_term / (2.0 * h)))
            v.append(0.0 if est < 0.0 else 1.0 if est > 1.0 else est)
        else:
            v.append(0.0)
    return q, v


def update(learners, requests, failed, x, placed) -> None:
    """Fold one slot's observation into both learners, in place.

    Every chain flagged in x, the slot's backup vector, counts one pull and
    its request count. Every VNF with placed[i] > 0 copies counts all of them
    (so several may go out at once) but adds its failure flag failed[i] once
    per slot.
    """
    pop, fail = learners
    selected, total, mean = pop.selected, pop.request_total, pop.request_mean
    for f, on in enumerate(x):
        if on:
            selected[f] += 1
            total[f] += requests[f]
            mean[f] = total[f] / selected[f]
    placements, total, mean = fail.placements, fail.failure_total, fail.failure_mean
    for i, copies in enumerate(placed):
        if copies > 0:
            placements[i] += copies
            total[i] += failed[i]
            mean[i] = total[i] / placements[i]


def selection_inputs(catalog, q_est, v_est, omega):
    """One slot's selection inputs from the learners' estimates: (value, gates, bounds, ranked).

    value[f] is omega * q_est[f]; gates[f] is 1 - the worst failure estimate
    of chain f's VNFs, the worst floored at 0.0; bounds[f] is value[f] *
    gates[f], the most chain f can score. ranked lists the chains with a
    positive gate and a positive bound by descending bound, ties by ascending
    id. The first three are lists of floats, one per chain, and ranked a list
    of chain ids that slot_decide consumes.
    """
    value = [omega * q for q in q_est]
    gates = []
    for chain in catalog.sfc_chain:
        worst = 0.0
        for i in chain:
            if v_est[i] > worst:
                worst = v_est[i]
        gates.append(1.0 - worst)
    bounds = [v * g for v, g in zip(value, gates)]
    # descending bound, ties by ascending id (reverse=True keeps the sort stable)
    ranked = sorted([f for f in range(len(gates)) if gates[f] > 0.0 and bounds[f] > 0.0],
                    key=bounds.__getitem__, reverse=True)
    return value, gates, bounds, ranked


# --- selection and placement -------------------------------------------------

def latencies(network) -> list[list[float]]:
    """lat[a][b]: the link latency, 0.0 on the diagonal and +inf where no link exists."""
    n = network.n_servers
    lat = [[0.0 if a == b else math.inf for b in range(n)] for a in range(n)]
    for u, v, w in network.links:
        lat[u][v] = lat[v][u] = w
    return lat


def neighbors(network) -> list[list[int]]:
    """nbrs[n]: server n's direct neighbors by ascending latency, ties by id."""
    adj: list[list[tuple[float, int]]] = [[] for _ in range(network.n_servers)]
    for u, v, w in network.links:
        adj[u].append((w, v))
        adj[v].append((w, u))
    return [[m for _, m in sorted(entries)] for entries in adj]


def path_latency(assign, lat) -> float:
    total = 0.0
    for a, b in zip(assign, assign[1:]):
        total += lat[a][b]
    return total


def anchor(network, residual) -> int:
    """The cheapest link's endpoint with the larger residual.

    Latency ties go to the smaller (u, v) pair, residual ties to the smaller
    id; a linkless network starts at its first highest-residual server.
    """
    if not network.links:
        return max(range(len(residual)), key=residual.__getitem__)
    u, v, _ = min(network.links, key=lambda link: (link[2], link[0], link[1]))
    return u if residual[u] >= residual[v] else v


def greedy_walk(residual, demands, chain, nbrs, lat, start):
    """rtsd's placement: (latency, assignment), or (+inf, None) at a dead end.

    A chain that fits whole on the anchor stays there; else one that fits
    whole on some server takes the tightest such (ties to the smaller id).
    Otherwise the walk packs the current server while it lasts, counting the
    chain's own earlier occurrences, then hops to the first direct neighbor,
    by ascending latency, with room.
    """
    total = sum(demands[i] for i in chain)
    if residual[start] >= total:
        return 0.0, (start,) * len(chain)
    fits = [s for s, r in enumerate(residual) if r >= total]
    if fits:
        return 0.0, (min(fits, key=residual.__getitem__),) * len(chain)
    tent = [0] * len(residual)
    cur = start
    assign = []
    for i in chain:
        need = demands[i]
        if residual[cur] - tent[cur] < need:
            cur = next((m for m in nbrs[cur] if residual[m] - tent[m] >= need), None)
            if cur is None:
                return math.inf, None
        assign.append(cur)
        tent[cur] += need
    return path_latency(assign, lat), tuple(assign)


def first_fit_walk(residual, demands, chain, lat):
    """bandit's placement: each occurrence on the first server, from the last one on, with room.

    Returns (+inf, None) when the scan runs off the end, and a latency of
    +inf when the plan crosses a missing link.
    """
    tent = [0] * len(residual)
    s = 0
    assign = []
    for i in chain:
        need = demands[i]
        while s < len(residual) and residual[s] - tent[s] < need:
            s += 1
        if s == len(residual):
            return math.inf, None
        assign.append(s)
        tent[s] += need
    return path_latency(assign, lat), tuple(assign)


def select(network, catalog, greedy: bool, q, v, omega: float, mu: float):
    """One slot's selection on a fresh residual: (deployed in commit order, residual after).

    Every round plans every remaining chain against the live residual and
    scores it (omega * q[f] - mu * latency) * gate, the gate being one minus
    the chain's worst VNF estimate. A chain with a gate <= 0 or an infinite
    latency is skipped. Chains are scanned in id order and a score wins only
    if it is positive and strictly higher, so ties go to the smallest id. The
    loop stops when no chain scores positive.
    """
    lat, nbrs = latencies(network), neighbors(network)
    demands = catalog.vnf_demand
    gates = [1.0 - max(v[i] for i in chain) for chain in catalog.sfc_chain]
    residual = list(network.capacities)
    left = [f for f, gate in enumerate(gates) if gate > 0.0]
    deployed = []
    while True:
        start = anchor(network, residual)
        best, best_score = None, 0.0
        for f in left:
            chain = catalog.sfc_chain[f]
            if greedy:
                latency, assign = greedy_walk(residual, demands, chain, nbrs, lat, start)
            else:
                latency, assign = first_fit_walk(residual, demands, chain, lat)
            if latency == math.inf:
                continue
            score = (omega * q[f] - mu * latency) * gates[f]
            if score > best_score:
                best, best_score = PlacementPlan(sfc=f, assignment=assign, latency=latency), score
        if best is None:
            return deployed, residual
        for s, i in zip(best.assignment, catalog.sfc_chain[best.sfc]):
            residual[s] -= demands[i]
        left.remove(best.sfc)
        deployed.append((best.sfc, best))


def uniform_layout(catalog) -> tuple[int, list[int]]:
    """(W, starts): one random-policy slot reads W uniforms; u[0:n_sfcs] ranks
    the chains and occurrence j of chain f reads u[starts[f] + j]."""
    lengths = [len(chain) for chain in catalog.sfc_chain]
    starts = [catalog.n_sfcs + sum(lengths[:f]) for f in range(catalog.n_sfcs)]
    return catalog.n_sfcs + sum(lengths), starts


def random_placement(network, catalog, u) -> tuple[list[tuple[int, PlacementPlan]], list[int]]:
    """One random-policy slot on u, its W uniforms: (deployed in commit order, residual after).

    Chains are attempted in ascending u[f], ties by id. Occurrence j of chain
    f takes fits[int(u[starts[f] + j] * len(fits))], where fits lists, in id
    order, the servers whose residual, less what the chain's earlier
    occurrences took, still holds the VNF's demand. A chain commits only if
    every occurrence fits and its latency is finite.
    """
    lat = latencies(network)
    demands = catalog.vnf_demand
    _, starts = uniform_layout(catalog)
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


# --- values -------------------------------------------------------------------

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


def chain_failure_rate(catalog, rates, f: int) -> float:
    """A chain is only as reliable as its worst VNF: max rate over f's occurrences."""
    return float(max(rates[i] for i in catalog.sfc_chain[f]))


def expected_slot_value(weights, gt, decision, catalog) -> float:
    """Decision value under the true parameters, summed left to right in commit order.

    A chain's true popularity sums its request probabilities over the users;
    its gate is one minus its worst VNF's true failure rate.
    """
    p = gt.request_prob.tolist()
    rates = gt.failure_mean.tolist()
    total = 0.0
    for f, plan in decision.deployed:
        popularity = 0.0
        for row in p:
            popularity += row[f]
        gate = 1.0 - chain_failure_rate(catalog, rates, f)
        total += (weights.omega * popularity - weights.mu * plan.latency) * gate
    return total


# --- the run --------------------------------------------------------------------

def decision_of(catalog, t: int, deployed: list, residual: list) -> SlotDecision:
    """A slot's commits as a SlotDecision, x and the copies per VNF counted from them."""
    x = [0] * catalog.n_sfcs
    placed = [0] * catalog.n_vnfs
    for f, _ in deployed:
        x[f] = 1
        for i in catalog.sfc_chain[f]:
            placed[i] += 1
    return SlotDecision(t=t, deployed=deployed, x=x, placed_counts=placed,
                        residual_after=residual)


def reference_series(cfg, network, gt, draws, policy: str) -> tuple[list[tuple], list]:
    """One seed's slots under policy: (realized, expected, remaining, deployed) per
    slot, and each slot's SlotDecision.

    draws holds the seed's draw_slot of every slot, from slot 1 on.
    """
    catalog, weights = cfg.catalog, cfg.weights
    width, _ = uniform_layout(catalog)
    learners = None if policy == "random" else fresh_learners(
        catalog.n_sfcs, catalog.n_vnfs, cfg.users, failure_bonus_scale=cfg.failure_bonus_scale,
        failure_bonus_sign=cfg.failure_bonus_sign)
    rows, decisions = [], []
    for t, (requests, failed) in enumerate(draws, start=1):
        if learners is None:
            deployed, residual = random_placement(network, catalog,
                                                  policy_uniforms(gt.rng_seed, t, width))
        else:
            q, v = estimates(learners, t)
            deployed, residual = select(network, catalog, policy == "rtsd", q, v,
                                        weights.omega, weights.mu)
        decision = decision_of(catalog, t, deployed, residual)
        verify_decision(network, catalog, decision)
        if learners is not None:
            update(learners, requests, failed, decision.x, decision.placed_counts)
        rows.append((realized_reward(weights, requests, failed, decision, catalog)[1],
                     expected_slot_value(weights, gt, decision, catalog),
                     sum(residual), len(deployed)))
        decisions.append(decision)
    return rows, decisions


def _mean_std(values) -> dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0}


def reference_run(cfg) -> tuple[dict[str, list], dict]:
    """harness.run(cfg)'s trace columns and summary, from the definitions.

    The summary gives, per policy, the mean and sample std over seeds of each
    seed's time average, as harness.run computes them with numpy.
    """
    network = cfg.network if cfg.capacity_scale == 1.0 else cfg.network.scaled(cfg.capacity_scale)
    gts = [make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users, cfg.catalog.n_sfcs,
                             seed) for seed in cfg.seeds]
    oracle = (optimal_slot_value(network, cfg.catalog, gts[0], cfg.weights).best_value
              if cfg.regret else None)
    # every policy sees the same observations
    draws = [[draw_slot(gt, t) for t in range(1, cfg.slots + 1)] for gt in gts]
    rows = []
    policies = {}
    for policy in cfg.policies:
        averages = []
        for seed, gt, seed_draws in zip(cfg.seeds, gts, draws):
            series, _ = reference_series(cfg, network, gt, seed_draws, policy)
            rows += [(t, policy, seed, *values, oracle,
                      None if oracle is None else oracle - values[1])
                     for t, values in enumerate(series, start=1)]
            averages.append([float(np.mean(column)) for column in zip(*series)])
        policies[policy] = {name: _mean_std(column) for name, column in zip(
            ("time_avg_realized", "time_avg_expected", "mean_remaining", "mean_deployed"),
            zip(*averages))}
    summary = {"slots": cfg.slots, "seeds": list(cfg.seeds), "users": cfg.users,
               "capacity_scale": cfg.capacity_scale, "total_capacity": sum(network.capacities),
               "oracle_value": oracle, "policies": policies}
    return {col: list(column) for col, column in zip(CSV_COLUMNS, zip(*rows))}, summary


def reference_trace_text(trace: dict[str, list]) -> tuple[str, str]:
    """The text of trace.csv and of trace.jsonl for trace's columns, each cell formatted alone."""
    rows = list(zip(*(trace[col] for col in CSV_COLUMNS)))
    csv_lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        csv_lines.append(",".join(cell if col == "policy" else "" if cell is None else repr(cell)
                                  for col, cell in zip(CSV_COLUMNS, row)))
    jsonl_lines = [json.dumps(dict(zip(CSV_COLUMNS, row))) for row in rows]
    return "".join(line + "\n" for line in csv_lines), "".join(line + "\n" for line in jsonl_lines)


# --- the random policy's law ----------------------------------------------------

def reference_random_slot(net, cat, rng: np.random.Generator) -> frozenset:
    """The permutation-scan random slot, as (sfc, assignment) pairs.

    Pops a uniformly drawn chain from those not yet attempted; places each
    occurrence on the first server with room in a fresh random permutation.
    lockstep.random_rows must follow the same law.
    """
    n = net.n_servers
    lat = net.latency_rows
    residual = list(net.capacities)
    chosen = []
    candidates = list(range(cat.n_sfcs))
    while candidates:
        f = candidates.pop(int(rng.integers(len(candidates))))
        chain = cat.sfc_chain[f]
        tent = [0] * n
        assign: list[int] = []
        latency = 0.0
        for i in chain:
            need = cat.vnf_demand[i]
            spot = next((s for s in rng.permutation(n).tolist()
                         if residual[s] - tent[s] >= need), -1)
            if spot < 0:
                break
            if assign:
                latency += lat[assign[-1]][spot]
            assign.append(spot)
            tent[spot] += need
        if chain and len(assign) == len(chain) and not math.isinf(latency):
            residual = [r - d for r, d in zip(residual, tent)]
            chosen.append((f, tuple(assign)))
    return frozenset(chosen)


# --- adapters that drive src ------------------------------------------------------

def assert_matches_reference(cfg, monkeypatch) -> dict[str, list]:
    """harness.run(cfg) equals reference_run(cfg) on both decide paths, type for type.

    LOCKSTEP_MIN_SEEDS = 1 decides every chunk with lockstep's stages, one
    past the run's learner rows (learned policies x seeds) every chunk with
    policy.learned_rows. The shipped value, run too where the rows outnumber
    it, may put one seed group on each. A random-only run keeps no learners
    and counts its seeds. Returns the trace.
    """
    trace, summary = reference_run(cfg)
    shipped = harness.LOCKSTEP_MIN_SEEDS
    learned = sum(policy in harness.PLACEMENT_MODES for policy in cfg.policies)
    rows = max(learned, 1) * len(cfg.seeds)
    for min_seeds in (1, shipped, rows + 1) if shipped < rows else (1, rows + 1):
        monkeypatch.setattr(harness, "LOCKSTEP_MIN_SEEDS", min_seeds)
        result = harness.run(cfg)
        for col in CSV_COLUMNS:
            assert [(type(v), v) for v in result.trace[col]] == \
                   [(type(v), v) for v in trace[col]], (min_seeds, col)
        assert result.summary == summary, min_seeds
    monkeypatch.setattr(harness, "LOCKSTEP_MIN_SEEDS", shipped)
    return trace


def slot_rows(gt, t0: int, t1: int) -> list[tuple[list[int], list[int]]]:
    """Slots t0 .. t1-1 drawn by sample_arrays for gt alone: (requests, failed) lists per slot."""
    requests, failed = sample_arrays([gt], t0, t1)
    return list(zip(requests[:, 0].tolist(), failed[:, 0].tolist()))


def slot_row(gt, t: int) -> tuple[list[int], list[int]]:
    """Slot t's (requests, failed) lists, drawn by sample_arrays."""
    return slot_rows(gt, t, t + 1)[0]


def decoded(graph, ids) -> list[tuple[int, PlacementPlan]]:
    """Plan-graph edge ids as (sfc, PlacementPlan) pairs, read from the graph's edge tables."""
    return [(graph.edge_sfc[e], PlacementPlan(sfc=graph.edge_sfc[e],
                                              assignment=graph.edge_servers[e],
                                              latency=graph.edge_latency[e])) for e in ids]


def verified_slot(learners, t: int, requests, failed, weights, graph) -> SlotDecision:
    """policy.learned_rows on one seed and slot, as a SlotDecision held to verify_decision.

    learners is a lockstep.Learners, whose row 0 decides and learns. The
    decision's residual_after is the kernel's residual tuple as a list.
    """
    ids, counts, residuals, x, placed = learned_rows(learners, 0, t, [[requests]], [[failed]],
                                                     weights, graph)
    assert counts == [len(ids)] and len(residuals) == 1
    decision = decision_of(graph.catalog, t, decoded(graph, ids), list(residuals[0]))
    # the backup vector and copies the learners were updated with are the decision's
    assert x.tolist() == [decision.x]
    assert placed.tolist() == [decision.placed_counts]
    verify_decision(graph.network, graph.catalog, decision)
    return decision


def learner_row(learners, r: int):
    """Row r of a lockstep.Learners as a fresh_learners pair, its fields copied into lists."""
    pop = SimpleNamespace(users=learners.users, selected=learners.selected[r].tolist(),
                          request_total=learners.request_total[r].tolist(),
                          request_mean=learners.request_mean[r].tolist())
    fail = SimpleNamespace(bonus_scale=learners.bonus_scale, bonus_sign=learners.bonus_sign,
                           placements=learners.placements[r].tolist(),
                           failure_total=learners.failure_total[r].tolist(),
                           failure_mean=learners.failure_mean[r].tolist())
    return pop, fail


def get_consumption(network, catalog, residual, f: int) -> PlacementPlan:
    """SFC f's plan by kernels.greedy_chain_walk; a cloud plan, () at +inf, when it dead-ends.

    Nothing here changes residual, which may be a list or an array.
    """
    res = np.asarray(residual, dtype=np.int64).tolist()
    needs = tuple(catalog.vnf_demand[i] for i in catalog.sfc_chain[f])
    latency, assign = kernels.greedy_chain_walk(
        res, sorted(res), needs, network.neighbor_lists, network.latency_rows,
        cheapest_link_anchor(network, res))
    return PlacementPlan(sfc=int(f), assignment=assign or (), latency=latency)


def records(decided: list, residuals: list) -> lockstep.Records:
    """lockstep.Records of rows of (sfc, PlacementPlan) commits, built from plain lists.

    decided[k] lists row k's commits in order and residuals[k] its residual.
    """
    pairs = [(k, f, plan) for k, deployed in enumerate(decided) for f, plan in deployed]
    return lockstep.Records(
        row=np.array([k for k, _, _ in pairs], dtype=np.int64),
        sfc=np.array([f for _, f, _ in pairs], dtype=np.int64),
        latency=np.array([plan.latency for _, _, plan in pairs], dtype=np.float64),
        positions=np.array([len(plan.assignment) for _, _, plan in pairs], dtype=np.int64),
        servers=np.array([s for _, _, plan in pairs for s in plan.assignment], dtype=np.int64),
        residual=np.array(residuals, dtype=np.int64))


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
