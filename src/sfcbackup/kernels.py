"""Hot placement and selection kernels, and the plan graph they fill.

The kernels work on Python ints, floats and lists: indexing a numpy array one
element at a time builds a numpy scalar per access, which makes plain Python
several times slower on arrays than on lists.

Selection runs in two parts, inputs and then the scan. The inputs are one
seed's per-chain lists, built from its learners' optimistic estimates: each
chain's value omega*q, its gate (one minus its worst VNF failure estimate),
its bound value*gate, and the chains worth scanning ranked by bound.
policy.learned_rows builds them for one seed and slot at a time, and
lockstep.selection_rows for many seeds with numpy. slot_decide is the scan
alone: it takes those lists and runs the greedy rounds on the plan graph,
committing one chain per round.

Plan graph. The selection loop re-plans every remaining chain after each
commit, and a chain walk is a pure function of (mode, residual, chain).
Capacity resets every slot, so the residual after k commits is fixed by which
plans were committed, and a run keeps revisiting the same few residual states.
A PlanGraph stores them: each node is one residual with the plans walked on it
so far and an edge per committed chain, (next node, id), the id indexing the
graph's edge tables. slot_decide reads a chain's plan from the current node
and walks only on a miss, so a warm slot is dict lookups and scoring, and a
decision is its edge ids and the final node's residual tuple.

Ownership. A graph belongs to one (network, catalog, mode). harness.run builds
one per learned policy before its seed groups and drops them after, so no graph
outlives a run and nothing is cached at module level or on the network. A
graph stores every node and edge it builds. lockstep.gather, once it has read
a chunk's ids, clears a graph that holds NODE_CAP nodes or more, so the next
chunk starts from a fresh root and ids from 0 again. This changes the cost
and never a decision.

Pruning. A plan's score (omega*q - mu*latency)*gate never exceeds its bound
omega*q*gate, since latency and mu are non-negative and IEEE rounding is
monotone; so each round scans the chains by descending bound and stops once no
bound can beat the best score, ties kept for the smallest id. A chain the
scan never reaches is never looked up or walked. The unpruned definition,
which plans every remaining chain each round against the live residual, is
select in tests/reference.py, and the tests hold this module to it.

Conventions: residuals and capacities are ints, demands non-negative ints;
estimates and selection inputs are sequences of Python floats, one per chain
or VNF; a walk reads its chain as ``needs``, the tuple of its VNFs' demands
in chain order (PlanGraph.chain_needs); ``nbrs[n]`` lists server n's direct
neighbors by ascending latency (EdgeNetwork.neighbor_lists); ``lat[a][b]`` is
the link latency, 0 on the diagonal and +inf where no link exists
(EdgeNetwork.latency_rows). A walk returns a finite plan (latency,
assignment), the assignment a tuple with one server per chain position, or
DEAD_END = (+inf, None) when the chain does not fit at the edge (cloud
verdict), which slot_decide tells by identity and never scores or commits:
every walk returns that one tuple exactly when its latency is +inf.
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

# What a walk that dead-ends returns; one shared tuple, since a plan graph keeps
# every walk's result.
DEAD_END = (inf, None)

# Nodes past which lockstep.gather clears a PlanGraph at the end of a chunk, so
# a graph holds at most this many plus one chunk's new ones. The bundled
# instance reaches fewer than a hundred residual states in a run; the cap
# bounds memory on instances whose states never repeat. slot_decide called
# alone never clears: only gather reads the cap.
NODE_CAP = 10_000


def greedy_chain_walk(residual, pools, needs, nbrs, lat, anchor):
    """Walk a chain of demands needs from the anchor, packing the current server first.

    Consecutive occurrences stay on the current server while its effective
    residual (real residual minus this plan's own tentative consumption)
    covers the demand; otherwise the walk hops to the first direct neighbor,
    in ascending latency order, that fits. No backtracking, no multi-hop
    moves. So a chain whose total demand fits the anchor stays there whole.
    One guard precedes the walk: when the anchor cannot hold the whole chain
    but some single server can, the chain co-locates on the tightest such
    pool (best fit, ties to the smallest id), since zero latency cannot be
    beaten. pools is sorted(residual), shared by all walks against one
    residual, which may be a list or a tuple. Returns (latency, assignment),
    every hop over a direct link, or DEAD_END = (+inf, None) when the walk
    dead-ends or its latency sums to +inf.
    """
    total = sum(needs)
    if residual[anchor] >= total:
        return 0.0, (anchor,) * len(needs)
    k = bisect_left(pools, total)
    if k < len(pools):
        return 0.0, (residual.index(pools[k]),) * len(needs)
    tent = [0] * len(residual)
    cur = anchor
    latency = 0.0
    assign = []
    for need in needs:
        if residual[cur] - tent[cur] < need:
            for m in nbrs[cur]:
                if residual[m] - tent[m] >= need:
                    if assign:
                        latency += lat[cur][m]
                    cur = m
                    break
            else:
                return DEAD_END
        assign.append(cur)
        tent[cur] += need
    if latency == inf:      # finite links whose sum overflowed
        return DEAD_END
    return latency, tuple(assign)


def first_fit_chain_walk(residual, needs, lat):
    """Pack a chain of demands needs onto servers in index order, with a forward-only pointer.

    Occurrences pile onto the current server until it cannot afford the next
    one, then the pointer advances (never wraps). Returns a finite (latency,
    assignment), or DEAD_END = (+inf, None) when the scan runs off the end or
    the plan crosses a missing link: link latencies are non-negative, so a
    sum that reached +inf stays there, and the walk stops at that hop.
    """
    n = len(residual)
    s = 0
    used = 0        # this plan's load on server s; the pointer never returns
    latency = 0.0
    assign = []
    for need in needs:
        if residual[s] - used < need:
            s += 1
            while s < n and residual[s] < need:
                s += 1
            if s >= n:
                return DEAD_END
            if assign:
                latency += lat[assign[-1]][s]
                if latency == inf:
                    return DEAD_END
            used = 0
        assign.append(s)
        used += need
    return latency, tuple(assign)


class PlanGraph:
    """The residual states one run's selection loops visit, with their plans.

    nodes maps a residual tuple to its node (residual, plans, edges), plans
    and edges dicts keyed by chain id: plans[f] is chain f's walk against that
    residual, a finite (latency, assignment) or the shared DEAD_END, and
    edges[f] = (next_node, id) commits f's plan, whose chain, latency and
    assignment are edge_sfc[id], edge_latency[id] and edge_servers[id]. Both
    fill lazily and are never invalidated: walks are pure, and the graph
    belongs to one network, catalog and placement mode (GREEDY or
    FIRST_FIT). root_node is the node of the network's capacities, where
    every slot starts. The network's neighbor_lists and latency_rows, and
    the catalog's vnf_demand and sfc_chain, are kept as slots, read on every
    slot_decide or policy.learned_rows call; chain_needs[f] is the tuple of
    chain f's VNF demands in chain order, built once here and read by every
    walk and commit of f. A chain whose VNFs all have demand 0 commits back
    onto its node; that edge is kept in loops, keyed (residual, f), and not
    in the node's edges, which would make the node hold itself in a
    reference cycle. Every edge is stored, so the ids since the last clear
    are range(len(edge_sfc)); edge_arrays is lockstep.gather's array copy of
    the edge tables, None until it first converts an edge. clear empties
    the graph back to its root.
    """

    __slots__ = ("network", "catalog", "mode", "neighbor_lists", "latency_rows", "vnf_demand",
                 "sfc_chain", "chain_needs", "nodes", "root_node", "loops", "edge_sfc",
                 "edge_latency", "edge_servers", "edge_arrays")

    def __init__(self, network, catalog, mode: int) -> None:
        if mode not in (GREEDY, FIRST_FIT):
            raise ValueError(f"unknown placement mode {mode!r}")
        self.network = network
        self.catalog = catalog
        self.mode = mode
        self.neighbor_lists = network.neighbor_lists
        self.latency_rows = network.latency_rows
        self.vnf_demand = catalog.vnf_demand
        self.sfc_chain = catalog.sfc_chain
        self.chain_needs = [tuple(catalog.vnf_demand[i] for i in chain)
                            for chain in catalog.sfc_chain]
        self.clear()

    def clear(self) -> None:
        """Drop every node, loop and edge, and start again from a fresh root node.

        Edge ids then start again from 0, so an id handed out before the call
        no longer names its edge.
        """
        residual = self.network.capacities
        self.root_node = (residual, {}, {})
        self.nodes: dict[tuple[int, ...], tuple] = {residual: self.root_node}
        self.loops: dict[tuple[tuple[int, ...], int], tuple] = {}
        self.edge_sfc, self.edge_latency, self.edge_servers = [], [], []
        self.edge_arrays = None

    def commit(self, node: tuple, f: int) -> tuple:
        """Edge (next_node, id) for committing chain f's plan at node, under a new id.

        The next node, when new, and the edge are stored. An edge back onto
        node is stored in loops, and returned from there when f is committed
        at node again.
        """
        latency, assign = node[1][f]
        residual = list(node[0])
        for s, need in zip(assign, self.chain_needs[f]):
            residual[s] -= need
        residual = tuple(residual)
        child = self.nodes.get(residual)
        if child is node:
            edges, key = self.loops, (residual, f)
            edge = edges.get(key)
            if edge is not None:
                return edge
        else:
            edges, key = node[2], f
            if child is None:
                child = self.nodes[residual] = (residual, {}, {})
        edge_sfc = self.edge_sfc
        edge = edges[key] = (child, len(edge_sfc))
        edge_sfc.append(f)
        self.edge_latency.append(latency)
        self.edge_servers.append(assign)
        return edge


def slot_decide(graph, value, gates, bounds, ranked, mu, ids, residuals):
    """One slot's full greedy selection loop, on the plan graph.

    value, gates, bounds and ranked are the slot's selection inputs, lists as
    the module docstring describes them; ranked is consumed. Repeatedly
    plans the not-yet-deployed chains against the current residual, scores
    each edge-feasible plan with
    (value - mu * latency) * gate, that is (omega * q_est - mu * latency) *
    (1 - worst chain failure estimate), and commits the strictly-best
    positive score (ties fall to the smallest SFC id). Stops when nothing
    scores positive. graph.mode selects the placement walk (GREEDY or
    FIRST_FIT); the greedy anchor is model.cheapest_link_anchor of the live
    residual. Appends the committed edge ids to ids, in commit order, and the
    final node's residual tuple to residuals, and returns the number of
    committed chains.

    A round plans only the chains that could still win, and commits what
    planning every chain would commit. A chain's score never exceeds its
    bound (latency and mu are non-negative, and rounding is monotone), so
    the ranked chains are scanned in order, and the scan stops at the first
    bound below the best score so far, or equal to it with a larger id than
    the best chain's. Chains left out of ranked have no positive bound and
    are never planned: they cannot score above 0. A plan is taken on a
    higher score, or on an equal score with a smaller id, so the winner is
    still the smallest id among the best. A plan comes from the current
    node, and is walked only on a miss; the anchor and the sorted pools are
    computed on a round's first miss.
    """
    network = graph.network
    needs = graph.chain_needs
    nbrs = graph.neighbor_lists
    lat = graph.latency_rows
    greedy = graph.mode == GREEDY
    node = graph.root_node
    first = len(ids)
    while ranked:
        residual, plans, edges = node
        pools = None
        best_f = -1
        best_score = 0.0
        for f in ranked:
            bound = bounds[f]
            if bound < best_score or (bound == best_score and f > best_f):
                break       # every later chain is bounded the same way
            plan = plans.get(f)
            if plan is None:
                # looked up as module globals on every call, so they can be wrapped
                if greedy:
                    if pools is None:
                        anchor = cheapest_link_anchor(network, residual)
                        pools = sorted(residual)
                    plan = greedy_chain_walk(residual, pools, needs[f], nbrs, lat, anchor)
                else:
                    plan = first_fit_chain_walk(residual, needs[f], lat)
                plans[f] = plan
            if plan is DEAD_END:
                continue
            score = (value[f] - mu * plan[0]) * gates[f]
            if score > best_score or (score == best_score and f < best_f):
                best_f = f
                best_score = score
        if best_f < 0:
            break
        ranked.remove(best_f)
        edge = edges.get(best_f)
        if edge is None:
            edge = graph.commit(node, best_f)
        node = edge[0]
        ids.append(edge[1])
    residuals.append(node[0])
    return len(ids) - first
