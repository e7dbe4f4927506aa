"""Hot placement and selection kernels, and the plan graph they fill.

The kernels work on Python ints, floats and lists: indexing a numpy array one
element at a time builds a numpy scalar per access, which makes plain Python
several times slower on arrays than on lists.

Selection runs in two parts, inputs and then the scan. selection_inputs
turns one seed's optimistic estimates into the slot's per-chain lists: each
chain's value omega*q, its gate (one minus its worst VNF failure estimate),
its bound value*gate, and the chains worth scanning ranked by bound.
lockstep.selection_rows builds the same lists for many seeds with numpy.
slot_decide is the scan alone: it takes those lists and runs the greedy
rounds on the plan graph, committing one chain per round.

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
graph stores at most NODE_CAP nodes, and no new edge once it holds that many:
past that, new residual states are built and planned for the slot at hand but
not kept, and a commit's id lasts until PlanGraph.trim. This changes the cost
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
or VNF; chains are sequences of VNF ids; ``nbrs[n]`` lists server n's direct
neighbors by ascending latency (EdgeNetwork.neighbor_lists); ``lat[a][b]`` is
the link latency, 0 on the diagonal and +inf where no link exists
(EdgeNetwork.latency_rows). The walks return (latency, assignment), the
assignment a tuple with one server per chain position; a latency of +inf
means the chain does not fit at the edge (cloud verdict).
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

# Most nodes one PlanGraph stores. The bundled instance reaches fewer than a
# hundred residual states in a run; the cap bounds memory on instances whose
# states never repeat.
NODE_CAP = 10_000


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
    residual, which may be a list or a tuple. Returns (latency, assignment), or
    DEAD_END = (+inf, None) when the walk dead-ends.
    """
    total = 0
    for i in chain:
        total += demands[i]
    if residual[anchor] >= total:
        return 0.0, (anchor,) * len(chain)
    k = bisect_left(pools, total)
    if k < len(pools):
        return 0.0, (residual.index(pools[k]),) * len(chain)
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
                return DEAD_END
        assign.append(cur)
        tent[cur] += need
    return latency, tuple(assign)


def first_fit_chain_walk(residual, demands, chain, lat):
    """Pack the chain onto servers in index order with a forward-only pointer.

    Occurrences pile onto the current server until it cannot afford the next
    one, then the pointer advances (never wraps). Returns (latency,
    assignment): DEAD_END = (+inf, None) when the scan runs off the end, and
    latency +inf when the plan crosses a missing link.
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
                return DEAD_END
            if assign:
                latency += lat[assign[-1]][s]
            used = 0
        assign.append(s)
        used += need
    return latency, tuple(assign)


class PlanGraph:
    """The residual states one run's selection loops visit, with their plans.

    nodes maps a residual tuple to its node (residual, plans, edges): plans[f]
    is chain f's walk (latency, assignment) against that residual, and
    edges[f] = (next_node, id) commits f's plan, whose chain, latency and
    assignment are edge_sfc[id], edge_latency[id] and edge_servers[id]. Both
    fill lazily and are never invalidated: walks are pure, and the graph
    belongs to one network, catalog and placement mode (GREEDY or FIRST_FIT).
    The network's neighbor_lists and latency_rows, and the catalog's
    vnf_demand and sfc_chain, are kept as slots, read by slot_decide on every
    call.
    """

    __slots__ = ("network", "catalog", "mode", "neighbor_lists", "latency_rows", "vnf_demand",
                 "sfc_chain", "nodes", "edge_sfc", "edge_latency", "edge_servers", "stored")

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
        self.nodes: dict[tuple[int, ...], tuple] = {}
        self.edge_sfc, self.edge_latency, self.edge_servers = [], [], []
        self.stored = 0

    def node(self, residual: tuple[int, ...]) -> tuple:
        """The node of a residual tuple; a new one is stored while under NODE_CAP."""
        node = self.nodes.get(residual)
        if node is None:
            node = (residual, {}, {})
            if len(self.nodes) < NODE_CAP:
                self.nodes[residual] = node
        return node

    def commit(self, node: tuple, f: int) -> tuple:
        """Edge (next_node, id) for committing chain f's plan at node, under a new id.

        The edge is stored only while the graph holds fewer than NODE_CAP
        nodes, so it never holds on to a node past the cap, and the first
        stored ids are the stored edges'.
        """
        latency, assign = node[1][f]
        demands = self.vnf_demand
        residual = list(node[0])
        for s, i in zip(assign, self.sfc_chain[f]):
            residual[s] -= demands[i]
        edge = (self.node(tuple(residual)), len(self.edge_sfc))
        self.edge_sfc.append(f)
        self.edge_latency.append(latency)
        self.edge_servers.append(assign)
        if len(self.nodes) < NODE_CAP:
            node[2][f] = edge
            self.stored = len(self.edge_sfc)
        return edge

    def trim(self) -> None:
        """Cut the edge tables back to the stored edges, dropping the ids handed out since."""
        for table in self.edge_sfc, self.edge_latency, self.edge_servers:
            del table[self.stored:]


def selection_inputs(catalog, q_est, v_est, omega):
    """One slot's selection inputs from the learners' estimates: (value, gates, bounds, ranked).

    value[f] is omega * q_est[f]; gates[f] is 1 - the worst failure estimate
    of chain f's VNFs, the worst floored at 0.0; bounds[f] is value[f] *
    gates[f], the most chain f can score. ranked lists the chains with a
    positive gate and a positive bound by descending bound, ties by ascending
    id. The first three are lists of floats, one per chain, and ranked a list
    of chain ids that slot_decide consumes. lockstep.selection_rows builds
    the same lists for many seeds at once.
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


def slot_decide(graph, value, gates, bounds, ranked, mu, ids, residuals):
    """One slot's full greedy selection loop, on the plan graph.

    value, gates, bounds and ranked are the slot's selection_inputs; ranked
    is consumed. Repeatedly plans the not-yet-deployed chains against the
    current residual, scores each edge-feasible plan with
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
    demands = graph.vnf_demand
    chains = graph.sfc_chain
    nbrs = graph.neighbor_lists
    lat = graph.latency_rows
    greedy = graph.mode == GREEDY
    node = graph.node(network.capacities)
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
                    plan = greedy_chain_walk(residual, pools, demands, chains[f],
                                             nbrs, lat, anchor)
                else:
                    plan = first_fit_chain_walk(residual, demands, chains[f], lat)
                plans[f] = plan
            latency = plan[0]
            if latency == inf:
                continue
            score = (value[f] - mu * latency) * gates[f]
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
