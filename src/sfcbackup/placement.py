"""Single-chain placement planning against a residual snapshot.

Plans are tentative: nothing here mutates the residual. Committing a plan
(subtracting its demands) is the caller's job, which is what lets a policy
re-plan the remaining chains after every commitment.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .model import Catalog, EdgeNetwork, PlacementPlan, cheapest_link_anchor


def cloud_plan(f: int) -> PlacementPlan:
    return PlacementPlan(sfc=int(f), assignment=(), latency=math.inf, at_edge=False)


def get_consumption(network: EdgeNetwork, catalog: Catalog, residual,
                    f: int) -> PlacementPlan:
    """Plan SFC f's chain with the greedy walk; cloud verdict when it dead-ends.

    The walk starts at the cheapest link's larger-residual endpoint, keeps
    packing the current server while its effective residual lasts, and
    otherwise hops to the cheapest direct neighbor that fits. A chain that
    fits inside any single pool co-locates there outright (latency 0 is
    already optimal).
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
    return PlacementPlan(sfc=int(f), assignment=assign, latency=latency, at_edge=True)

