"""A fixed reference computation that shows how fast the host runs right now.

On a shared host the same pass can take 20-30% longer for minutes at a time,
while CPU time tracks wall time, so repetition does not average it out. The
benchmark times this loop between measured passes and reports each pass in
units of it: a pass that costs 7.5 reference loops costs about that
many whether the host is busy or idle. The loop does what the simulator does
in a slot, on a small scale: interpreter work on ints and lists, a dict, and
small numpy calls. It uses nothing from the package, so a change to the
package moves the pass and not the reference. Changing this loop changes
every normalised figure.
"""

from __future__ import annotations

import time

import numpy as np

ITERATIONS = 2000


def work() -> float:
    rng = np.random.default_rng(0)
    pools = np.arange(16, dtype=np.int64)
    tally: dict[int, int] = {}
    acc = 0.0
    for i in range(ITERATIONS):
        draws = rng.random(8)
        need = int((draws < 0.5).sum())
        pools[i % 16] += need
        best = -1
        for k in range(16):
            if pools[k] > need and (best < 0 or pools[k] < pools[best]):
                best = k
        tally[i % 97] = tally.get(i % 97, 0) + best
        acc += float(draws.max())
    return acc


def seconds() -> float:
    """Wall seconds of one reference loop."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
