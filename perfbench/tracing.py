"""Span tracing of the package's public functions, from outside the package.

The tracer replaces module attributes with wrappers at the places where the
package calls them (``sfcbackup.harness.sample_slot``, the name the slot loop
looks up, rather than ``sfcbackup.workload.sample_slot``). Each call records a
span: layer name, start, end and the span it ran under. Self time is a span's
duration minus the time covered by its child spans. A wrapped function that no
longer exists is reported as an absent layer and the run goes on without it,
as is a layer whose counters no longer fit the call's arguments or result, and
a function that a pass must reach but that was never called through its
wrapped name (see Tracer.check_reached).
"""

from __future__ import annotations

import importlib
import time
from collections import Counter


def _always(cfg) -> bool:
    return True


def _setup_only(cfg) -> bool:
    return False


def _regret(cfg) -> bool:
    return bool(cfg.regret)


def _policy(*names):
    return lambda cfg: any(name in cfg.policies for name in names)


_LEARNED = _policy("rtsd", "bandit")

# (module, attribute, layer, needed): several functions may share one layer.
# needed(cfg) says whether a pass of cfg must call the function.
WRAPPED = (
    ("harness", "load_config", "harness.load_config", _setup_only),
    ("harness", "run", "harness.run", _always),
    ("harness", "emit", "harness.emit", _always),
    ("harness", "simulate_run", "harness.simulate_run", _always),
    ("harness", "make_ground_truth", "workload.make_ground_truth", _always),
    ("harness", "optimal_slot_value", "oracle.optimal_slot_value", _regret),
    ("harness", "sample_slot", "workload.sample_slot", _always),
    ("harness", "slot_stream", "workload.slot_stream", _policy("random")),
    ("workload", "slot_stream", "workload.slot_stream", _always),
    ("harness", "rtsd_slot", "policy.decide", _policy("rtsd")),
    ("harness", "bandit_scheme_slot", "policy.decide", _policy("bandit")),
    ("harness", "random_scheme_slot", "policy.random_scheme_slot", _policy("random")),
    ("harness", "realized_reward", "policy.realized_reward", _always),
    ("harness", "expected_slot_value", "policy.expected_slot_value", _always),
    ("policy", "popularity_estimate", "learning.estimate", _LEARNED),
    ("policy", "failure_estimate", "learning.estimate", _LEARNED),
    ("policy", "popularity_update", "learning.update", _LEARNED),
    ("policy", "failure_update", "learning.update", _LEARNED),
    ("policy", "verify_decision", "policy.verify_decision", _always),
    ("kernels", "slot_decide", "kernels.slot_decide", _LEARNED),
)

# (module, attribute, counter, needed): calls are counted, not timed. The chain
# walks run inside slot_decide, tens of times per call, so spans would swamp
# them. With numba the jitted slot_decide calls the walks directly, so they
# are never called through these names and check_reached reports them absent.
COUNTED = (
    ("kernels", "greedy_chain_walk", "kernels.walks", _policy("rtsd")),
    ("kernels", "first_fit_chain_walk", "kernels.walks", _policy("bandit")),
)


def _count_committed(counts, args, result):
    counts["kernels.committed"] += int(result)


def _count_random(counts, args, result):
    counts["policy.random.attempted"] += args[1].n_sfcs     # each chain is tried once a slot
    counts["policy.random.deployed"] += len(result.deployed)


def _count_bytes(counts, args, result):
    counts["harness.emit.bytes"] += sum(path.stat().st_size for path in result)


# Counters read off a wrapped call's arguments and result.
RESULT_HOOKS = {
    "kernels.slot_decide": _count_committed,
    "policy.random_scheme_slot": _count_random,
    "harness.emit": _count_bytes,
}


class Tracer:
    """Records spans and counts while installed; use as a context manager."""

    def __init__(self, package):
        self.package = package
        # "module.attribute" of functions not found, and layers whose counters failed
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._needed: list[tuple[str, object]] = []     # (site, needed) of the last install
        self.calls: Counter = Counter()                 # calls per site, "module.attribute"
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers keep recording."""
        for record in (self.layers, self.starts, self.ends, self.parents, self._stack):
            record.clear()
        self.counts.clear()
        self.calls.clear()

    def _lookup(self, module_name: str, attr: str):
        try:
            module = importlib.import_module(f"{self.package.__name__}.{module_name}")
        except ModuleNotFoundError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
        return module, fn

    def install(self) -> None:
        self.absent.clear()
        self._needed.clear()
        for module_name, attr, layer, needed in WRAPPED:
            self._wrap(module_name, attr, needed,
                       lambda site, fn: self._span(site, layer, fn, RESULT_HOOKS.get(layer)))
        for module_name, attr, counter, needed in COUNTED:
            self._wrap(module_name, attr, needed,
                       lambda site, fn: self._counter(site, counter, fn))

    def _wrap(self, module_name, attr, needed, make) -> None:
        module, fn = self._lookup(module_name, attr)
        if fn is not None:
            site = f"{module_name}.{attr}"
            self._saved.append((module, attr, fn))
            self._needed.append((site, needed))
            setattr(module, attr, make(site, fn))

    def check_reached(self, cfg) -> None:
        """Report as absent each installed function a pass of cfg needs but never called.

        A function the package still has but no longer calls by the wrapped
        name (bound into a table before install, or called from jitted code)
        would otherwise read as 0 calls and 0 us, like a layer made free.
        """
        for site, needed in self._needed:
            entry = f"{site}: not called"
            if needed(cfg) and not self.calls[site] and entry not in self.absent:
                self.absent.append(entry)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _span(self, site, layer, fn, hook):
        layers, starts, ends = self.layers, self.starts, self.ends
        parents, stack, counts, absent = self.parents, self._stack, self.counts, self.absent
        calls = self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[site] += 1
            idx = len(layers)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None and layer not in absent:
                try:
                    hook(counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    absent.append(layer)        # the call's shape changed; drop its counters
            return result

        return traced

    def _counter(self, site, name, fn):
        counts, calls = self.counts, self.calls

        def counted(*args, **kwargs):
            calls[site] += 1
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds, and self seconds (total minus child spans)."""
        n = len(self.layers)
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += self.ends[i] - self.starts[i]
        totals: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            entry = totals.setdefault(self.layers[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child[i]
        return totals
