"""Benchmark of the sfcbackup simulator: host time per slot decision, end to end and per layer.

    python3 perfbench/run.py --workload canonical --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

One invocation measures one workload (see workloads.py) and prints a table,
then one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, from untraced passes; with
--trace 1 they are the per-layer ones, from passes under the span tracer in
tracing.py. ``--workload all`` runs every workload in a fresh process each and
prints one table. The exit code is non-zero when a correctness check fails or
the package source is missing.

A full pass is ``harness.run`` plus ``harness.emit`` of the whole workload; a
policy pass is ``harness.run`` of one policy alone. After every full pass the
written trace.csv and summary.json are checked, and all full passes of one
invocation must write the same trace.csv bytes. A pass that raises is counted
as failed, with all of its slot decisions, and the benchmark goes on.

End-to-end metrics:
- setup_s: a fresh interpreter imports the package, loads and validates the
  config and builds the ground truth of every simulator seed.
- wall_ref: one full pass, in reference loops (reference.py).
- decisions_per_ref.<policy>: (seed, slot) decisions of a policy pass per
  reference loop.
- peak_rss_mb: the process's peak resident set; each workload runs in its own
  process.
The reference loop is timed between passes, and each pass is divided by the
mean of the loops on either side of it: on a shared host the raw seconds
drift by a quarter from one run to the next, the ratio by a few percent. The
raw seconds (wall_s, decisions_per_s.<policy>) are printed too, ungated.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = HERE / "_runs"

# name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "decisions_per_ref.rtsd": "1/ref",
    "decisions_per_ref.bandit": "1/ref",
    "decisions_per_ref.random": "1/ref",
    "peak_rss_mb": "MB",
}

RAW_UNITS = {
    "reference_s": "s",
    "wall_s": "s",
    "decisions_per_s.rtsd": "1/s",
    "decisions_per_s.bandit": "1/s",
    "decisions_per_s.random": "1/s",
}

PER_LAYER = {
    "workload.sample_slot.calls": "count",
    "workload.sample_slot.us": "us",
    "workload.slot_stream.calls": "count",
    "workload.slot_stream.us": "us",
    "learning.estimate.calls": "count",
    "learning.estimate.us": "us",
    "learning.update.calls": "count",
    "learning.update.us": "us",
    "kernels.slot_decide.calls": "count",
    "kernels.slot_decide.us": "us",
    "kernels.walks": "count",
    "kernels.walks_per_decide": "count",
    "kernels.commit_ratio": "ratio",
    "policy.decide.calls": "count",
    "policy.decide_self.us": "us",
    "policy.verify_decision.calls": "count",
    "policy.verify_decision.us": "us",
    "policy.realized_reward.us": "us",
    "policy.expected_slot_value.us": "us",
    "policy.random_scheme_slot.us": "us",
    "policy.random.attempted": "count",
    "policy.random.deploy_ratio": "ratio",
    "oracle.optimal_slot_value.calls": "count",
    "oracle.optimal_slot_value.s": "s",
    "harness.simulate_run.self_us_per_slot": "us",
    "harness.run.self_s": "s",
    "harness.emit.s": "s",
    "harness.emit.bytes": "bytes",
    "harness.load_config.s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.absent_layers": "count",
}


def import_package():
    """Import sfcbackup from this checkout's src/, never from an installed copy."""
    if not (SRC / "sfcbackup" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {SRC / 'sfcbackup'}")
    sys.path.insert(0, str(SRC))
    import sfcbackup
    return sfcbackup


def git_commit() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository's commit.
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(package, args) -> dict:
    import numpy
    return {
        "numba_enabled": bool(package.kernels.NUMBA_ENABLED),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wide_edge_instance_seed": workloads.WIDE_EDGE_INSTANCE_SEED,
    }


def decisions(cfg) -> int:
    """(policy, seed, slot) decisions one run of cfg makes."""
    return len(cfg.policies) * len(cfg.seeds) * cfg.slots


class Measurement:
    """What one invocation saw: failures, correctness problems, and per-pass samples."""

    def __init__(self, package, cfg, out_dir: Path):
        self.package = package
        self.cfg = cfg
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self.digests: set[str] = set()
        self.rewards: dict[str, float] = {}

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def attempt(self, fn, n_decisions: int):
        """Run fn, counting its decisions; a raise marks them failed and returns None.

        Garbage from earlier passes is collected first, so that no pass pays
        for another's objects.
        """
        self.attempted += n_decisions
        gc.collect()
        try:
            return fn()
        except Exception:  # a failed pass is accounted for, never fatal
            self.failed += n_decisions
            print(traceback.format_exc(), file=sys.stderr, end="")
            return None

    def full_pass(self) -> float | None:
        """harness.run plus harness.emit of the whole workload; wall seconds, or None."""
        harness = self.package.harness

        def go():
            t0 = time.perf_counter()
            result = harness.run(self.cfg)
            harness.emit(result, self.out_dir, fmt="csv")
            return time.perf_counter() - t0

        self.passes += 1
        wall = self.attempt(go, decisions(self.cfg))
        if wall is not None:
            self.check_outputs()
        return wall

    def policy_pass(self, policy: str) -> float | None:
        """harness.run of one policy alone; decisions per second, or None."""
        cfg = self.package.harness.apply_overrides(self.cfg, policy=policy)

        def go():
            t0 = time.perf_counter()
            result = self.package.harness.run(cfg)
            return time.perf_counter() - t0, result

        out = self.attempt(go, decisions(cfg))
        if out is None:
            return None
        elapsed, result = out
        # Observations depend only on (seed, slot), so a policy run alone must
        # aggregate exactly as it did next to the others.
        alone = result.summary["policies"][policy]["time_avg_realized"]["mean"]
        if policy in self.rewards and alone != self.rewards[policy]:
            self.problem(f"{policy} alone earned {alone!r}, "
                         f"{self.rewards[policy]!r} in the full run")
        return decisions(cfg) / elapsed

    def check_outputs(self) -> None:
        """Correctness gate on the trace.csv and summary.json the last pass wrote."""
        cfg = self.cfg
        trace_path = self.out_dir / "trace.csv"
        data = trace_path.read_bytes()
        self.digests.add(hashlib.sha256(data).hexdigest())
        if len(self.digests) > 1:
            self.problem("trace.csv differs between passes of one invocation")
        rows = list(csv.DictReader(data.decode("utf-8").splitlines()))
        want = decisions(cfg)
        if len(rows) != want:
            self.problem(f"trace has {len(rows)} rows, want {want}")
        capacity = sum(cfg.network.scaled(cfg.capacity_scale).capacities)
        n_sfcs = cfg.catalog.n_sfcs
        for row in rows:
            if not 0 <= int(row["remaining_resource"]) <= capacity:
                self.problem(f"remaining_resource {row['remaining_resource']} "
                             f"outside [0, {capacity}]")
                break
            if not 0 <= int(row["num_deployed"]) <= n_sfcs:
                self.problem(f"num_deployed {row['num_deployed']} exceeds {n_sfcs} chains")
                break
            if cfg.regret and float(row["regret"]) < -1e-9:
                self.problem(f"regret {row['regret']} < -1e-9")
                break
        summary = json.loads((self.out_dir / "summary.json").read_text(encoding="utf-8"))
        self.rewards = {p: s["time_avg_realized"]["mean"]
                        for p, s in summary["policies"].items()}
        if self.rewards["rtsd"] < self.rewards["random"]:
            self.problem(f"rtsd earned {self.rewards['rtsd']:.4f} < "
                         f"random {self.rewards['random']:.4f}")

    @property
    def digest(self) -> str:
        return next(iter(self.digests)) if len(self.digests) == 1 else "inconsistent"


class NoResult(Exception):
    """No measured pass completed, so there is no metric to report."""


def median(values: list[float]) -> float:
    if not values:
        raise NoResult("no measured pass completed, so there is nothing to report")
    return statistics.median(values)


def setup_probe(name: str, seed: int, tiny: bool) -> float:
    """Seconds to import the package, load and validate the config, and build the ground truth."""
    t0 = time.perf_counter()
    package = import_package()
    cfg = workloads.build(package, name, seed, tiny)
    workloads.ground_truths(package, cfg)
    return time.perf_counter() - t0


def measure_setup(name: str, seed: int, tiny: bool) -> float:
    """Set-up time in a fresh interpreter, so the import is paid in full."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def measure_end_to_end(package, m: Measurement, args) -> tuple[dict, dict]:
    """Untraced passes, repeated for --seconds after one warm-up; medians per metric.

    Each round takes one set-up sample, one full pass and one pass per policy,
    with a reference loop between passes, so every metric samples the host's
    load over the whole run. Returns the end-to-end metrics and the
    raw seconds behind them.
    """
    import reference        # imports numpy, which the set-up probe must not find loaded

    setup: list[float] = []
    refs: list[float] = []
    walls: list[tuple[float, float]] = []           # (seconds, reference seconds)
    rates: dict[str, list[tuple[float, float]]] = {p: [] for p in m.cfg.policies}
    m.full_pass()                                   # warm-up: caches, lazy set-up
    reference.seconds()
    deadline = time.perf_counter() + args.seconds
    while True:
        setup.append(measure_setup(args.workload, args.seed, args.tiny))
        before = reference.seconds()
        for policy in (None, *m.cfg.policies):
            value = m.full_pass() if policy is None else m.policy_pass(policy)
            after = reference.seconds()
            ref = (before + after) / 2                # the host's speed around this pass
            refs.append(after)
            before = after
            if value is None:
                continue
            if policy is None:
                walls.append((value, ref))
            else:
                rates[policy].append((value, ref))
        if time.perf_counter() >= deadline:
            break
    metrics = {"setup_s": median(setup),
               "wall_ref": median([w / r for w, r in walls])}
    raw = {"reference_s": median(refs), "wall_s": median([w for w, _ in walls])}
    for policy, samples in rates.items():
        metrics[f"decisions_per_ref.{policy}"] = median([d * r for d, r in samples])
        raw[f"decisions_per_s.{policy}"] = median([d for d, _ in samples])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, raw


# Layers whose self time is orchestration between the named leaf layers. It
# counts as unattributed, together with the time outside the top-level spans.
GLUE_LAYERS = ("harness.run", "harness.simulate_run", "policy.decide")


def layer_metrics(tracer: tracing.Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(layer):
        return totals.get(layer, {}).get("calls", 0)

    def self_s(layer):
        return totals.get(layer, {}).get("self_s", 0.0)

    def us(layer):
        return 1e6 * self_s(layer) / calls(layer) if calls(layer) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    walks = counts["kernels.walks"]
    out = {}
    for layer in ("workload.sample_slot", "workload.slot_stream", "learning.estimate",
                  "learning.update", "kernels.slot_decide", "policy.verify_decision"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.us"] = us(layer)
    out.update({
        "kernels.walks": walks,
        "kernels.walks_per_decide": ratio(walks, calls("kernels.slot_decide")),
        "kernels.commit_ratio": ratio(counts["kernels.committed"], walks),
        "policy.decide.calls": calls("policy.decide"),
        "policy.decide_self.us": us("policy.decide"),
        "policy.realized_reward.us": us("policy.realized_reward"),
        "policy.expected_slot_value.us": us("policy.expected_slot_value"),
        "policy.random_scheme_slot.us": us("policy.random_scheme_slot"),
        "policy.random.attempted": counts["policy.random.attempted"],
        "policy.random.deploy_ratio": ratio(counts["policy.random.deployed"],
                                            counts["policy.random.attempted"]),
        "oracle.optimal_slot_value.calls": calls("oracle.optimal_slot_value"),
        "oracle.optimal_slot_value.s": ratio(self_s("oracle.optimal_slot_value"),
                                             calls("oracle.optimal_slot_value")),
        "harness.simulate_run.self_us_per_slot": 1e6 * ratio(
            self_s("harness.simulate_run"),
            calls("policy.decide") + calls("policy.random_scheme_slot")),
        "harness.run.self_s": self_s("harness.run"),
        "harness.emit.s": totals.get("harness.emit", {}).get("total_s", 0.0),
        "harness.emit.bytes": counts["harness.emit.bytes"],
        "trace.unattributed_s": wall - sum(t["self_s"] for layer, t in totals.items()
                                           if layer not in GLUE_LAYERS),
        "trace.absent_layers": len(tracer.absent),
    })
    return out


def measure_layers(package, m: Measurement, args, tracer: tracing.Tracer) -> dict[str, float]:
    """Traced passes alternating with untraced ones for --seconds; medians per metric."""
    loads = []
    for _ in range(5):
        with tracer:
            workloads.build(package, args.workload, args.seed, tiny=args.tiny)
        loads.append(tracer.layer_totals().get("harness.load_config", {}).get("total_s", 0.0))
        tracer.reset()
    untraced: list[float] = []
    traced: list[dict[str, float]] = []
    m.full_pass()                                   # warm-up
    deadline = time.perf_counter() + args.seconds
    while True:
        wall = m.full_pass()
        if wall is not None:
            untraced.append(wall)
        tracer.reset()
        with tracer:
            wall = m.full_pass()
        tracer.check_reached(m.cfg)
        if wall is not None:
            traced.append({**layer_metrics(tracer, wall), "wall": wall})
        if time.perf_counter() >= deadline:
            break
    traced_wall = median([t["wall"] for t in traced])
    metrics = {name: median([t[name] for t in traced]) for name in traced[0] if name in PER_LAYER}
    metrics["harness.load_config.s"] = median(loads)
    metrics["trace.overhead_frac"] = traced_wall / median(untraced)
    return {name: metrics[name] for name in PER_LAYER}


def run_one(args) -> int:
    package = import_package()
    cfg = workloads.build(package, args.workload, args.seed, tiny=args.tiny)
    out_dir = RUNS_DIR / f"{args.workload}-{os.getpid()}"
    m = Measurement(package, cfg, out_dir)
    tracer = tracing.Tracer(package)
    try:
        if args.trace:
            metrics, raw = measure_layers(package, m, args, tracer), {}
        else:
            metrics, raw = measure_end_to_end(package, m, args)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):      # another run may still be using it
            RUNS_DIR.rmdir()
    units = PER_LAYER if args.trace else END_TO_END
    correct = not m.problems and m.failed == 0
    print("manifest " + json.dumps(manifest(package, args)))
    print(f"trace_sha256 {m.digest}")
    print("time_avg_reward " + " ".join(f"{p}={r:.4f}" for p, r in m.rewards.items()))
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    for name, value in raw.items():
        print(f"{name:<40} {value:>16.6g} {RAW_UNITS[name]}  (raw, not gated)")
    print(f"full passes {m.passes}, failed_ops_frac {m.failed}/{m.attempted} = "
          f"{m.failed / m.attempted:.6g}")
    if args.trace:
        print("absent layers: " + (", ".join(tracer.absent) or "none"))
    for problem in m.problems:
        print(f"correctness: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": m.attempted, "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process), then one table."""
    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode != 0:
            status = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {out.returncode})")
            status = 1
            continue
        for line in lines[:-1]:
            if line.startswith(("manifest", "trace_sha256", "time_avg_reward",
                                "full passes", "absent", "reference_s", "wall_s",
                                "decisions_per_s", "correctness")):
                print(f"{name}: {line}")
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "correct", float(result["correct"]), "bool"))
    print(f"\n{'workload':<14} {'metric':<40} {'value':>16} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<40} {value:>16.6g} {unit}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; picks the simulator seeds (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to repeat measured passes (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from traced passes")
    parser.add_argument("--tiny", action="store_true",
                        help="one simulator seed and a few slots, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.tiny))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
