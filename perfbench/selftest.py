"""Self-test of the benchmark: every workload at a tiny size, in both modes.

    python3 perfbench/selftest.py

Checks that:
- the metric names and units each mode prints match BENCHMARK.json;
- traced and untraced passes write the same trace.csv, so tracing changes
  no behaviour;
- a wrapped function the package no longer has, or no longer calls by the
  wrapped name, yields an absent layer, not a crash or a layer reading 0;
- without the package source the benchmark exits non-zero and prints no
  result.

Exits non-zero when a check fails.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads


def bench(*args, cwd=run.ROOT, script=Path(run.__file__)) -> tuple[int, list[str]]:
    out = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                         text=True, timeout=300)
    return out.returncode, out.stdout.splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def check_workloads(declared: dict, failures: list[str]) -> None:
    for name in workloads.WORKLOADS:
        digests = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench("--workload", name, "--seed", "1", "--seconds", "0",
                                "--trace", str(trace), "--tiny")
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                failures.append(f"{name} --trace {trace}: exit {code}, result {result}")
                continue
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[section]:
                failures.append(f"{name} --trace {trace}: metrics {printed} "
                                f"differ from BENCHMARK.json {section} {declared[section]}")
            digests[trace] = next(line.split()[1] for line in lines
                                  if line.startswith("trace_sha256"))
        if len(set(digests.values())) != 1 or "inconsistent" in digests.values():
            failures.append(f"{name}: trace.csv digests differ with tracing: {digests}")
        print(f"{name}: checked both modes, trace_sha256 {digests}")


def traced_tiny_pass(package, policies, tamper=lambda harness: None):
    """One tiny canonical pass under the tracer; tamper(harness) runs once it is installed."""
    harness = package.harness
    cfg = harness.apply_overrides(workloads.build(package, "canonical", 1, tiny=True),
                                  policy=policies)
    out_dir = run.RUNS_DIR / "selftest-absent"
    m = run.Measurement(package, cfg, out_dir)
    tracer = tracing.Tracer(package)
    try:
        with tracer:
            tamper(harness)
            wall = m.full_pass()
        tracer.check_reached(cfg)
        metrics = run.layer_metrics(tracer, wall) if wall is not None else {}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return wall, m.problems, tracer.absent, metrics


def check_absent_layers(failures: list[str]) -> None:
    """A wrapped function that is gone, or no longer called by its name, is an absent layer."""
    package = run.import_package()
    harness = package.harness
    # Removed, as folding bandit_scheme_slot into rtsd_slot would do.
    saved = harness.bandit_scheme_slot
    del harness.bandit_scheme_slot
    try:
        wall, problems, absent, metrics = traced_tiny_pass(package, ["rtsd", "random"])
    finally:
        harness.bandit_scheme_slot = saved
    if wall is None or problems or absent != ["harness.bandit_scheme_slot"] \
            or metrics.get("trace.absent_layers") != 1:
        failures.append(f"removed layer: wall {wall}, problems {problems}, absent {absent}")
    print(f"removed layer: reported {absent}, pass completed: {wall is not None}")
    # Bypassed, as a dispatch table bound at import would do: the pass calls
    # the rtsd_slot it held before the tracer was installed.
    table = {"rtsd": harness.rtsd_slot}
    wall, problems, absent, metrics = traced_tiny_pass(
        package, "all", lambda h: setattr(h, "rtsd_slot", table["rtsd"]))
    if wall is None or problems or absent != ["harness.rtsd_slot: not called"] \
            or metrics.get("trace.absent_layers") != 1:
        failures.append(f"bypassed layer: wall {wall}, problems {problems}, absent {absent}")
    print(f"bypassed layer: reported {absent}, pass completed: {wall is not None}")


def check_bare_directory(failures: list[str]) -> None:
    """Only BENCHMARK.json and the benchmark's files: no package, so no result."""
    bare = run.RUNS_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("_runs", "__pycache__"))
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare)
        code, lines = bench("--workload", "canonical", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare,
                            script=bare / run.HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or result_of(lines) is not None:
        failures.append(f"bare directory: exit {code} with output {lines}")
    print(f"bare directory: exit {code}, no result printed")


def main() -> int:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {section: {m["name"]: m["unit"] for m in doc[section]}
                for section in ("end_to_end", "per_layer")}
    failures: list[str] = []
    if [w["name"] for w in doc["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    check_workloads(declared, failures)
    check_absent_layers(failures)
    check_bare_directory(failures)
    with contextlib.suppress(OSError):
        run.RUNS_DIR.rmdir()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
