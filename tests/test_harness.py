from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sfcbackup import (ConfigError, apply_overrides, default_config_path, emit,
                       load_config, make_ground_truth, run, simulate_run,
                       validate_instance)
from sfcbackup.cli import main
from sfcbackup.harness import CSV_COLUMNS, POLICY_ORDER, parse_policies, parse_seeds


def tiny_config(**extra) -> dict:
    base = {
        "network": {"capacities": [10, 8], "links": [[0, 1, 0.5]]},
        "catalog": {"vnf_demand": [4, 3, 2],
                    "sfc_chain": [[0, 1], [2, 2], [1]]},
        "ground_truth": {"request_prob": [0.8, 0.5, 0.3],
                         "failure_mean": [0.05, 0.1, 0.02]},
        "users": 5,
        "slots": 20,
        "seeds": [1, 2],
        "policies": "all",
        "learner": {"failure_bonus_scale": 1.0, "failure_bonus_sign": -1},
    }
    base.update(extra)
    return base


# --- parsing ----------------------------------------------------------------

def test_parse_seeds_forms() -> None:
    assert parse_seeds(7) == (7,)
    assert parse_seeds("7") == (7,)
    assert parse_seeds("3..6") == (3, 4, 5, 6)
    assert parse_seeds([4, 2]) == (4, 2)
    for bad in ("6..3", "x", [], -1, [0, -2], True, 1.5):
        with pytest.raises(ConfigError):
            parse_seeds(bad)


def test_parse_policies_forms() -> None:
    assert parse_policies("all") == POLICY_ORDER
    assert parse_policies(None) == POLICY_ORDER
    assert parse_policies("rtsd") == ("rtsd",)
    assert parse_policies(["random", "rtsd", "random"]) == ("random", "rtsd")
    with pytest.raises(ConfigError):
        parse_policies("greedy")
    with pytest.raises(ConfigError):
        parse_policies([])


def test_bundled_config_loads_clean() -> None:
    path = default_config_path()
    assert path.exists()
    cfg = load_config(path)
    assert cfg.network.n_servers == 6
    assert cfg.catalog.n_sfcs == 6
    assert cfg.catalog.n_vnfs == 15
    assert cfg.seeds == tuple(range(1, 31))
    assert cfg.policies == POLICY_ORDER
    assert cfg.slots == 500
    assert validate_instance(cfg.network, cfg.catalog) == []


def test_load_config_rejects_broken_inputs(tmp_path: Path) -> None:
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(["not", "a", "dict"])
    with pytest.raises(ConfigError):
        load_config(tiny_config(catalog={"vnf_demand": [1],
                                         "sfc_chain": [[9]]}))
    with pytest.raises(ConfigError):
        load_config(tiny_config(slots=0))
    with pytest.raises(ConfigError):
        load_config(tiny_config(users=0))
    with pytest.raises(ConfigError):
        load_config(tiny_config(capacity_scale=0.0))
    with pytest.raises(ConfigError):
        load_config(tiny_config(ground_truth={"request_prob": [0.5, 0.5, 1.4],
                                              "failure_mean": [0.1, 0.1, 0.1]}))
    with pytest.raises(ConfigError):
        load_config(tiny_config(ground_truth={"request_prob": 0.5,
                                              "failure_mean": [0.1]}))
    with pytest.raises(ConfigError):
        load_config(tiny_config(weights={"omega": -1.0}))


def test_apply_overrides_replaces_and_validates() -> None:
    cfg = load_config(tiny_config())
    out = apply_overrides(cfg, slots=7, seeds="2..3", policy="random",
                          regret=True, capacity_scale=1.5, users=9)
    assert (out.slots, out.seeds, out.policies) == (7, (2, 3), ("random",))
    assert out.regret and out.capacity_scale == 1.5 and out.users == 9
    # untouched fields survive
    assert out.network is cfg.network and out.catalog is cfg.catalog
    assert apply_overrides(cfg) is cfg
    with pytest.raises(ConfigError):
        apply_overrides(cfg, slots=0)
    with pytest.raises(ConfigError):
        apply_overrides(cfg, policy="nope")


# --- simulation bookkeeping --------------------------------------------------

def test_simulate_run_shapes_and_determinism() -> None:
    cfg = load_config(tiny_config())
    gt = make_ground_truth(cfg.request_prob, cfg.failure_mean, cfg.users,
                           cfg.catalog.n_sfcs, 3)
    kw = dict(users=cfg.users, failure_bonus_scale=1.0, failure_bonus_sign=-1)
    for policy in POLICY_ORDER:
        a = simulate_run(cfg.network, cfg.catalog, gt, cfg.weights, policy,
                         25, **kw)
        b = simulate_run(cfg.network, cfg.catalog, gt, cfg.weights, policy,
                         25, **kw)
        for key in ("realized", "expected", "remaining", "deployed"):
            assert a[key].shape == (25,)
            assert np.array_equal(a[key], b[key])
        assert np.all(a["remaining"] >= 0)
        assert np.all(a["deployed"] >= 0)
    with pytest.raises(ValueError):
        simulate_run(cfg.network, cfg.catalog, gt, cfg.weights, "nope", 5,
                     users=cfg.users)


def test_run_emits_one_row_per_policy_seed_slot() -> None:
    cfg = load_config(tiny_config())
    result = run(cfg)
    assert len(result.rows) == len(cfg.policies) * len(cfg.seeds) * cfg.slots
    keys = {(r.policy, r.seed, r.t) for r in result.rows}
    assert len(keys) == len(result.rows)
    assert all(1 <= r.t <= cfg.slots for r in result.rows)
    assert all(r.oracle_value is None and r.regret is None for r in result.rows)
    pol = result.summary["policies"]
    assert set(pol) == set(cfg.policies)
    for stats in pol.values():
        assert stats["time_avg_realized"]["std"] >= 0.0
    assert result.summary["total_capacity"] == 18


def test_run_with_regret_attaches_nonnegative_regret() -> None:
    cfg = apply_overrides(load_config(tiny_config(slots=15, seeds=[4])),
                          regret=True)
    result = run(cfg)
    oracle = result.summary["oracle_value"]
    assert oracle is not None and oracle > 0.0
    for row in result.rows:
        assert row.oracle_value == oracle
        assert row.regret == pytest.approx(oracle - row.expected_reward)
        assert row.regret >= -1e-9


def test_capacity_scale_shrinks_the_run_network() -> None:
    cfg = load_config(tiny_config(capacity_scale=0.5, seeds=[1],
                                  policies="rtsd"))
    result = run(cfg)
    assert result.summary["total_capacity"] == 9
    assert all(r.remaining_resource <= 9 for r in result.rows)


# --- emission ----------------------------------------------------------------

def test_emit_csv_round_trip(tmp_path: Path) -> None:
    cfg = load_config(tiny_config(slots=6, seeds=[1]))
    result = run(cfg)
    paths = emit(result, tmp_path, "both")
    names = {p.name for p in paths}
    assert names == {"trace.csv", "trace.jsonl", "summary.json"}

    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(result.rows)
    first = dict(zip(CSV_COLUMNS, rows[1]))
    assert first["t"] == "1"
    assert first["policy"] == result.rows[0].policy
    assert float(first["realized_reward"]) == result.rows[0].realized_reward
    assert first["oracle_value"] == "" and first["regret"] == ""

    with open(tmp_path / "trace.jsonl") as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == len(result.rows)
    assert lines[0]["num_deployed"] == result.rows[0].num_deployed

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["policies"].keys() == result.summary["policies"].keys()

    with pytest.raises(ConfigError):
        emit(result, tmp_path, "xml")


def test_emit_is_byte_stable(tmp_path: Path) -> None:
    cfg = load_config(tiny_config(slots=8, seeds=[2], policies=["rtsd"]))
    emit(run(cfg), tmp_path / "a", "both")
    emit(run(cfg), tmp_path / "b", "both")
    for name in ("trace.csv", "trace.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


# sha256 of trace.csv from ``sfcbackup --slots 60 --seed 1..3`` (bundled config,
# all policies). A refactor must keep it; a change that alters decisions or
# sampling on purpose updates it and says so in CHANGES.md.
GOLDEN_TRACE_SHA256 = "95a36751ef117341cbbe3276549db739fdb624fb5d94f46002b4ade3dbb64832"


def test_golden_trace_digest(tmp_path: Path) -> None:
    cfg = apply_overrides(load_config(default_config_path()), slots=60,
                          seeds="1..3", policy="all")
    assert cfg.policies == POLICY_ORDER
    emit(run(cfg), tmp_path, "csv")
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256


# --- command line ------------------------------------------------------------

def write_config(tmp_path: Path, **extra) -> Path:
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(tiny_config(**extra)))
    return path


def test_cli_happy_path(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    cfg_path = write_config(tmp_path, slots=5, seeds=[1])
    out_dir = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--out", str(out_dir),
                 "--format", "both"])
    assert code == 0
    assert (out_dir / "trace.csv").exists()
    assert (out_dir / "trace.jsonl").exists()
    assert (out_dir / "summary.json").exists()
    text = capsys.readouterr().out
    for policy in POLICY_ORDER:
        assert policy in text
    assert "wrote" in text


def test_cli_overrides_reach_the_run(tmp_path: Path,
                                     capsys: pytest.CaptureFixture) -> None:
    cfg_path = write_config(tmp_path, slots=40)
    out_dir = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--out", str(out_dir),
                 "--slots", "4", "--seed", "5..6", "--policy", "rtsd",
                 "--regret"])
    assert code == 0
    capsys.readouterr()
    with open(out_dir / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r["policy"] for r in rows} == {"rtsd"}
    assert {r["seed"] for r in rows} == {"5", "6"}
    assert all(float(r["regret"]) >= -1e-9 for r in rows)


def test_cli_missing_config_fails_cleanly(tmp_path: Path,
                                          capsys: pytest.CaptureFixture) -> None:
    code = main(["--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_unknown_policy_flag(tmp_path: Path) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["--policy", "greedy", "--out", str(tmp_path)])
    assert exc.value.code == 2
