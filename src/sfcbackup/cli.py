"""Command-line entry point."""

from __future__ import annotations

import argparse
import sys

from .harness import (SETTINGS, ConfigError, apply_overrides, default_config_path, emit,
                      load_config, run)
from .oracle import SearchSpaceTooLarge


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfcbackup",
        description="Simulate SFC backup policies on a capacity-constrained "
                    "edge network and write per-slot traces.")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment config (default: bundled six-server testbed)")
    for setting in SETTINGS:
        if setting.flag:
            parser.add_argument(setting.flag, dest=setting.keyword, **setting.cli)
    parser.add_argument("--out", default="runs", metavar="DIR",
                        help="output directory (default: runs)")
    parser.add_argument("--format", choices=["csv", "jsonl", "both"], default="csv",
                        help="trace file format (default: csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config if args.config else default_config_path())
        cfg = apply_overrides(cfg, **{setting.keyword: getattr(args, setting.keyword)
                                      for setting in SETTINGS if setting.flag})
        result = run(cfg)
        written = emit(result, args.out, args.format)
    except (ConfigError, SearchSpaceTooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for policy, stats in result.summary["policies"].items():
        avg = stats["time_avg_realized"]
        print(f"{policy:>6}: time-avg reward {avg['mean']:.3f} "
              f"(std {avg['std']:.3f} over {len(cfg.seeds)} seeds), "
              f"mean deployed {stats['mean_deployed']['mean']:.2f}")
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
