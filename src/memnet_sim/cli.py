"""Command line entry point.

``memnet-sim`` loads a configuration (JSON file or named preset), applies
flag overrides, runs one scenario and either writes the report bundle to
``--out`` or prints the report JSON to stdout.  Exit status is 0 on
success; 1 on any configuration or runtime error, after a one-line
diagnostic on stderr; and 2 on a usage error, which argparse reports.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import config as cf
from . import harness as h


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="memnet-sim",
        description=(
            "Monte Carlo simulator for a three-node heralded quantum "
            "memory network"
        ),
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--config", metavar="FILE", help="JSON experiment configuration"
    )
    source.add_argument(
        "--preset",
        choices=("ideal", "paper"),
        help="named built-in configuration (default: paper)",
    )
    parser.add_argument(
        "--scenario",
        choices=cf.SCENARIO_IDS,
        help="scenario to run (overrides the configuration)",
    )
    parser.add_argument("--seed", type=int, help="master seed (unsigned)")
    parser.add_argument(
        "--samples", type=int, help="sample budget (see scenario docs)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="recorded in the report meta; changes neither results nor threading",
    )
    parser.add_argument(
        "--out", metavar="DIR", help="output directory for the report bundle"
    )
    return parser


def _load_config(args: argparse.Namespace) -> cf.ExperimentConfig:
    """The config from ``--config`` or ``--preset``, the flags applied in
    its one construction."""
    flags = {name: getattr(args, name) for name in ("scenario", "seed", "samples", "workers")}
    overrides = {k: v for k, v in {**flags, "out_dir": args.out}.items() if v is not None}
    if args.config is None:
        return cf.preset(args.preset or "paper", **overrides)
    return cf.ExperimentConfig.from_json(args.config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        report = h.run_scenario(cfg)
        if cfg.out_dir:
            written = h.emit_report(report, cfg.out_dir)
            for path in written:
                print(path)
        else:
            print(h.report_json(report.payload()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"memnet-sim: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
