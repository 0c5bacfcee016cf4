"""Command-line front end for the batch pipeline.

Subcommands: gen-data, train, sweep, validate. Every setting comes from
one JSON file mirroring PipelineConfig (`--config`; a missing key takes
its default, no file means every default); the flags name only paths
(`--out`, `--data`, `--model`) and the validation mode
(`--oracle-passthrough`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .pipeline import PipelineConfig, cmd_gen_data, cmd_sweep, cmd_train, cmd_validate


def _load_config(args) -> PipelineConfig:
    """The config in the --config file, or the defaults, with --out as its
    output directory when given."""
    cfg = PipelineConfig.from_json(Path(args.config)) if args.config else PipelineConfig()
    return replace(cfg, output_dir=args.out) if args.out else cfg


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="throttleid",
        description="Sparse identification pipeline for throttleable engine dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [("gen-data", "generate the excitation corpus and plant responses"),
                      ("train", "fit the coefficient model on a generated corpus"),
                      ("sweep", "cross-validated history and mu sweeps"),
                      ("validate", "run the fixed validation suite")]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="pipeline config JSON (default: every default)")
        p.add_argument("--out", help="output directory (default: the config's output_dir)")
        if name in ("train", "sweep"):
            p.add_argument("--data", help="directory holding gen-data outputs")
        if name == "validate":
            source = p.add_mutually_exclusive_group()
            source.add_argument("--model", help="model JSON path (default <out>/model.json)")
            source.add_argument("--oracle-passthrough", action="store_true",
                                help="replay the plant against itself (harness self-check)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "gen-data":
            cmd_gen_data(cfg)
        elif args.command == "train":
            cmd_train(cfg, data_dir=args.data)
        elif args.command == "sweep":
            cmd_sweep(cfg, data_dir=args.data)
        elif args.command == "validate":
            cmd_validate(cfg, model_path=args.model,
                         oracle_passthrough=args.oracle_passthrough)
    except Exception as err:  # structured machine-readable failure summary
        print(json.dumps({"error": str(err), "type": type(err).__name__,
                          "command": args.command}, sort_keys=True),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
