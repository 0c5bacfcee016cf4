"""Command-line front end for the batch pipeline.

Subcommands: gen-data, train, sweep, validate. Configuration comes
from a JSON file mirroring PipelineConfig, with per-command overrides
for the common knobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from dataclasses import replace

from .pipeline import PipelineConfig, cmd_gen_data, cmd_sweep, cmd_train, cmd_validate
from .regression import BasisSpec


def _parse_basis(text: str) -> BasisSpec:
    """Parse 'kind' or 'kind:degree', e.g. 'elementwise-poly:2'."""
    if ":" in text:
        kind, degree = text.split(":", 1)
        return BasisSpec(kind=kind, degree=int(degree))
    return BasisSpec(kind=text)


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_json(Path(args.config)) if args.config else PipelineConfig()
    overrides = {}
    if args.out:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mu", None) is not None:
        overrides["train_mu"] = args.mu
    if getattr(args, "history", None) is not None:
        overrides["history"] = replace(cfg.history, n=args.history)
    if getattr(args, "basis", None) is not None:
        overrides["basis"] = _parse_basis(args.basis)
    if getattr(args, "folds", None) is not None:
        overrides["sweep"] = replace(cfg.sweep, k=args.folds)
    return replace(cfg, **overrides)   # __post_init__ propagates the seed


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--mu", type=float, help="L1 weight override")
    p.add_argument("--history", type=int, help="history length override")
    p.add_argument("--basis", help="basis override, e.g. elementwise-poly:2")
    p.add_argument("--folds", type=int, help="cross-validation fold count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="throttleid",
        description="Sparse identification pipeline for throttleable engine dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in [("gen-data", "generate the excitation corpus and plant responses"),
                      ("train", "fit the coefficient model on a generated corpus"),
                      ("sweep", "cross-validated history and mu sweeps"),
                      ("validate", "run the fixed validation suite")]:
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name in ("train", "sweep"):
            p.add_argument("--data", help="directory holding gen-data outputs")
        if name == "validate":
            p.add_argument("--model", help="model JSON path (default <out>/model.json)")
            p.add_argument("--oracle-passthrough", action="store_true",
                           help="replay the plant against itself (harness self-check)")

    args = parser.parse_args(argv)
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
