"""Command-line entry point.

Subcommands mirror the pipeline stages: `quench` writes snapshots,
`reconstruct` turns them into diagnostics, `measure` simulates the
sampling protocol on one stored snapshot, `figures` assembles analysis
CSVs, and `validate` runs the built-in correctness battery.
"""

from __future__ import annotations

import argparse
import sys

from . import harness, validate
from .config import default_config, load_config


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH",
                        help="JSON run configuration (default: built-in)")
    parser.add_argument("--out", metavar="DIR",
                        help="output root (overrides the config)")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="master seed (overrides the config)")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="parallel worker processes (0 or 1 = serial)")
    parser.add_argument("--tol", type=float, metavar="X",
                        help="time-evolution tolerance (overrides the config)")


def _resolve_config(args):
    config = load_config(args.config) if args.config else default_config()
    overrides = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.tol is not None:
        overrides["evolve_tol"] = args.tol
    return config.override(**overrides) if overrides else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiscope",
        description="Interaction quenches probed through subsystem "
                    "correlations, reconstructed states, and level "
                    "statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quench", help="evolve the ensemble and write "
                       "subsystem snapshots")
    _add_common(p)

    p = sub.add_parser("reconstruct", help="rebuild states from stored "
                       "correlations and write diagnostics")
    _add_common(p)

    p = sub.add_parser("measure", help="simulate the sampling protocol on "
                       "one stored snapshot")
    _add_common(p)
    p.add_argument("--u-index", type=int, default=0, metavar="I",
                   help="interaction grid index (default 0)")
    p.add_argument("--member", type=int, default=0, metavar="M",
                   help="ensemble member (default 0)")
    p.add_argument("--time-index", type=int, default=None, metavar="T",
                   help="time grid index (default: last)")

    p = sub.add_parser("figures", help="assemble analysis CSVs from "
                       "reconstruction outputs")
    _add_common(p)
    p.add_argument("which", choices=(*harness.FIGURE_COLUMNS, "all"),
                   help="which figure's data to build")

    p = sub.add_parser("validate", help="run the built-in correctness "
                       "battery")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return 0 if validate.run_oracles() else 1

    config = _resolve_config(args)
    if args.command == "quench":
        manifest = harness.cmd_quench(config)
    elif args.command == "reconstruct":
        manifest = harness.cmd_reconstruct(config)
    elif args.command == "measure":
        manifest = harness.cmd_measure(config, iu=args.u_index,
                                       member=args.member,
                                       it=args.time_index)
    else:
        manifest = "\n".join(harness.cmd_figures(config, args.which))
    print(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
