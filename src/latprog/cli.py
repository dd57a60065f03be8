"""Batch CLI: generate, train, fit, predict, evaluate.

Thread pinning (--threads) must happen before numpy is first imported, so
all heavy imports are deferred into the dispatch path.  Log level comes
from the LATPROG_LOG environment variable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .stages import STAGES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latprog",
        description="Latent progression modeling pipeline on synthetic cohorts.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="stage")
    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument("--config", help="JSON run configuration (defaults if omitted)")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument(
            "--threads", type=int, help="pin BLAS/OpenMP thread count (set before numpy loads)"
        )
    return parser


def _pin_threads(n: int) -> None:
    if "numpy" in sys.modules:
        logging.getLogger(__name__).warning(
            "numpy already imported; --threads may not take full effect"
        )
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "BLIS_NUM_THREADS",
    ):
        os.environ[var] = str(n)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=os.environ.get("LATPROG_LOG", "INFO").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 1
        _pin_threads(args.threads)

    from .config import load_config
    from .errors import ConfigError, MissingDependencyError, TensorFileError
    from .pipeline import run_stage

    log = logging.getLogger("latprog")
    try:
        cfg = load_config(args.config, seed_override=args.seed)
        outputs = run_stage(args.command, cfg, args.out)
    except (ConfigError, MissingDependencyError, TensorFileError, FileNotFoundError,
            ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    log.info("%s wrote %d artifact(s) under %s", args.command, len(outputs), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
