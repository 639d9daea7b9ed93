"""Command-line entry point: run any check battery and emit reports."""

from __future__ import annotations

import argparse
import os
import sys

from .suite import SELECTORS, emit_report, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelcy",
        description="Exact and numeric verification suite for genus-2 theta "
                    "constants and the associated Calabi-Yau threefold.",
    )
    parser.add_argument("selector", choices=sorted(SELECTORS),
                        help="the check battery to run")
    parser.add_argument("--truncation", type=int, default=12, metavar="N",
                        help="exponent-weight bound for expansions (default 12)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all sampled checks (default 0)")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="numeric tolerance (default 1e-8)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the machine-readable report here")
    return parser


def _unwritable(path: str) -> bool:
    """Whether the report cannot be written at path, symlinks followed."""
    target = os.path.realpath(path)
    if os.path.exists(target):
        return os.path.isdir(target) or not os.access(target, os.W_OK)
    folder = os.path.dirname(target)
    return not (os.path.isdir(folder) and os.access(folder, os.W_OK))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.json is not None and _unwritable(args.json):
        print(f"error: cannot write the JSON report to {args.json!r}", file=sys.stderr)
        return 2
    try:
        report = run_suite(args.selector, truncation=args.truncation,
                           seed=args.seed, tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, "text"))
    if args.json:
        emit_report(report, "json", path=args.json)
    return 0 if report.exit_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
