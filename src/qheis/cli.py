"""Command-line front end over the verification suites.

Every subcommand prints a structured report and exits 0 only if every
executed check passed.  A failed check, or an error raised inside the
library (a typed qheis error or any ValueError), exits 1; only argparse
rejects an invocation, with exit 2.  The
`--format json` envelope is {suite, seed, reports: [...]}; csv is the
same table flattened, except for `best-constant`, where csv means the
quadrature convergence table of the gauge-kernel integral.  Suites are
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import audit
from .errors import AccuracyError, ConsistencyError
from .quadrature import convergence_csv

_SUITE_COMMANDS = {
    "verify-frames": "frames",
    "verify-conformal": "conformal",
    "verify-extremal": "extremal",
    "verify-cayley": "cayley",
    "qmatrix": "qmatrix",
    "all": "all",
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument(
        "--samples", type=_positive_int, default=None,
        help="override the primary sample count of each check",
    )
    common.add_argument(
        "--tol", type=float, default=None,
        help="override every tolerance in the command (exploratory runs)",
    )
    common.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    common.add_argument("--out", default=None, help="write the report to this path")

    parser = argparse.ArgumentParser(
        prog="qheis",
        description="verification suites for the quaternionic Heisenberg toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "verify-frames": "frame derivation, commutators, Hessian symmetry",
        "verify-conformal": "torsion/curvature of conformal deformations",
        "verify-extremal": "entire-solution PDE residuals and normalizations",
        "verify-cayley": "sphere transforms: roundtrips, involution, Kelvin",
        "qmatrix": "coupling-matrix spectrum and quadratic-form audit",
        "all": "every suite above plus the quadrature checks",
    }
    for name in _SUITE_COMMANDS:
        sub.add_parser(name, parents=[common], help=helps[name])
    sub.add_parser(
        "best-constant", parents=[common],
        help="integrals, quotient, and printed-constant reconciliation",
    )
    sub.add_parser(
        "quotient-min", parents=[common],
        help="plant a moved bubble and grade the recovery search",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = audit.SuiteConfig(seed=args.seed, samples=args.samples, tol=args.tol)

    try:
        if args.command == "best-constant":
            record, reports = audit.best_constant_reports(config)
            if args.fmt == "csv":
                text = convergence_csv(record.gauge_table)
            elif args.fmt == "text":
                text = record.as_text() + "\n"
            else:
                text = audit.emit(reports, "json", suite="best-constant", seed=args.seed)
        elif args.command == "quotient-min":
            reports = audit.quotient_min_reports(config)
            text = audit.emit(reports, args.fmt, suite="quotient-min", seed=args.seed)
        else:
            suite = _SUITE_COMMANDS[args.command]
            reports = audit.run_suite(suite, config)
            text = audit.emit(reports, args.fmt, suite=suite, seed=args.seed)
    except (AccuracyError, ConsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
