"""Command-line front end over the verification suites.

Every subcommand prints a structured report and exits 0 only if every
executed check passed, each at its own tolerance.  A failed check, or an
error raised inside the library (a typed qheis error or any ValueError),
exits 1; a usage error, one argparse rejects or an `--out` path that
cannot be written (one "error:" line once the run is done), exits 2.  The
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

# command -> (suite it runs, help line)
_SUITE_COMMANDS = {
    "verify-frames": ("frames", "frame commutators, Hessian symmetry, left-invariance"),
    "verify-conformal": (
        "conformal", "torsion, curvature and divergence identity of conformal deformations"
    ),
    "verify-extremal": ("extremal", "entire-solution PDE residuals and normalizations"),
    "verify-cayley": ("cayley", "sphere transforms: roundtrips, involution, Kelvin"),
    "qmatrix": ("qmatrix", "coupling-matrix spectrum and quadratic-form audit"),
    "all": ("all", "every suite above plus the quadrature checks"),
    "quotient-min": ("quotient-min", "plant a moved bubble and grade the recovery search"),
}


def _integer(text: str, minimum: int, what: str) -> int:
    """`text` as an int >= `minimum`, else a usage error expecting `what`."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < minimum:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _integer(text, 1, "a positive integer")


def _seed(text: str) -> int:
    return _integer(text, 0, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0, help="RNG seed >= 0 (default 0)")
    common.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    common.add_argument("--out", default=None, help="write the report to this path")
    # every command but quotient-min, which draws no sample it could size
    sampled = argparse.ArgumentParser(add_help=False, parents=[common])
    sampled.add_argument(
        "--samples", type=_positive_int, default=None,
        help="override the primary sample count of each check",
    )

    parser = argparse.ArgumentParser(
        prog="qheis",
        description="verification suites for the quaternionic Heisenberg toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (suite, help_line) in _SUITE_COMMANDS.items():
        parents = [common] if suite == "quotient-min" else [sampled]
        sub.add_parser(name, parents=parents, help=help_line).set_defaults(samples=None)
    sub.add_parser(
        "best-constant", parents=[sampled],
        help="integrals, quotient, and printed-constant reconciliation",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = audit.SuiteConfig(seed=args.seed, samples=args.samples)

    try:
        if args.command == "best-constant":
            record, reports = audit.best_constant_reports(config)
            if args.fmt == "csv":
                text = convergence_csv(record.gauge.table)
            elif args.fmt == "text":
                text = record.as_text() + "\n"
            else:
                text = audit.emit(reports, "json", suite="best-constant", seed=args.seed)
        else:
            suite = _SUITE_COMMANDS[args.command][0]
            reports = audit.run_suite(suite, config)
            text = audit.emit(reports, args.fmt, suite=suite, seed=args.seed)
    except (AccuracyError, ConsistencyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
