"""Command-line surface: evaluation, certification, census and verification.

Exit codes: 0 success, 1 domain error, 2 budget exhaustion, 3 verification
failure.  Errors go to stderr, data to stdout.
"""
from __future__ import annotations

import argparse
import io
import sys
from typing import Optional, Sequence

from .permcore import BudgetError, PermError, down_set, fmt, parse
from .mobius import mobius, principal_mobius
from .zerorules import certify_zero, describe_certificate
from .census import (
    DENSITY_DESK_CAP,
    emit_table,
    sweep,
    zero_density,
)
from .verify import run_theorem_suites

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="permobius",
        description="Mobius function on the permutation pattern poset",
    )
    sub = top.add_subparsers(dest="command", required=True)

    # --no-prune (mu, pmu, census) is still accepted and changes nothing: the
    # evaluator computes interior zeros like every other value.
    p = sub.add_parser("mu", help="print mu(sigma, pi)")
    p.add_argument("sigma")
    p.add_argument("pi")
    p.add_argument("--no-prune", action="store_true")

    p = sub.add_parser("pmu", help="print mu(1, pi)")
    p.add_argument("pi")
    p.add_argument("--no-prune", action="store_true")

    p = sub.add_parser("zero", help="print a zero certificate or 'none'")
    p.add_argument("pi")

    p = sub.add_parser("downset", help="print the elements of [1, pi]")
    p.add_argument("pi")
    p.add_argument("--count", action="store_true")

    p = sub.add_parser("census", help="print census rows for one length")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--audit", metavar="FILE")
    p.add_argument("--checkpoint", metavar="FILE")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument(
        "--long-run",
        action="store_true",
        help=f"allow n beyond the desk cap {DENSITY_DESK_CAP}",
    )

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--suite", action="append", dest="suites")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="print the density table for n = 1..N")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--long-run", action="store_true")
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "mu":
        sigma, pi = parse(args.sigma), parse(args.pi)
        print(mobius(sigma, pi))
        return EXIT_OK
    if args.command == "pmu":
        print(principal_mobius(parse(args.pi)))
        return EXIT_OK
    if args.command == "zero":
        cert = certify_zero(parse(args.pi))
        if cert is None:
            print("none")
        else:
            tag, witness = describe_certificate(cert)
            print(f"{tag} {witness}")
        return EXIT_OK
    if args.command == "downset":
        elements = down_set(parse(args.pi))
        if args.count:
            print(len(elements))
        else:
            for tau in sorted(elements, key=lambda t: (len(t), t)):
                print(fmt(tau))
        return EXIT_OK
    if args.command == "census":
        # the file is opened after the run, so a refused run leaves it as it was
        audit = io.StringIO() if args.audit else None
        row = zero_density(
            args.n,
            workers=args.workers,
            long_run=args.long_run,
            audit_file=audit,
            checkpoint=args.checkpoint,
        )
        if audit is not None:
            with open(args.audit, "w") as fh:
                fh.write(audit.getvalue())
        sys.stdout.write(emit_table([row], format=args.format))
        return EXIT_OK
    if args.command == "verify":
        report = run_theorem_suites(n_max=args.nmax, suites=args.suites)
        sys.stdout.write(report.to_json() if args.json else report.to_text())
        return EXIT_OK if report.all_passed else EXIT_VERIFY
    if args.command == "table":
        rows = sweep(args.nmax, workers=args.workers, long_run=args.long_run)
        sys.stdout.write(emit_table(rows, format="text"))
        return EXIT_OK
    raise PermError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
