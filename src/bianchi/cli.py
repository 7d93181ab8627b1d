"""Command-line front end: run identity checks, list the catalog, describe cases.

    bianchi verify [--case ID]... [--check ID]... [--case-file PATH] [options]
    bianchi list {cases|checks}
    bianchi describe-case {ID | --case-file PATH}

Exit codes: 0 all checks pass, 1 at least one identity check failed,
2 usage or input errors.  JSON output is a single array with one object
per (case, check) in sorted order: a repeated id, or an alias that builds
the same case, runs once, and a case file may not share its id with
another case of the run.  Identical invocations produce byte-identical
output.  ``list`` and ``describe-case`` live in :mod:`bianchi.describe`,
which :func:`main` imports only to run one of them.
"""

import argparse
import json
import sys

from . import casefile
from . import gallery
from . import identity_suite as ids
from . import symexpr as se


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bianchi",
        description="Numerically verify structure equations and Bianchi identities "
        "on a gallery of geometries or on user-supplied case files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity checks and report residuals")
    verify.add_argument(
        "--case",
        action="append",
        metavar="ID",
        help="gallery case id, repeatable; default is every gallery case",
    )
    verify.add_argument(
        "--check",
        action="append",
        metavar="ID",
        help="check id (catalog or case check), repeatable; default is every "
        "applicable catalog check",
    )
    verify.add_argument(
        "--case-file", metavar="PATH", help="verify the case in PATH too, or alone without --case"
    )
    verify.add_argument(
        "--case-checks",
        action="store_true",
        help="append each case's structure-specific checks",
    )
    defaults = ids.CheckConfig()
    verify.add_argument("--points", type=int, default=defaults.points, help="sample points per check")
    verify.add_argument(
        "--tuples", type=int, default=defaults.tuples, help="random argument tuples per check"
    )
    verify.add_argument("--tol", type=float, default=defaults.tolerance, help="residual tolerance")
    verify.add_argument("--seed", type=int, default=defaults.seed, help="sampling seed")
    verify.add_argument("--format", choices=("text", "json"), default="text")

    lister = sub.add_parser("list", help="list known ids with descriptions")
    lister.add_argument("what", choices=("cases", "checks"))

    describe = sub.add_parser(
        "describe-case", help="print one case's chart, connection and structures"
    )
    describe.add_argument("case_id", metavar="ID", nargs="?")
    describe.add_argument(
        "--case-file", metavar="PATH", help="describe the case in PATH instead"
    )
    return parser


def _case_checks() -> dict:
    """The application claims by id; only runs that name or list them
    import their module."""
    from . import case_checks

    return case_checks.CASE_CHECKS


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _resolve_cases(args) -> list:
    # a repeated id runs once, and so does an alias of it: random_poly,
    # random_poly:0 and random_poly:00 build the same case
    cases = {case.id: case for case in map(gallery.build_case, dict.fromkeys(args.case or ()))}
    if args.case_file:
        case = casefile.load_case_file(args.case_file).case
        if case.id in cases:
            raise casefile.CaseFileError(
                f"case file {args.case_file} names case '{case.id}', which --case already runs"
            )
        cases[case.id] = case
    cases = list(cases.values()) or [gallery.build_case(c) for c in gallery.case_ids()]
    return sorted(cases, key=lambda c: c.id)


def _cmd_verify(args) -> int:
    try:
        config = ids.CheckConfig(
            points=args.points,
            tuples=args.tuples,
            tolerance=args.tol,
            seed=args.seed,
        )
        cases = _resolve_cases(args)
    except (
        gallery.UnknownCaseError,
        gallery.CaseValidationError,
        casefile.CaseFileError,
        ids.SuiteError,
    ) as exc:
        return _usage_error(str(exc))

    # the case checks that --check can name: none while every id is a catalog check
    named = {}
    if args.check:
        if any(check_id not in ids.CATALOG for check_id in args.check):
            named = _case_checks()
        for check_id in args.check:
            if check_id not in ids.CATALOG and check_id not in named:
                return _usage_error(f"unknown check '{check_id}'")

    reports = []
    for case in cases:
        # one case's fields alive at a time
        with ids.sampling():
            if args.check:
                for check_id in sorted(set(args.check)):
                    case_check = named.get(check_id)
                    if not (case_check or ids.CATALOG[check_id]).applicable(case):
                        print(
                            f"note: check {check_id} is not applicable to case "
                            f"{case.id}, skipped",
                            file=sys.stderr,
                        )
                    elif case_check is None:
                        reports.append(ids.check_identity(check_id, case, config))
                    elif not args.case_checks:  # else --case-checks runs it below
                        reports.append(ids.run_check(case_check, case, config))
            else:
                reports.extend(ids.run_suite(case, config))
            if args.case_checks:
                reports.extend(gallery.case_specific_checks(case, config))

    reports.sort(key=lambda r: (r.case_id, r.check_id))
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            verdict = "pass" if r.passed else "FAIL"
            exact = "  (holds exactly: rounding error)" if r.cleared else ""
            print(
                f"{r.case_id:<24} {r.check_id:<42} {verdict}  "
                f"max_residual={r.max_residual:.3e}  tol={r.tolerance:g}{exact}"
            )
        failed = sum(1 for r in reports if not r.passed)
        print(f"{len(reports)} checks, {len(reports) - failed} passed, {failed} failed")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        from . import describe

        if args.command == "list":
            return describe._cmd_list(args)
        return describe._cmd_describe_case(args)
    except se.EvaluationError as exc:
        # a domain error of the input data (ln of a negative, overflow), not
        # a failed identity
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
