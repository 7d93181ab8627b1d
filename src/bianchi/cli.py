"""Command-line front end: run identity checks, list the catalog, describe cases.

    bianchi verify [--case ID]... [--check ID]... [--case-file PATH] [options]
    bianchi list {cases|checks}
    bianchi describe-case {ID | --case-file PATH}

Exit codes: 0 all checks pass, 1 at least one identity check failed,
2 usage or input errors.  JSON output is a single array with one object
per (case, check) in sorted order: a repeated id, or an alias that builds
the same case, runs once, and a case file may not share its id with
another case of the run.  Identical invocations produce byte-identical
output.
"""

import argparse
import json
import sys

from . import casefile
from . import gallery
from . import geometry as geo
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

    if args.check:
        for check_id in args.check:
            if check_id not in ids.CATALOG and check_id not in gallery.CASE_CHECKS:
                return _usage_error(f"unknown check '{check_id}'")

    reports = []
    for case in cases:
        # one case's fields alive at a time
        with ids.sampling():
            if args.check:
                for check_id in sorted(set(args.check)):
                    case_check = gallery.CASE_CHECKS.get(check_id)
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


def _cmd_list(args) -> int:
    if args.what == "cases":
        for case_id in gallery.case_ids():
            case = gallery.build_case(case_id)
            print(f"{case_id:<22} {case.description}")
    else:
        for check in [*map(ids.CATALOG.get, sorted(ids.CATALOG)), *gallery.CASE_CHECKS.values()]:
            print(f"{check.identifier:<5} [{check.anchor}] {check.name}")
    return 0


def _render_form(form) -> str:
    coords = form.chart.coords
    parts = []
    for indices, expr in sorted(form.comps.items()):
        basis = "^".join(f"d{coords[i]}" for i in indices)
        parts.append(f"({se.to_text(expr)}) {basis}")
    return " + ".join(parts) if parts else "0"


def _render_field(field) -> str:
    coords = field.chart.coords
    parts = [
        f"({se.to_text(c)}) d/d{coords[i]}"
        for i, c in enumerate(field.comps)
        if not se._is_zero(c)
    ]
    return " + ".join(parts) if parts else "0"


def _cmd_describe_case(args) -> int:
    if (args.case_id is None) == (args.case_file is None):
        return _usage_error("describe-case takes either a case ID or --case-file PATH")
    try:
        if args.case_file:
            loaded = casefile.load_case_file(args.case_file)
            case, extras = loaded.case, loaded
        else:
            case, extras = gallery.build_case(args.case_id), None
    except (
        gallery.UnknownCaseError,
        gallery.CaseValidationError,
        casefile.CaseFileError,
    ) as exc:
        return _usage_error(str(exc))

    chart = case.chart
    print(f"case: {case.id}")
    print(f"  {case.description}")
    print(f"chart: {chart.name}, coordinates ({', '.join(chart.coords)})")
    # filter numerically: derived connections carry symbolically unsimplified
    # zero entries that would drown the real ones
    points = geo.sample_points(chart, f"describe/{case.id}", 5)
    entries = []
    for k in range(chart.dim):
        for i in range(chart.dim):
            for j in range(chart.dim):
                expr = case.connection.christoffel(k, i, j)
                if not se.max_abs([expr], points) <= 1e-12:
                    text = se.to_text(expr)
                    if len(text) > 64:
                        text = text[:61] + "..."
                    entries.append(
                        f"  Gamma^{chart.coords[k]}_{{{chart.coords[i]} "
                        f"{chart.coords[j]}}} = {text}"
                    )
    print(f"connection: {len(entries)} nonvanishing Christoffel symbols")
    for line in entries:
        print(line)
    print(f"flags: torsion_free={case.torsion_free}, flat={case.flat}")
    if case.metric is not None:
        print("metric:")
        for i in range(chart.dim):
            for j in range(i, chart.dim):
                if not se._is_zero(case.metric.g[i][j]):
                    print(
                        f"  g[{chart.coords[i]},{chart.coords[j]}] = "
                        f"{se.to_text(case.metric.g[i][j])}"
                    )
    if case.contact is not None:
        print("contact structure:")
        print(f"  form:       {_render_form(case.contact.form)}")
        print(f"  reeb field: {_render_field(case.contact.reeb)}")
    if case.foliation is not None:
        print("foliation:")
        print(f"  form:       {_render_form(case.foliation.form)}")
        for leaf in case.foliation.leaf_fields:
            print(f"  leaf field: {_render_field(leaf)}")
        print(f"  transverse: {_render_field(case.foliation.transverse)}")
    if case.sode is not None:
        print("second-order structure:")
        print(f"  semispray:  {_render_field(case.sode.semispray)}")
        for a, force in enumerate(case.sode.forces):
            print(f"  force {a + 1}:    {se.to_text(force)}")
    if case.lagrangian is not None:
        print(f"lagrangian: {se.to_text(case.lagrangian)}")
    check_ids = [c for c, check in gallery.CASE_CHECKS.items() if check.applicable(case)]
    if check_ids:
        print("case checks:")
        for check_id in check_ids:
            print(f"  {check_id}")
    if extras is not None:
        for name, form in sorted(extras.forms.items()):
            print(f"form {name}: {_render_form(form)}")
        for name, field in sorted(extras.fields.items()):
            print(f"field {name}: {_render_field(field)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "list":
            return _cmd_list(args)
        return _cmd_describe_case(args)
    except se.EvaluationError as exc:
        # a domain error of the input data (ln of a negative, overflow), not
        # a failed identity
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
