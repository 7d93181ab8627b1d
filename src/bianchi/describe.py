"""The commands ``bianchi list`` and ``bianchi describe-case``.

:func:`bianchi.cli.main` imports this module when it dispatches one of
them, so a ``verify`` run never compiles it.  The usage errors and the
application claims come from :mod:`bianchi.cli`, and every other module
is reached through its module attributes.
"""

from . import casefile
from . import cli
from . import gallery
from . import geometry as geo
from . import identity_suite as ids
from . import symexpr as se


def _cmd_list(args) -> int:
    if args.what == "cases":
        for case_id in gallery.case_ids():
            case = gallery.build_case(case_id)
            print(f"{case_id:<22} {case.description}")
    else:
        for check in [*map(ids.CATALOG.get, sorted(ids.CATALOG)), *cli._case_checks().values()]:
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
        return cli._usage_error("describe-case takes either a case ID or --case-file PATH")
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
        return cli._usage_error(str(exc))

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
    check_ids = [c for c, check in cli._case_checks().items() if check.applicable(case)]
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
