"""Declarative case files.

A case file describes a chart and a connection in a plain INI-style text
format so the identity suite can run on user-supplied geometries:

    [chart]
    name = heisenberg
    coords = x y z
    range = -1 1
    range z = -0.5 0.5

    [christoffel]
    ; Gamma^k_{ij}, indices 1-based in coordinate order
    1 1 2 = y
    2 1 3 = -1

    [metric]
    ; symmetric, give each pair once
    1 1 = 1/2 + y^2
    1 3 = -y
    2 2 = 1/2
    3 3 = 1

    [forms]
    ; component indices in brackets, degree inferred from their count
    alpha[3] = 1
    alpha[1] = -y

    [fields]
    V[3] = 1

Expressions use the symexpr grammar (+ - * / ^, sin, cos, exp, ln).  A
metric without a [christoffel] section gets its torsion-free compatible
connection; [christoffel] alone is taken as given; both together must be
mutually compatible or validation rejects the file.  Torsion-freeness and
flatness are probed numerically after validation, so that checks
restricted to those classes become applicable automatically.  The section
parsers live in :mod:`bianchi.parsing`, which :func:`load_case_file`
imports at its first call, so a run without a case file never compiles
them.
"""

import dataclasses
import os

from . import connection as con
from . import gallery
from . import geometry as geo
from . import structure_forms as sf
from .geometry import PForm, VectorField


class CaseFileError(Exception):
    """Malformed case file: bad sections, indices, or expressions."""


DEFAULT_RANGE = (-1.0, 1.0)
KNOWN_SECTIONS = ("chart", "christoffel", "metric", "forms", "fields")

# flag probing, after validation: a probed flag is a measurement, not a
# declaration, so gallery._validate_case (1e-9 at its own 8 points) never
# re-checks it; 1e-10 keeps the flag to connections whose torsion or
# curvature vanishes to rounding error
PROBE_POINTS = 10
PROBE_TOL = 1e-10

# deepest expression tree an entry may parse to (a sum or product adds a
# level per term): the checks walk trees and their derivatives recursively
MAX_DEPTH = 100


class LoadedCase:
    """A validated geometry case plus the file's named forms and fields,
    immutable by contract."""

    __slots__ = ("case", "forms", "fields")

    def __init__(
        self,
        case: gallery.GeometryCase,
        forms: dict[str, PForm],
        fields: dict[str, VectorField],
    ):
        self.case = case
        self.forms = forms
        self.fields = fields


def _fail(message: str) -> None:
    raise CaseFileError(message)


def load_case_file(path: str) -> LoadedCase:
    """Parse, assemble and numerically validate a case file.

    Raises :class:`CaseFileError` for malformed input and
    :class:`gallery.CaseValidationError` when the declared data is
    mutually inconsistent (e.g. a metric the connection does not preserve).
    """
    # imported here: only case files need them, and a run without one saves
    # their import time and memory
    import configparser

    from . import parsing

    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=(";", "#")
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        _fail(f"cannot read case file: {exc}")
    except configparser.Error as exc:
        _fail(f"malformed case file: {exc}")

    for name in parser.sections():
        if name not in KNOWN_SECTIONS:
            _fail(f"unknown section [{name}]")
    if "chart" not in parser:
        _fail("a case file needs a [chart] section")

    stem = os.path.splitext(os.path.basename(path))[0]
    chart = parsing.parse_chart(parser["chart"], stem)

    metric = parsing.parse_metric(parser["metric"], chart) if "metric" in parser else None
    if "christoffel" in parser:
        conn = parsing.parse_christoffel(parser["christoffel"], chart)
    elif metric is not None:
        try:
            conn = con.levi_civita(metric)
        except con.ConnectionError as exc:
            _fail(f"[metric]: {exc}")
    else:
        conn = con.Connection.zero(chart)

    forms = parsing.parse_forms(parser["forms"], chart) if "forms" in parser else {}
    fields = parsing.parse_fields(parser["fields"], chart) if "fields" in parser else {}

    case = gallery.GeometryCase(
        id=chart.name,
        chart=chart,
        connection=conn,
        description=f"user case from {os.path.basename(path)}",
        metric=metric,
        coframe=sf.CoFrame.coordinate(chart),
    )
    gallery._validate_case(case)
    points = geo.sample_points(chart, f"case-file/{chart.name}", PROBE_POINTS)
    case = dataclasses.replace(
        case,
        torsion_free=gallery.torsion_residual(conn, points) <= PROBE_TOL,
        flat=gallery.curvature_residual(conn, points) <= PROBE_TOL,
    )
    return LoadedCase(case=case, forms=forms, fields=fields)
