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
restricted to those classes become applicable automatically.
"""

import dataclasses
import os
from dataclasses import dataclass, field

from . import connection as con
from . import gallery
from . import geometry as geo
from . import structure_forms as sf
from . import symexpr as se
from .geometry import Chart, PForm, VectorField


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


@dataclass(frozen=True)
class LoadedCase:
    """A validated geometry case plus the file's named forms and fields."""

    case: gallery.GeometryCase
    forms: dict[str, PForm] = field(default_factory=dict)
    fields: dict[str, VectorField] = field(default_factory=dict)


def _fail(message: str) -> None:
    raise CaseFileError(message)


def _parse_range(text: str, context: str) -> tuple[float, float]:
    parts = text.split()
    if len(parts) != 2:
        _fail(f"{context}: expected two numbers, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        _fail(f"{context}: expected two numbers, got {text!r}")
    return lo, hi


def _parse_chart(section, default_name: str) -> Chart:
    if "coords" not in section:
        _fail("[chart] needs a 'coords' entry")
    coords = tuple(section["coords"].split())
    if not coords:
        _fail("[chart] coords entry is empty")
    base = DEFAULT_RANGE
    if "range" in section:
        base = _parse_range(section["range"], "[chart] range")
    intervals = [base] * len(coords)
    for key, value in section.items():
        if key in ("coords", "range", "name"):
            continue
        if not key.startswith("range "):
            _fail(f"[chart]: unknown entry {key!r}")
        coord = key[len("range "):].strip()
        if coord not in coords:
            _fail(f"[chart]: range override for unknown coordinate {coord!r}")
        intervals[coords.index(coord)] = _parse_range(value, f"[chart] range {coord}")
    name = section.get("name", default_name).strip()
    if not name:
        _fail("[chart] name entry is empty")
    try:
        return Chart(name, coords, tuple(intervals))
    except geo.GeometryError as exc:
        _fail(f"[chart]: {exc}")


def _deeper_than(expr: se.Expr, levels: int) -> bool:
    return levels == 0 or any(_deeper_than(c, levels - 1) for c in expr.children())


def _parse_expr(chart: Chart, text: str, context: str) -> se.Expr:
    try:
        expr = chart.parse(text)
    except se.ParseError as exc:
        _fail(f"{context}: {exc}")
    except RecursionError:  # parentheses, signs or powers nested past the stack
        expr = None
    if expr is None or _deeper_than(expr, MAX_DEPTH):
        _fail(f"{context}: expression nested deeper than {MAX_DEPTH} levels")
    return expr


def _parse_index(token: str, chart: Chart, context: str) -> int:
    try:
        value = int(token)
    except ValueError:
        _fail(f"{context}: index {token!r} is not an integer")
    if not 1 <= value <= chart.dim:
        _fail(f"{context}: index {value} out of range 1..{chart.dim}")
    return value - 1


def _parse_christoffel(section, chart: Chart) -> con.Connection:
    entries = {}
    for key, value in section.items():
        context = f"[christoffel] {key}"
        tokens = key.split()
        if len(tokens) != 3:
            _fail(f"{context}: expected three indices 'k i j'")
        k, i, j = (_parse_index(t, chart, context) for t in tokens)
        if (k, i, j) in entries:
            _fail(f"{context}: duplicate entry")
        entries[(k, i, j)] = _parse_expr(chart, value, context)
    return con.Connection.from_nonzero(chart, entries)


def _parse_metric(section, chart: Chart) -> con.Metric:
    entries = {}
    for key, value in section.items():
        context = f"[metric] {key}"
        tokens = key.split()
        if len(tokens) != 2:
            _fail(f"{context}: expected two indices 'i j'")
        i, j = (_parse_index(t, chart, context) for t in tokens)
        pair = (min(i, j), max(i, j))
        if pair in entries:
            _fail(f"{context}: pair given twice")
        entries[pair] = _parse_expr(chart, value, context)
    return con.Metric.from_nonzero(chart, entries)


def _parse_indexed_name(key: str, chart: Chart, context: str) -> tuple[str, tuple[int, ...]]:
    if not key.endswith("]") or "[" not in key:
        _fail(f"{context}: expected name[indices], got {key!r}")
    name, _, inside = key[:-1].partition("[")
    name = name.strip()
    if not name:
        _fail(f"{context}: missing name before the bracket")
    tokens = [t.strip() for t in inside.split(",")]
    indices = tuple(_parse_index(t, chart, context) for t in tokens)
    return name, indices


def _parse_forms(section, chart: Chart) -> dict[str, PForm]:
    collected: dict[str, dict[tuple[int, ...], se.Expr]] = {}
    degrees: dict[str, int] = {}
    for key, value in section.items():
        context = f"[forms] {key}"
        name, indices = _parse_indexed_name(key, chart, context)
        if list(indices) != sorted(set(indices)):
            _fail(f"{context}: indices must be strictly increasing")
        if name in degrees and degrees[name] != len(indices):
            _fail(f"{context}: component degree disagrees with earlier entries")
        degrees[name] = len(indices)
        comps = collected.setdefault(name, {})
        if indices in comps:
            _fail(f"{context}: duplicate component")
        comps[indices] = _parse_expr(chart, value, context)
    return {
        name: PForm(chart, degrees[name], comps) for name, comps in collected.items()
    }


def _parse_fields(section, chart: Chart) -> dict[str, VectorField]:
    collected: dict[str, dict[int, se.Expr]] = {}
    for key, value in section.items():
        context = f"[fields] {key}"
        name, indices = _parse_indexed_name(key, chart, context)
        if len(indices) != 1:
            _fail(f"{context}: a vector field takes exactly one index per entry")
        comps = collected.setdefault(name, {})
        if indices[0] in comps:
            _fail(f"{context}: duplicate component")
        comps[indices[0]] = _parse_expr(chart, value, context)
    return {
        name: VectorField(chart, [comps.get(i, se.ZERO) for i in range(chart.dim)])
        for name, comps in collected.items()
    }


def load_case_file(path: str) -> LoadedCase:
    """Parse, assemble and numerically validate a case file.

    Raises :class:`CaseFileError` for malformed input and
    :class:`gallery.CaseValidationError` when the declared data is
    mutually inconsistent (e.g. a metric the connection does not preserve).
    """
    # imported here: only case files need it, and a run without one saves
    # its import time and memory
    import configparser

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
    chart = _parse_chart(parser["chart"], stem)

    metric = _parse_metric(parser["metric"], chart) if "metric" in parser else None
    if "christoffel" in parser:
        conn = _parse_christoffel(parser["christoffel"], chart)
    elif metric is not None:
        try:
            conn = con.levi_civita(metric)
        except con.ConnectionError as exc:
            _fail(f"[metric]: {exc}")
    else:
        conn = con.Connection.zero(chart)

    forms = _parse_forms(parser["forms"], chart) if "forms" in parser else {}
    fields = _parse_fields(parser["fields"], chart) if "fields" in parser else {}

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
