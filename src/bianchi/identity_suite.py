"""Catalog of identity checks relating torsion, curvature and a connection.

Every entry in the catalog is a theorem: an equation between two expressions
built from an arbitrary linear connection (some entries additionally need a
coframe or a torsion-free connection).  A check evaluates both sides on
seeded random points and argument fields and records the worst absolute
difference, so a run is reproducible from its seed alone.  :func:`run_check`
is the one runner: the case-specific checks of the gallery's applications
are ``IdentityCheck`` entries too, kept outside :data:`CATALOG`.

Checks operate on geometry cases supplied by the caller.  A case provides a
chart, a connection, and optionally a coframe, structural flags and a second
"reference" connection.  The left-hand side of every catalog equation is
built from ``case.connection`` while the right-hand side uses
``case.reference_connection``; for ordinary cases these coincide, and
deliberately splitting them lets a corrupted connection on one side prove
that the harness can actually fail (mutation probing).

Most identities are a side function of the two connections and a tuple's
fields, returning its (lhs, rhs) pairs; only Cartan's, which assemble
their coframe forms once per case, have a factory of their own.  A check
between forms declares their degree, and one rule in :func:`run_check`
decides vacuity: on a chart of lower dimension every member is zero, so
the check is 0 = 0 and nothing is built or evaluated in floats.

Fields are seeded by case and tuple, not by check, so all checks of a
case see the same fields at tuple t.  Every check runs inside a
:func:`sampling` scope, which the suite runners open once per case and a
check run alone opens for itself.  The scope keeps one record per sampled
tuple: its fields, each drawn once, the pieces that the pairs of the
case's checks repeat (omega(X), nabla_X Z, X wedge Y, R(X, Y), ...), each
built once in the record's :func:`bianchi.geometry.sharing` table, and the
values of their components at the case's points.  Factories run outside
the tables.  Everything dies with the scope.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import math
import random
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from . import symexpr as se
from . import geometry as geo
from . import connection as con
from . import structure_forms as sf
from .geometry import Chart, GeometryError, PForm, VectorField


class SuiteError(GeometryError):
    pass


class UnknownCheckError(SuiteError):
    pass


class ApplicabilityError(SuiteError):
    pass


# -- sampling ------------------------------------------------------------------


class SampleSpec:
    """Counts and degrees of the random objects a check consumes per tuple.

    Immutable by contract; two specs with equal fields are equal."""

    __slots__ = ("vectors", "form_degrees")

    def __init__(self, vectors: int = 0, form_degrees: tuple[int, ...] = ()):
        self.vectors = vectors
        self.form_degrees = form_degrees

    def __eq__(self, other):
        if type(other) is not SampleSpec:
            return NotImplemented
        return (self.vectors, self.form_degrees) == (other.vectors, other.form_degrees)


class SampleBatch:
    """The fields sampled for one tuple, immutable by contract."""

    __slots__ = ("vectors", "forms")

    def __init__(self, vectors: tuple[VectorField, ...], forms: tuple[PForm, ...]):
        self.vectors = vectors
        self.forms = forms


def _table_roots(entries) -> list:
    """The roots (see :func:`bianchi.geometry._roots`) of the pieces of
    sharing-table entries, without the constants and variables: a scan
    gets their values without a walk, and a constant that no side reaches
    would stay unknown and be visited again by every later run."""
    leaves = (se.Const, se.Var)
    return [
        root
        for _, piece in entries
        for root in geo._roots(piece)
        if type(root) not in leaves
    ]


class _Pieces:
    """What a sampling scope keeps for one sampled tuple of its case: the
    fields drawn for it by slot, the sharing table of the pieces built
    from them, and, per number of points, the values of their roots that
    the checks' scans computed and the roots whose values are still
    unknown."""

    __slots__ = ("fields", "table", "values")

    def __init__(self):
        self.fields: dict[str, object] = {}
        self.table: dict = {}
        self.values: dict[int, tuple[dict, list]] = {}

    def field(self, seed, slot: str, sample: Callable):
        """The field of ``slot``: ``sample(random.Random(f"{seed}/{slot}"))``
        at the first request, the same object after it."""
        got = self.fields.get(slot)
        if got is None:
            got = self.fields[slot] = sample(random.Random(f"{seed}/{slot}"))
        return got

    def build(self, build: Callable, batch: SampleBatch) -> list:
        """``build``'s pairs, built in this tuple's sharing table; each new
        piece's roots join the unknown roots at every number of points."""
        start = len(self.table)
        with geo.sharing(self.table):
            built = build(batch.vectors, batch.forms)
        roots = _table_roots(itertools.islice(self.table.values(), start, None))
        for _, unknown in self.values.values():
            unknown += roots
        return built

    def known(self, count: int) -> tuple[dict, list]:
        """The known values at ``count`` points and the roots whose values
        are unknown, as :func:`bianchi.symexpr.worst_residual` takes them:
        a scan writes back the values it finds and drops those roots."""
        got = self.values.get(count)
        if got is None:
            got = self.values[count] = {}, _table_roots(self.table.values())
        return got

    def clear(self) -> None:
        self.fields.clear()
        self.table.clear()
        self.values.clear()


# The open sampling scope's record of each sampled tuple by (chart, seed),
# or None outside one.
_tuples: dict | None = None


@contextmanager
def sampling():
    """A scope that keeps one record per sampled tuple: the fields that
    :func:`sample_fields` draws for it, each slot once, and the pieces
    that the checks of a case build from them, with their values at the
    case's points.  A nested scope reuses the open one, so the checks run
    inside a suite's scope share each tuple's record, and a check run
    alone opens and closes its own.  Every record is emptied when the
    scope closes, also on error.

    Python's cycle collector is paused while the outermost scope is open
    and left as the caller had it when the scope closes, also on error.
    """
    # A check makes no reference cycles: its expression DAGs, their
    # derivative memos and every evaluation memo are freed by reference
    # counting alone, so the collector would only rescan the growing DAGs and
    # records and find nothing.  Re-enabled after each check, it would run at
    # the next allocation and traverse all the scope still holds.  Pinned by
    # tests/test_symexpr.py's test_*_leaves_no_reference_cycles and
    # tests/test_identity_suite.py's test_checks_leave_no_reference_cycles.
    global _tuples
    if _tuples is not None:
        yield
        return
    collecting = gc.isenabled()
    gc.disable()
    _tuples = tuples = {}
    try:
        yield
    finally:
        _tuples = None
        for pieces in tuples.values():
            pieces.clear()
        tuples.clear()
        if collecting:
            gc.enable()


def _pieces(chart: Chart, seed) -> _Pieces:
    """The open sampling scope's record of the tuple seeded by ``seed``,
    or a fresh record outside one."""
    if _tuples is None:
        return _Pieces()
    key = (chart, f"{seed}")
    pieces = _tuples.get(key)
    if pieces is None:
        pieces = _tuples[key] = _Pieces()
    return pieces


def sample_fields(chart: Chart, seed, spec: SampleSpec) -> SampleBatch:
    """Deterministically sample vector fields and p-forms.

    Vector i comes from the stream ``{seed}/v{i}`` and the k-th form of
    degree d from ``{seed}/f{d}.{k}``, so a smaller spec gets the same
    first slots.  Inside a :func:`sampling` scope each slot is drawn once
    per chart and seed; outside one every call draws afresh.  Vector
    fields use random polynomial components (non-commuting, so bracket
    terms in the identities stay exercised).  A degree outside 0..dim
    raises :class:`~bianchi.geometry.DegreeError`.
    """
    pieces = _pieces(chart, seed)
    vectors = tuple(
        pieces.field(seed, f"v{i}", lambda rng: geo.random_vector_field(chart, rng))
        for i in range(spec.vectors)
    )
    forms, counts = [], {}
    for d in spec.form_degrees:
        k = counts[d] = counts.get(d, -1) + 1
        forms.append(pieces.field(seed, f"f{d}.{k}", lambda rng: geo.random_pform(chart, d, rng)))
    return SampleBatch(vectors, tuple(forms))


# -- reports ---------------------------------------------------------------------


class Report:
    """Outcome of one identity check on one case, immutable by contract;
    two reports with equal fields are equal.

    ``cleared`` says that the residuals above the tolerance all lie in
    pairs that hold exactly."""

    __slots__ = (
        "case_id", "check_id", "points", "tuples", "max_residual", "tolerance", "seed",
        "worst_point", "worst_tuple", "cleared",
    )

    def __init__(
        self,
        case_id: str,
        check_id: str,
        points: int,
        tuples: int,
        max_residual: float,
        tolerance: float,
        seed: object,
        worst_point: dict | None = None,
        worst_tuple: int | None = None,
        cleared: bool = False,
    ):
        self.case_id = case_id
        self.check_id = check_id
        self.points = points
        self.tuples = tuples
        self.max_residual = max_residual
        self.tolerance = tolerance
        self.seed = seed
        self.worst_point = worst_point
        self.worst_tuple = worst_tuple
        self.cleared = cleared

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in Report.__slots__)

    def __eq__(self, other):
        if type(other) is not Report:
            return NotImplemented
        return self._fields() == other._fields()

    @property
    def passed(self) -> bool:
        """Every residual within the tolerance (NaN is not), or cleared."""
        return self.max_residual <= self.tolerance or self.cleared

    def to_json_dict(self) -> dict:
        """Stable serialization: exactly these keys, in this order.  JSON
        has no NaN or infinity, so a non-finite residual is the string
        ``"nan"`` or ``"inf"``."""
        residual = self.max_residual
        return {
            "case": self.case_id,
            "check": self.check_id,
            "points": self.points,
            "tuples": self.tuples,
            "max_residual": residual if math.isfinite(residual) else str(residual),
            "tol": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


class CheckConfig:
    """Sampling and tolerance of a run of checks, immutable by contract."""

    __slots__ = ("points", "tuples", "tolerance", "seed")

    def __init__(
        self, points: int = 20, tuples: int = 5, tolerance: float = 1e-8, seed: object = 0
    ):
        if points < 1:
            raise SuiteError("points must be at least 1")
        if tuples < 1:
            raise SuiteError("tuples must be at least 1")
        if not 0 < tolerance < math.inf:
            raise SuiteError("tolerance must be a positive finite number")
        self.points = points
        self.tuples = tuples
        self.tolerance = tolerance
        self.seed = seed


# -- the catalog -------------------------------------------------------------------

# A builder factory receives the case and returns a per-tuple builder mapping
# (vectors, forms) to a list of (lhs, rhs) expression pairs.  Most identities
# are side functions of the two connections that :func:`_per_tuple` adapts;
# the Cartan ones assemble their coframe forms once per case instead.
BuilderFactory = Callable[[object], Callable[[Sequence[VectorField], Sequence[PForm]], list]]


@dataclass(frozen=True)
class IdentityCheck:
    identifier: str
    name: str
    anchor: str
    sample_spec: Callable[[Chart], SampleSpec]
    factory: BuilderFactory
    # whether the check's equation is defined on a case
    applicable: Callable[[object], bool] = lambda case: True
    # the degree of the forms the equation relates: on a chart of lower
    # dimension every member is zero and the check is 0 = 0
    degree: int = 0


def _has_coframe(case) -> bool:
    return case.coframe is not None


def _is_torsion_free(case) -> bool:
    return case.torsion_free


def _vector_pairs(lhs: VectorField, rhs: VectorField) -> list:
    return list(zip(lhs.comps, rhs.comps))


def _per_tuple(sides):
    """The factory of an identity whose pairs ``sides(lhs_conn, rhs_conn,
    vectors, forms)`` builds from each tuple's fields."""
    return lambda case: partial(sides, case.connection, case.reference_connection)


def _s1p(clhs, crhs, vectors, forms):
    pairs = []
    for theta in forms:
        args = list(vectors[: theta.degree + 1])
        lhs = sf.torsion_form_apply(clhs, theta, args)
        rhs = se.add(
            geo.exterior_derivative(theta).apply(args),
            sf.xi_form_apply(crhs, theta, args),
        )
        pairs.append((lhs, rhs))
    return pairs


def _s2(clhs, crhs, vectors, forms):
    (theta,) = forms
    x, y, z = vectors[:3]
    args = [x, y]
    lhs = sf.curvature_form_apply(clhs, theta, z, args)
    omega = sf.connection_form(crhs, theta, z)
    rhs = se.add(
        geo.exterior_derivative(omega).apply(args),
        sf.psi_form_apply(crhs, theta, z, args),
    )
    return [(lhs, rhs)]


def _s2p(clhs, crhs, vectors, forms):
    pairs = []
    z = vectors[-1]
    for theta in forms:
        args = list(vectors[: theta.degree + 1])
        omega = sf.connection_form(clhs, theta, z)
        lhs = geo.exterior_derivative(omega).apply(args)
        rhs = se.add(
            se.sub(
                sf.curvature_form_apply(crhs, theta, z, args),
                sf.psi_form_apply(crhs, theta, z, args),
            ),
            sf.torsion_mixed_form_apply(crhs, theta, z, args),
        )
        pairs.append((lhs, rhs))
    return pairs


def _b1(clhs, crhs, vectors, forms):
    (theta,) = forms
    args = list(vectors[:3])
    lhs = geo.exterior_derivative(sf.torsion_form(clhs, theta)).apply(args)
    rhs = se.add(
        sf.curvature_three_form_apply(crhs, theta, args),
        sf.wedge_covector_torsion_apply(crhs, theta, args),
    )
    return [(lhs, rhs)]


def _b2(clhs, crhs, vectors, forms):
    (theta,) = forms
    x, y, w, z = vectors[:4]
    args = [x, y, w]
    lhs = geo.exterior_derivative(sf.curvature_form(clhs, theta, z)).apply(args)
    rhs = se.add(
        sf.wedge_covector_curvature_apply(crhs, theta, z, args),
        sf.wedge_curvature_three_nabla_apply(crhs, theta, z, args),
    )
    return [(lhs, rhs)]


def _b1v(clhs, crhs, vectors, forms):
    curv, tor = con.curvature(clhs), con.torsion(crhs)
    x, y, z = vectors[:3]
    chart = clhs.chart
    lhs = VectorField(chart, [se.ZERO] * chart.dim)
    rhs = VectorField(chart, [se.ZERO] * chart.dim)
    for a, b, c in sf._rotations((x, y, z)):
        lhs = lhs + curv.apply_to(a, b, c)
        nabla_t = con.covariant_derivative(crhs, a, tor)
        rhs = rhs + nabla_t(b, c) + tor(tor(a, b), c)
    return _vector_pairs(lhs, rhs)


def _b2v(clhs, crhs, vectors, forms):
    curv_lhs, curv_rhs, tor = con.curvature(clhs), con.curvature(crhs), con.torsion(crhs)
    *args, w = vectors[:4]
    lhs = sf._cyclic_sum(
        args, lambda a, b, c: con.covariant_derivative(clhs, a, curv_lhs)(b, c)(w)
    )
    rhs = sf._cyclic_sum(args, lambda a, b, c: curv_rhs.apply_to(a, tor(b, c), w))
    return _vector_pairs(lhs, rhs)


def _form_pairs(lhs_forms, rhs_forms, arity: int):
    """Builder of the pairs (lhs(args), rhs(args)) of two equally long lists
    of forms, on the first ``arity`` sampled vectors."""

    def build(vectors, forms):
        args = list(vectors[:arity])
        return [(lhs.apply(args), rhs.apply(args)) for lhs, rhs in zip(lhs_forms, rhs_forms)]

    return build


def _cs1_factory(case):
    lhs = sf.cartan_coframe_forms(case.connection, case.coframe)
    rhs = sf.cartan_coframe_forms(case.reference_connection, case.coframe)
    theta, omega, idx = case.coframe.coframe, rhs.connection_one_forms, range(case.chart.dim)
    rhs_sides = [
        sum((geo.wedge(omega[a][b], theta[b]) for b in idx), geo.exterior_derivative(theta[a]))
        for a in idx
    ]
    return _form_pairs(lhs.torsion_two_forms, rhs_sides, 2)


def _cs2_factory(case):
    lhs = sf.cartan_coframe_forms(case.connection, case.coframe)
    omega = sf.cartan_coframe_forms(case.reference_connection, case.coframe).connection_one_forms
    idx = range(case.chart.dim)
    rhs_sides = [
        sum((geo.wedge(omega[a][c], omega[c][b]) for c in idx), geo.exterior_derivative(form))
        for a in idx
        for b, form in enumerate(omega[a])
    ]
    return _form_pairs([f for row in lhs.curvature_two_forms for f in row], rhs_sides, 2)


def _c1_factory(case):
    lhs = sf.cartan_coframe_forms(case.connection, case.coframe)
    rhs = sf.cartan_coframe_forms(case.reference_connection, case.coframe)
    omega, tor, idx = lhs.connection_one_forms, lhs.torsion_two_forms, range(case.chart.dim)
    theta, curv, zero = case.coframe.coframe, rhs.curvature_two_forms, PForm.zero(case.chart, 3)
    lhs_sides = [
        sum((geo.wedge(omega[a][b], tor[b]) for b in idx), geo.exterior_derivative(tor[a]))
        for a in idx
    ]
    rhs_sides = [sum((geo.wedge(curv[a][b], theta[b]) for b in idx), zero) for a in idx]
    return _form_pairs(lhs_sides, rhs_sides, 3)


def _c2_factory(case):
    lhs = sf.cartan_coframe_forms(case.connection, case.coframe)
    rhs = sf.cartan_coframe_forms(case.reference_connection, case.coframe)
    omega, curv, idx = lhs.connection_one_forms, lhs.curvature_two_forms, range(case.chart.dim)
    omega_r, curv_r = rhs.connection_one_forms, rhs.curvature_two_forms
    zero = PForm.zero(case.chart, 3)
    lhs_sides = [
        sum((geo.wedge(omega[a][c], curv[c][b]) for c in idx), geo.exterior_derivative(form))
        for a in idx
        for b, form in enumerate(curv[a])
    ]
    rhs_sides = [
        sum((geo.wedge(curv_r[a][c], omega_r[c][b]) for c in idx), zero)
        for a in idx
        for b in idx
    ]
    return _form_pairs(lhs_sides, rhs_sides, 3)


def _d1(clhs, crhs, vectors, forms):
    derived = sf.exterior_covariant_derivative(clhs, sf.soldering_form(clhs.chart))
    x, y = vectors[:2]
    return _vector_pairs(derived(x, y), con.torsion(crhs)(x, y))


def _d2(clhs, crhs, vectors, forms):
    x, y, z = vectors[:3]
    derived = sf.exterior_covariant_derivative(clhs, sf.covariant_differential(clhs, z))
    return _vector_pairs(derived(x, y), con.curvature(crhs).apply_to(x, y, z))


def _db1(clhs, crhs, vectors, forms):
    derived = sf.exterior_covariant_derivative(clhs, con.torsion(clhs))
    args = vectors[:3]
    rhs = sf.wedge_curvature_identity_apply(crhs, list(args))
    return _vector_pairs(derived(*args), rhs)


def _db2(clhs, crhs, vectors, forms):
    derived = sf.exterior_covariant_derivative(clhs, con.curvature(clhs))
    x, y, z, w = vectors[:4]
    value = derived(x, y, z)(w)
    return [(comp, se.ZERO) for comp in value.comps]


def _e1(clhs, crhs, vectors, forms):
    (theta,) = forms
    x, y, z = vectors[:3]
    args = [x, y]
    lhs = sf.curvature_form_apply(clhs, theta, z, args)
    omega = sf.connection_form(crhs, theta, z)
    rhs = se.add(
        se.sub(
            sf.torsion_form_apply(crhs, omega, args),
            sf.xi_form_apply(crhs, omega, args),
        ),
        sf.psi_form_apply(crhs, theta, z, args),
    )
    return [(lhs, rhs)]


def _lc1(clhs, crhs, vectors, forms):
    (theta,) = forms
    args = list(vectors[:3])
    return [(sf.curvature_three_form_apply(clhs, theta, args), se.ZERO)]


def _spec_fixed(vectors: int, form_degrees: tuple[int, ...] = ()):
    def spec(chart: Chart) -> SampleSpec:
        return SampleSpec(vectors=vectors, form_degrees=form_degrees)

    return spec


def _spec_graded(extra_vectors: int):
    """All non-vacuous degrees 1..min(3, dim - 1), vectors for the largest."""

    def spec(chart: Chart) -> SampleSpec:
        # the graded identities relate (p+1)-forms, and every (p+1)-form with
        # p + 1 > dim is zero, so degrees above dim - 1 would add only 0 = 0
        top = min(3, chart.dim - 1)
        return SampleSpec(vectors=top + extra_vectors, form_degrees=tuple(range(1, top + 1)))

    return spec


CATALOG: dict[str, IdentityCheck] = {
    check.identifier: check
    for check in (
        IdentityCheck(
            "S1",
            "torsion form of a 1-form equals its differential plus the alternating derivative sum",
            "first structure equation for 1-forms",
            _spec_fixed(2, (1,)),
            _per_tuple(_s1p),
            degree=2,
        ),
        IdentityCheck(
            "S1p",
            "torsion form equals exterior derivative plus alternating derivative sum, degrees 1..3",
            "first structure equation, general degree",
            _spec_graded(1),
            _per_tuple(_s1p),
        ),
        IdentityCheck(
            "S2",
            "curvature 2-form splits into the differential of the connection form plus the derivative-pairing form",
            "second structure equation for 1-forms",
            _spec_fixed(3, (1,)),
            _per_tuple(_s2),
            degree=2,
        ),
        IdentityCheck(
            "S2p",
            "differential of the connection form rebuilt from curvature, derivative-pairing and torsion-mixed forms",
            "second structure equation, general degree",
            _spec_graded(3),
            _per_tuple(_s2p),
        ),
        IdentityCheck(
            "B1",
            "differential of the torsion form equals the cyclic curvature form plus the torsion wedge",
            "first Bianchi identity, differential-form version",
            _spec_fixed(3, (1,)),
            _per_tuple(_b1),
            degree=3,
        ),
        IdentityCheck(
            "B2",
            "differential of the curvature 2-form splits into the two curvature wedge pairings",
            "second Bianchi identity, differential-form version",
            _spec_fixed(4, (1,)),
            _per_tuple(_b2),
            degree=3,
        ),
        # B1v and B2v are alternating in three fields too, but a declared 3
        # would turn sphere_lc's rounding-level residuals into 0.0 and so
        # change the pinned outputs; they stay at 0 until the catalog's
        # degrees are reviewed as a whole
        IdentityCheck(
            "B1v",
            "cyclic curvature sum equals cyclic torsion-derivative plus iterated-torsion sums",
            "first Bianchi identity, vector version",
            _spec_fixed(3),
            _per_tuple(_b1v),
        ),
        IdentityCheck(
            "B2v",
            "cyclic covariant derivative of curvature equals the cyclic curvature-torsion sum",
            "second Bianchi identity, vector version",
            _spec_fixed(4),
            _per_tuple(_b2v),
        ),
        IdentityCheck(
            "CS1",
            "coframe torsion 2-forms match the structure equation for the coframe differentials",
            "Cartan's first structure equation",
            _spec_fixed(2),
            _cs1_factory,
            _has_coframe,
            degree=2,
        ),
        IdentityCheck(
            "CS2",
            "coframe curvature 2-forms match the structure equation for the connection 1-forms",
            "Cartan's second structure equation",
            _spec_fixed(2),
            _cs2_factory,
            _has_coframe,
            degree=2,
        ),
        IdentityCheck(
            "C1",
            "differential of the torsion 2-forms balances the curvature wedge of the coframe",
            "Cartan's first Bianchi identity",
            _spec_fixed(3),
            _c1_factory,
            _has_coframe,
            degree=3,
        ),
        IdentityCheck(
            "C2",
            "differential of the curvature 2-forms balances the curvature-connection wedges",
            "Cartan's second Bianchi identity",
            _spec_fixed(3),
            _c2_factory,
            _has_coframe,
            degree=3,
        ),
        IdentityCheck(
            "D1",
            "exterior covariant derivative of the soldering form is the torsion",
            "first structure equation, exterior covariant derivative version",
            _spec_fixed(2),
            _per_tuple(_d1),
            degree=2,
        ),
        IdentityCheck(
            "D2",
            "exterior covariant derivative of a covariant differential is the curvature applied to the field",
            "second structure equation, exterior covariant derivative version",
            _spec_fixed(3),
            _per_tuple(_d2),
            degree=2,
        ),
        IdentityCheck(
            "DB1",
            "exterior covariant derivative of the torsion is the curvature wedge of the soldering form",
            "first Bianchi identity, exterior covariant derivative version",
            _spec_fixed(3),
            _per_tuple(_db1),
            degree=3,
        ),
        IdentityCheck(
            "DB2",
            "exterior covariant derivative of the curvature vanishes",
            "second Bianchi identity, exterior covariant derivative version",
            _spec_fixed(4),
            _per_tuple(_db2),
            degree=3,
        ),
        IdentityCheck(
            "E1",
            "curvature 2-form recovered by running the torsion-form construction on the connection form",
            "composition of the two structure equations",
            _spec_fixed(3, (1,)),
            _per_tuple(_e1),
            degree=2,
        ),
        IdentityCheck(
            "LC1",
            "cyclic curvature form vanishes for torsion-free connections",
            "algebraic Bianchi identity in the torsion-free case",
            _spec_fixed(3, (1,)),
            _per_tuple(_lc1),
            _is_torsion_free,
            degree=3,
        ),
    )
}


# -- running checks -----------------------------------------------------------------


def run_check(check: IdentityCheck, case, config: CheckConfig) -> Report:
    """Evaluate both sides of one check on a case and report the worst residual.

    No seed names the check, so its report is the same alone and in a
    suite.  The check runs inside a :func:`sampling` scope: the open one
    of its case in a suite, else one of its own that closes when it
    returns.  Each tuple is built in the sharing table of the scope's
    record of that tuple, so the check gets the pieces that earlier checks
    of the case built from the same fields, and its scan starts from the
    values they computed for those pieces at the same points.  Both are
    what the check would build and compute itself, so the report is the
    same.  On a chart of dimension below the check's declared degree the
    factory is not called and each tuple has the one pair 0 = 0.  The
    scope pauses Python's cycle collector (see
    :func:`sampling`), so a check run alone pauses it while it runs and
    leaves it as the caller had it, also when the check raises.
    """
    with sampling():
        chart = case.chart
        stem = f"{config.seed}/{case.id}"
        points = geo.sample_points(chart, f"{stem}/points", config.points)
        if chart.dim >= check.degree:
            build = check.factory(case)
        else:
            build = lambda vectors, forms: [(se.ZERO, se.ZERO)]
        spec = check.sample_spec(chart)
        # a check that samples no fields would build the same pairs for every tuple
        tuples = config.tuples if spec != SampleSpec() else 1
        # the known values of each tuple's pieces, by tuple
        known = {}

        def pairs():
            for t in range(tuples):
                batch = sample_fields(chart, f"{stem}/{t}", spec)
                pieces = _pieces(chart, f"{stem}/{t}")
                known[t] = pieces.known(len(points))
                for lhs, rhs in pieces.build(build, batch):
                    yield t, lhs, rhs

        worst, worst_point, worst_tuple, cleared = se.worst_residual(
            pairs(), points, config.tolerance, known
        )
    return Report(
        case_id=case.id,
        check_id=check.identifier,
        points=config.points,
        tuples=config.tuples,
        max_residual=worst,
        tolerance=config.tolerance,
        seed=config.seed,
        worst_point=worst_point,
        worst_tuple=worst_tuple,
        cleared=cleared,
    )


def check_identity(check_id: str, case, config: CheckConfig | None = None) -> Report:
    """Run one catalog check on a case it applies to."""
    if check_id not in CATALOG:
        raise UnknownCheckError(f"unknown check '{check_id}'")
    check = CATALOG[check_id]
    if not check.applicable(case):
        raise ApplicabilityError(f"check {check_id} does not apply to case {case.id}")
    return run_check(check, case, config or CheckConfig())


def run_suite(case, config: CheckConfig | None = None) -> list[Report]:
    """Run every applicable catalog check; failures are reported, never raised."""
    config = config or CheckConfig()
    with sampling():
        return [
            check_identity(check_id, case, config)
            for check_id in sorted(CATALOG)
            if CATALOG[check_id].applicable(case)
        ]


def mutation_probe(
    case,
    check_ids: Sequence[str] = ("S1", "B1v", "D1"),
    *,
    index: tuple[int, int, int] = (2, 0, 1),
    delta: float = 1.0,
    config: CheckConfig | None = None,
) -> list[Report]:
    """Corrupt one Christoffel symbol on the left-hand-side path only.

    The perturbed connection drives each check's left side while the original
    stays on the right, so a healthy harness must flag at least one failure.
    """
    k, i, j = index
    probe = dataclasses.replace(
        case,
        id=f"{case.id}+mutated",
        connection=case.connection.perturbed(k, i, j, delta),
        rhs_connection=case.connection,
    )
    config = config or CheckConfig()
    with sampling():
        return [check_identity(check_id, probe, config) for check_id in check_ids]
