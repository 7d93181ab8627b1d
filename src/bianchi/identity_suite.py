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
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

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


class SamplingError(SuiteError):
    pass


# -- sampling ------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    """Counts and degrees of the random objects a check consumes per tuple."""

    vectors: int = 0
    form_degrees: tuple[int, ...] = ()


@dataclass(frozen=True)
class SampleBatch:
    points: tuple[dict, ...]
    vectors: tuple[VectorField, ...]
    forms: tuple[PForm, ...]


def sample_fields(chart: Chart, seed, spec: SampleSpec, points: int = 0) -> SampleBatch:
    """Deterministically sample points, vector fields and p-forms.

    The RNG is keyed by ``seed`` alone, so equal seeds give identical output.
    Vector fields use random polynomial components (non-commuting, so bracket
    terms in the identities stay exercised).
    """
    for degree in spec.form_degrees:
        if degree < 0 or degree > chart.dim:
            raise SamplingError(
                f"cannot sample a degree-{degree} form on a {chart.dim}-dimensional chart"
            )
    rng = random.Random(str(seed))
    pts = tuple(geo.random_point(chart, rng) for _ in range(points))
    vectors = tuple(geo.random_vector_field(chart, rng) for _ in range(spec.vectors))
    forms = tuple(geo.random_pform(chart, d, rng) for d in spec.form_degrees)
    return SampleBatch(pts, vectors, forms)


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """Outcome of one identity check on one case."""

    case_id: str
    check_id: str
    points: int
    tuples: int
    max_residual: float
    tolerance: float
    passed: bool
    seed: object
    worst_point: dict | None = None
    worst_tuple: int | None = None

    def __post_init__(self):
        if self.passed != (self.max_residual <= self.tolerance):
            raise SuiteError("pass flag contradicts the recorded residual")

    def to_json_dict(self) -> dict:
        """Stable serialization: exactly these keys, in this order."""
        return {
            "case": self.case_id,
            "check": self.check_id,
            "points": self.points,
            "tuples": self.tuples,
            "max_residual": self.max_residual,
            "tol": self.tolerance,
            "pass": self.passed,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CheckConfig:
    points: int = 20
    tuples: int = 5
    tolerance: float = 1e-8
    seed: object = 0
    relative: bool = False

    def __post_init__(self):
        if self.points < 1:
            raise SuiteError("points must be at least 1")
        if self.tuples < 1:
            raise SuiteError("tuples must be at least 1")
        if self.tolerance <= 0:
            raise SuiteError("tolerance must be positive")


# -- the catalog -------------------------------------------------------------------

# A builder factory receives the case and returns a per-tuple builder mapping
# (vectors, forms) to a list of (lhs, rhs) expression pairs.  Factories do the
# tuple-independent work (e.g. coframe form assembly) exactly once.
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


def _has_coframe(case) -> bool:
    return case.coframe is not None


def _is_torsion_free(case) -> bool:
    return case.torsion_free


def _max_form_degree(chart: Chart) -> int:
    # the graded identities relate (p+1)-forms; degrees with p+1 > dim are
    # vacuous (every member is the canonical zero) and evaluating their
    # alternating sums yields pure cancellation noise, so cap p at dim - 1
    return min(3, chart.dim - 1)


def _vector_pairs(lhs: VectorField, rhs: VectorField) -> list:
    return list(zip(lhs.comps, rhs.comps))


def _cyclic(triple):
    a, b, c = triple
    return ((a, b, c), (b, c, a), (c, a, b))


def _s1p_factory(case):
    clhs, crhs = case.connection, case.reference_connection

    def build(vectors, forms):
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

    return build


def _s2_factory(case):
    clhs, crhs = case.connection, case.reference_connection

    def build(vectors, forms):
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

    return build


def _s2p_factory(case):
    clhs, crhs = case.connection, case.reference_connection

    def build(vectors, forms):
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

    return build


def _trivial_build(vectors, forms):
    """Builder for identities between degree-3 members on charts of dim < 3.

    Every member is the canonical zero form there, so the identity reduces
    to 0 = 0; evaluating the alternating sums anyway would only measure
    floating-point cancellation noise.
    """
    return [(se.ZERO, se.ZERO)]


def _b1_factory(case):
    clhs, crhs = case.connection, case.reference_connection
    if case.chart.dim < 3:
        return _trivial_build

    def build(vectors, forms):
        (theta,) = forms
        args = list(vectors[:3])
        lhs = geo.exterior_derivative(sf.torsion_form(clhs, theta)).apply(args)
        rhs = se.add(
            sf.curvature_three_form_apply(crhs, theta, args),
            sf.wedge_covector_torsion_apply(crhs, theta, args),
        )
        return [(lhs, rhs)]

    return build


def _b2_factory(case):
    clhs, crhs = case.connection, case.reference_connection
    if case.chart.dim < 3:
        return _trivial_build

    def build(vectors, forms):
        (theta,) = forms
        x, y, w, z = vectors[:4]
        args = [x, y, w]
        lhs = geo.exterior_derivative(sf.curvature_form(clhs, theta, z)).apply(args)
        rhs = se.add(
            sf.wedge_covector_curvature_apply(crhs, theta, z, args),
            sf.wedge_curvature_three_nabla_apply(crhs, theta, z, args),
        )
        return [(lhs, rhs)]

    return build


def _b1v_factory(case):
    clhs, crhs = case.connection, case.reference_connection
    curv = con.curvature(clhs)
    tor = con.torsion(crhs)

    def build(vectors, forms):
        x, y, z = vectors[:3]
        chart = case.chart
        lhs = VectorField(chart, [se.ZERO] * chart.dim)
        rhs = VectorField(chart, [se.ZERO] * chart.dim)
        for a, b, c in _cyclic((x, y, z)):
            lhs = lhs + curv.apply_to(a, b, c)
            nabla_t = con.covariant_derivative(crhs, a, tor)
            rhs = rhs + nabla_t(b, c) + tor(tor(a, b), c)
        return _vector_pairs(lhs, rhs)

    return build


def _b2v_factory(case):
    clhs, crhs = case.connection, case.reference_connection
    curv_lhs = con.curvature(clhs)
    curv_rhs = con.curvature(crhs)
    tor = con.torsion(crhs)

    def build(vectors, forms):
        x, y, z, w = vectors[:4]
        chart = case.chart
        lhs = VectorField(chart, [se.ZERO] * chart.dim)
        rhs = VectorField(chart, [se.ZERO] * chart.dim)
        for a, b, c in _cyclic((x, y, z)):
            nabla_r = con.covariant_derivative(clhs, a, curv_lhs)
            lhs = lhs + nabla_r(b, c)(w)
            rhs = rhs + curv_rhs.apply_to(a, tor(b, c), w)
        return _vector_pairs(lhs, rhs)

    return build


def _cartan_forms(case):
    """Coframe structure forms of the left and the right connection; one
    build serves both sides when they are the same connection."""
    lhs_forms = sf.cartan_coframe_forms(case.connection, case.coframe)
    if case.reference_connection is case.connection:
        return lhs_forms, lhs_forms
    return lhs_forms, sf.cartan_coframe_forms(case.reference_connection, case.coframe)


def _cs1_factory(case):
    coframe = case.coframe
    lhs_forms, rhs_forms = _cartan_forms(case)
    n = case.chart.dim
    rhs_sides = []
    for a in range(n):
        total = geo.exterior_derivative(coframe.coframe[a])
        for b in range(n):
            total = total + geo.wedge(rhs_forms.connection_one_forms[a][b], coframe.coframe[b])
        rhs_sides.append(total)

    def build(vectors, forms):
        args = list(vectors[:2])
        return [
            (lhs_forms.torsion_two_forms[a].apply(args), rhs_sides[a].apply(args))
            for a in range(n)
        ]

    return build


def _cs2_factory(case):
    lhs_forms, rhs_forms = _cartan_forms(case)
    n = case.chart.dim
    rhs_sides = []
    for a in range(n):
        row = []
        for b in range(n):
            total = geo.exterior_derivative(rhs_forms.connection_one_forms[a][b])
            for c in range(n):
                total = total + geo.wedge(
                    rhs_forms.connection_one_forms[a][c],
                    rhs_forms.connection_one_forms[c][b],
                )
            row.append(total)
        rhs_sides.append(row)

    def build(vectors, forms):
        args = list(vectors[:2])
        return [
            (lhs_forms.curvature_two_forms[a][b].apply(args), rhs_sides[a][b].apply(args))
            for a in range(n)
            for b in range(n)
        ]

    return build


def _wedge_capped(a: PForm, b: PForm) -> PForm:
    """Wedge that returns the canonical zero above top degree.

    Mirrors the exterior derivative's convention so degree-3 identities stay
    well-formed (and trivially true) on 2-dimensional charts.
    """
    degree = a.degree + b.degree
    if degree > a.chart.dim:
        return PForm.zero(a.chart, degree)
    return geo.wedge(a, b)


def _c1_factory(case):
    coframe = case.coframe
    lhs_forms, rhs_forms = _cartan_forms(case)
    n = case.chart.dim
    lhs_sides, rhs_sides = [], []
    for a in range(n):
        lhs_total = geo.exterior_derivative(lhs_forms.torsion_two_forms[a])
        rhs_total = PForm.zero(case.chart, 3)
        for b in range(n):
            lhs_total = lhs_total + _wedge_capped(
                lhs_forms.connection_one_forms[a][b], lhs_forms.torsion_two_forms[b]
            )
            rhs_total = rhs_total + _wedge_capped(
                rhs_forms.curvature_two_forms[a][b], coframe.coframe[b]
            )
        lhs_sides.append(lhs_total)
        rhs_sides.append(rhs_total)

    def build(vectors, forms):
        args = list(vectors[:3])
        return [(lhs_sides[a].apply(args), rhs_sides[a].apply(args)) for a in range(n)]

    return build


def _c2_factory(case):
    lhs_forms, rhs_forms = _cartan_forms(case)
    n = case.chart.dim
    lhs_sides, rhs_sides = [], []
    for a in range(n):
        lhs_row, rhs_row = [], []
        for b in range(n):
            lhs_total = geo.exterior_derivative(lhs_forms.curvature_two_forms[a][b])
            rhs_total = PForm.zero(case.chart, 3)
            for c in range(n):
                lhs_total = lhs_total + _wedge_capped(
                    lhs_forms.connection_one_forms[a][c],
                    lhs_forms.curvature_two_forms[c][b],
                )
                rhs_total = rhs_total + _wedge_capped(
                    rhs_forms.curvature_two_forms[a][c],
                    rhs_forms.connection_one_forms[c][b],
                )
            lhs_row.append(lhs_total)
            rhs_row.append(rhs_total)
        lhs_sides.append(lhs_row)
        rhs_sides.append(rhs_row)

    def build(vectors, forms):
        args = list(vectors[:3])
        return [
            (lhs_sides[a][b].apply(args), rhs_sides[a][b].apply(args))
            for a in range(n)
            for b in range(n)
        ]

    return build


def _d1_factory(case):
    clhs, crhs = case.connection, case.reference_connection
    derived = sf.exterior_covariant_derivative(clhs, sf.soldering_form(case.chart))
    tor = con.torsion(crhs)

    def build(vectors, forms):
        x, y = vectors[:2]
        return _vector_pairs(derived(x, y), tor(x, y))

    return build


def _d2_factory(case):
    clhs, crhs = case.connection, case.reference_connection
    curv = con.curvature(crhs)

    def build(vectors, forms):
        x, y, z = vectors[:3]
        derived = sf.exterior_covariant_derivative(clhs, sf.covariant_differential(clhs, z))
        return _vector_pairs(derived(x, y), curv.apply_to(x, y, z))

    return build


def _db1_factory(case):
    clhs, crhs = case.connection, case.reference_connection
    if case.chart.dim < 3:
        return _trivial_build
    derived = sf.exterior_covariant_derivative(clhs, con.torsion(clhs))

    def build(vectors, forms):
        args = vectors[:3]
        rhs = sf.wedge_curvature_identity_apply(crhs, list(args))
        return _vector_pairs(derived(*args), rhs)

    return build


def _db2_factory(case):
    clhs = case.connection
    if case.chart.dim < 3:
        return _trivial_build
    derived = sf.exterior_covariant_derivative(clhs, con.curvature(clhs))

    def build(vectors, forms):
        x, y, z, w = vectors[:4]
        value = derived(x, y, z)(w)
        return [(comp, se.ZERO) for comp in value.comps]

    return build


def _e1_factory(case):
    clhs, crhs = case.connection, case.reference_connection

    def build(vectors, forms):
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

    return build


def _lc1_factory(case):
    clhs = case.connection
    if case.chart.dim < 3:
        return _trivial_build

    def build(vectors, forms):
        (theta,) = forms
        args = list(vectors[:3])
        lhs = sf.curvature_three_form_apply(clhs, theta, args)
        return [(lhs, se.ZERO)]

    return build


def _spec_fixed(vectors: int, form_degrees: tuple[int, ...] = ()):
    def spec(chart: Chart) -> SampleSpec:
        return SampleSpec(vectors=vectors, form_degrees=form_degrees)

    return spec


def _spec_graded(extra_vectors: int):
    """All non-vacuous degrees 1..min(3, dim - 1), vectors for the largest."""

    def spec(chart: Chart) -> SampleSpec:
        top = _max_form_degree(chart)
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
            _s1p_factory,
        ),
        IdentityCheck(
            "S1p",
            "torsion form equals exterior derivative plus alternating derivative sum, degrees 1..3",
            "first structure equation, general degree",
            _spec_graded(1),
            _s1p_factory,
        ),
        IdentityCheck(
            "S2",
            "curvature 2-form splits into the differential of the connection form plus the derivative-pairing form",
            "second structure equation for 1-forms",
            _spec_fixed(3, (1,)),
            _s2_factory,
        ),
        IdentityCheck(
            "S2p",
            "differential of the connection form rebuilt from curvature, derivative-pairing and torsion-mixed forms",
            "second structure equation, general degree",
            _spec_graded(3),
            _s2p_factory,
        ),
        IdentityCheck(
            "B1",
            "differential of the torsion form equals the cyclic curvature form plus the torsion wedge",
            "first Bianchi identity, differential-form version",
            _spec_fixed(3, (1,)),
            _b1_factory,
        ),
        IdentityCheck(
            "B2",
            "differential of the curvature 2-form splits into the two curvature wedge pairings",
            "second Bianchi identity, differential-form version",
            _spec_fixed(4, (1,)),
            _b2_factory,
        ),
        IdentityCheck(
            "B1v",
            "cyclic curvature sum equals cyclic torsion-derivative plus iterated-torsion sums",
            "first Bianchi identity, vector version",
            _spec_fixed(3),
            _b1v_factory,
        ),
        IdentityCheck(
            "B2v",
            "cyclic covariant derivative of curvature equals the cyclic curvature-torsion sum",
            "second Bianchi identity, vector version",
            _spec_fixed(4),
            _b2v_factory,
        ),
        IdentityCheck(
            "CS1",
            "coframe torsion 2-forms match the structure equation for the coframe differentials",
            "Cartan's first structure equation",
            _spec_fixed(2),
            _cs1_factory,
            _has_coframe,
        ),
        IdentityCheck(
            "CS2",
            "coframe curvature 2-forms match the structure equation for the connection 1-forms",
            "Cartan's second structure equation",
            _spec_fixed(2),
            _cs2_factory,
            _has_coframe,
        ),
        IdentityCheck(
            "C1",
            "differential of the torsion 2-forms balances the curvature wedge of the coframe",
            "Cartan's first Bianchi identity",
            _spec_fixed(3),
            _c1_factory,
            _has_coframe,
        ),
        IdentityCheck(
            "C2",
            "differential of the curvature 2-forms balances the curvature-connection wedges",
            "Cartan's second Bianchi identity",
            _spec_fixed(3),
            _c2_factory,
            _has_coframe,
        ),
        IdentityCheck(
            "D1",
            "exterior covariant derivative of the soldering form is the torsion",
            "first structure equation, exterior covariant derivative version",
            _spec_fixed(2),
            _d1_factory,
        ),
        IdentityCheck(
            "D2",
            "exterior covariant derivative of a covariant differential is the curvature applied to the field",
            "second structure equation, exterior covariant derivative version",
            _spec_fixed(3),
            _d2_factory,
        ),
        IdentityCheck(
            "DB1",
            "exterior covariant derivative of the torsion is the curvature wedge of the soldering form",
            "first Bianchi identity, exterior covariant derivative version",
            _spec_fixed(3),
            _db1_factory,
        ),
        IdentityCheck(
            "DB2",
            "exterior covariant derivative of the curvature vanishes",
            "second Bianchi identity, exterior covariant derivative version",
            _spec_fixed(4),
            _db2_factory,
        ),
        IdentityCheck(
            "E1",
            "curvature 2-form recovered by running the torsion-form construction on the connection form",
            "composition of the two structure equations",
            _spec_fixed(3, (1,)),
            _e1_factory,
        ),
        IdentityCheck(
            "LC1",
            "cyclic curvature form vanishes for torsion-free connections",
            "algebraic Bianchi identity in the torsion-free case",
            _spec_fixed(3, (1,)),
            _lc1_factory,
            _is_torsion_free,
        ),
    )
}


# -- running checks -----------------------------------------------------------------


def run_check(check: IdentityCheck, case, config: CheckConfig) -> Report:
    """Evaluate both sides of one check on a case and report the worst residual."""
    chart = case.chart
    stem = f"{config.seed}/{case.id}/{check.identifier}"
    point_batch = sample_fields(chart, f"{stem}/points", SampleSpec(), points=config.points)
    build = check.factory(case)
    spec = check.sample_spec(chart)

    def pairs():
        for t in range(config.tuples):
            batch = sample_fields(chart, f"{stem}/{t}", spec)
            for lhs, rhs in build(batch.vectors, batch.forms):
                yield t, lhs, rhs

    worst, worst_point, worst_tuple = se.worst_residual(
        pairs(), point_batch.points, config.relative
    )
    return Report(
        case_id=case.id,
        check_id=check.identifier,
        points=config.points,
        tuples=config.tuples,
        max_residual=worst,
        tolerance=config.tolerance,
        passed=worst <= config.tolerance,
        seed=config.seed,
        worst_point=worst_point,
        worst_tuple=worst_tuple,
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
    reports = []
    for check_id in sorted(CATALOG):
        if not CATALOG[check_id].applicable(case):
            continue
        reports.append(check_identity(check_id, case, config))
    return reports


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
    return [check_identity(check_id, probe, config) for check_id in check_ids]
