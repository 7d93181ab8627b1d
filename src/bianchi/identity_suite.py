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

:func:`run_check` builds each sampled tuple's pairs inside a
:func:`bianchi.geometry.sharing` scope, so the pieces that the pairs repeat
(omega(X), nabla_X Z, X wedge Y, R(X, Y), ...) are built once per tuple;
factories run outside it.  Fields are seeded by case and tuple, not by
check, so all checks of a case see the same fields at tuple t; inside a
:func:`sampling` scope each is drawn once.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
from collections.abc import Callable, Sequence
from contextlib import contextmanager
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


# -- sampling ------------------------------------------------------------------


@dataclass(frozen=True)
class SampleSpec:
    """Counts and degrees of the random objects a check consumes per tuple."""

    vectors: int = 0
    form_degrees: tuple[int, ...] = ()


@dataclass(frozen=True)
class SampleBatch:
    vectors: tuple[VectorField, ...]
    forms: tuple[PForm, ...]


# the fields drawn in the open sampling scope, or None outside one
_drawn: dict | None = None


@contextmanager
def sampling():
    """A scope inside which :func:`sample_fields` draws each slot once;
    a nested scope reuses the open one.  Emptied on exit, also on error."""
    global _drawn
    if _drawn is not None:
        yield
        return
    _drawn = drawn = {}
    try:
        yield
    finally:
        _drawn = None
        drawn.clear()


def _draw(chart: Chart, stream: str, sample: Callable):
    """``sample(random.Random(stream))``, once per scope and chart."""
    drawn = {} if _drawn is None else _drawn
    key = (chart, stream)
    got = drawn.get(key)
    if got is None:
        got = drawn[key] = sample(random.Random(stream))
    return got


def sample_fields(chart: Chart, seed, spec: SampleSpec) -> SampleBatch:
    """Deterministically sample vector fields and p-forms.

    Vector i comes from the stream ``{seed}/v{i}`` and the k-th form of
    degree d from ``{seed}/f{d}.{k}``, so a smaller spec gets the same
    first slots.  Vector fields use random polynomial components
    (non-commuting, so bracket terms in the identities stay exercised).
    A degree outside 0..dim raises :class:`~bianchi.geometry.DegreeError`.
    """
    vectors = tuple(
        _draw(chart, f"{seed}/v{i}", lambda rng: geo.random_vector_field(chart, rng))
        for i in range(spec.vectors)
    )
    forms, counts = [], {}
    for d in spec.form_degrees:
        k = counts[d] = counts.get(d, -1) + 1
        forms.append(_draw(chart, f"{seed}/f{d}.{k}", lambda rng: geo.random_pform(chart, d, rng)))
    return SampleBatch(vectors, tuple(forms))


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
    seed: object
    worst_point: dict | None = None
    worst_tuple: int | None = None
    # residuals above the tolerance, all in pairs that hold exactly
    cleared: bool = False

    @property
    def passed(self) -> bool:
        """Every residual within the tolerance (NaN is not), or cleared."""
        return self.max_residual <= self.tolerance or self.cleared

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

    def __post_init__(self):
        if self.points < 1:
            raise SuiteError("points must be at least 1")
        if self.tuples < 1:
            raise SuiteError("tuples must be at least 1")
        if not 0 < self.tolerance < math.inf:
            raise SuiteError("tolerance must be a positive finite number")


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
        for a, b, c in sf._rotations((x, y, z)):
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
        *args, w = vectors[:4]
        lhs = sf._cyclic_sum(
            args, lambda a, b, c: con.covariant_derivative(clhs, a, curv_lhs)(b, c)(w)
        )
        rhs = sf._cyclic_sum(args, lambda a, b, c: curv_rhs.apply_to(a, tor(b, c), w))
        return _vector_pairs(lhs, rhs)

    return build


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
    """Evaluate both sides of one check on a case and report the worst residual.

    No seed names the check, so its report is the same alone and in a
    suite.  Python's cycle collector is paused while the check runs and
    left as the caller had it afterwards, also when the check raises.
    """
    # A check makes no reference cycles: its expression DAGs, their
    # derivative memos and every evaluation memo are freed by reference
    # counting alone, so the collector would only rescan the growing DAGs and
    # find nothing.  Pinned by tests/test_symexpr.py's
    # test_*_leaves_no_reference_cycles and tests/test_identity_suite.py's
    # test_checks_leave_no_reference_cycles.
    collecting = gc.isenabled()
    gc.disable()
    try:
        chart = case.chart
        stem = f"{config.seed}/{case.id}"
        points = geo.sample_points(chart, f"{stem}/points", config.points)
        build = check.factory(case)
        spec = check.sample_spec(chart)
        # a check that samples no fields would build the same pairs for every tuple
        tuples = config.tuples if spec != SampleSpec() else 1

        def pairs():
            for t in range(tuples):
                batch = sample_fields(chart, f"{stem}/{t}", spec)
                # the pieces that the pairs of one tuple repeat are built once
                with geo.sharing():
                    built = build(batch.vectors, batch.forms)
                for lhs, rhs in built:
                    yield t, lhs, rhs

        worst, worst_point, worst_tuple, cleared = se.worst_residual(
            pairs(), points, config.tolerance
        )
    finally:
        if collecting:
            gc.enable()
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
