"""Gallery tests: case construction and validation, the contact and
foliation structures, the SODE frame machinery, and frozen oracle values
for the derived connections and mechanical forms."""

import dataclasses
import random

import pytest

from bianchi import applications
from bianchi import case_checks
from bianchi import connection as con
from bianchi import gallery
from bianchi import geometry as geo
from bianchi import identity_suite as ids
from bianchi import structure_forms as sf
from bianchi import symexpr as se
from bianchi.identity_suite import CheckConfig


R3 = gallery.R3


def points_on(chart, seed=0, n=10):
    rng = random.Random(seed)
    return [geo.random_point(chart, rng) for _ in range(n)]


def assert_vanishes(exprs, points, tol=1e-9):
    for expr in exprs:
        for pt in points:
            assert abs(se.evaluate(expr, pt)) <= tol


# -- registry ---------------------------------------------------------------------


def test_case_ids_catalog():
    assert gallery.case_ids() == [
        "contact_r3",
        "flat_euclidean",
        "flat_with_torsion",
        "foliation_adapted",
        "foliation_adapted_n4",
        "random_poly",
        "random_poly4",
        "sode_oscillator",
        "sphere_lc",
    ]


def test_unknown_case_rejected():
    with pytest.raises(gallery.UnknownCaseError):
        gallery.build_case("klein_bottle")


def test_seed_suffix_rules():
    a = gallery.build_case("random_poly:7")
    b = gallery.build_case("random_poly:8")
    assert a.id == "random_poly:7"
    pt = points_on(R3, 1, 1)[0]
    values_a = [se.evaluate(a.connection.christoffel(0, 0, 0), pt)]
    values_b = [se.evaluate(b.connection.christoffel(0, 0, 0), pt)]
    assert values_a != values_b
    with pytest.raises(gallery.UnknownCaseError):
        gallery.build_case("sphere_lc:3")
    with pytest.raises(gallery.UnknownCaseError):
        gallery.build_case("random_poly:xyz")


def test_every_case_reference_connection_defaults_to_primary():
    case = gallery.build_case("flat_euclidean")
    assert case.reference_connection is case.connection
    other = gallery.build_case("random_poly").connection
    crossed = dataclasses.replace(case, rhs_connection=other)
    assert crossed.reference_connection is other


# -- structural flag validation ------------------------------------------------------


def test_validation_rejects_false_flatness_claim():
    sphere = gallery.build_case("sphere_lc")
    lying = dataclasses.replace(sphere, flat=True)
    with pytest.raises(gallery.CaseValidationError, match="curvature"):
        gallery._validate_case(lying)


def test_validation_rejects_false_torsion_free_claim():
    case = gallery.build_case("flat_with_torsion")
    lying = dataclasses.replace(case, torsion_free=True)
    with pytest.raises(gallery.CaseValidationError, match="torsion"):
        gallery._validate_case(lying)


def test_validation_rejects_incompatible_metric():
    case = gallery.build_case("contact_r3")
    lying = dataclasses.replace(case, connection=con.Connection.zero(R3))
    with pytest.raises(gallery.CaseValidationError, match="compatible"):
        gallery._validate_case(lying)


def test_validation_rejects_non_integrable_foliation_form():
    alpha = applications.standard_contact_form(R3)
    x, y = se.Var("x"), se.Var("y")
    kernel = (
        R3.basis_field(1),
        geo.VectorField(R3, (se.ONE, se.ZERO, y)),
    )
    foliation = applications.FoliationStructure(
        form=alpha, leaf_fields=kernel, transverse=R3.basis_field(2)
    )
    case = dataclasses.replace(
        gallery.build_case("flat_euclidean"), foliation=foliation, coframe=None
    )
    with pytest.raises(gallery.CaseValidationError, match="integrable"):
        gallery._validate_case(case)


# -- contact structure ----------------------------------------------------------------


def test_contact_condition_rejected_for_closed_form():
    with pytest.raises(gallery.ContactConditionError):
        applications.derive_contact_structure(R3.basis_covector(2))


def nan_valued(name):
    """An expression that evaluates to NaN wherever the variable is nonzero."""
    big = se.Const(10**300)
    overflow = se.Mul(se.Mul(big, se.Var(name)), big)
    return se.Add(overflow, se.Neg(overflow))


def test_contact_condition_rejects_nan_component():
    alpha = applications.standard_contact_form(R3) + geo.PForm(R3, 1, {(2,): nan_valued("z")})
    with pytest.raises(gallery.ContactConditionError):
        applications.derive_contact_structure(alpha)


def test_contact_rejects_wrong_degree_and_dimension():
    plane = geo.Chart("plane", ("x", "y"), ((-1.0, 1.0),) * 2)
    with pytest.raises(gallery.ContactConditionError):
        applications.derive_contact_structure(plane.basis_covector(0))
    two_form = geo.wedge(R3.basis_covector(0), R3.basis_covector(1))
    with pytest.raises(gallery.ContactConditionError):
        applications.derive_contact_structure(two_form)


def test_contact_structure_invariants_hold():
    case = gallery.build_case("contact_r3")
    contact = case.contact
    points = points_on(R3, 3)
    rng = random.Random(4)
    fields = [geo.random_vector_field(R3, rng) for _ in range(3)]
    d_alpha = geo.exterior_derivative(contact.form)

    assert_vanishes(geo.interior_product(contact.reeb, d_alpha).comps.values(), points)
    assert_vanishes([se.sub(contact.form.apply([contact.reeb]), se.ONE)], points)
    for x in fields:
        assert_vanishes(
            [se.sub(contact.metric.value(contact.reeb, x), contact.form.apply([x]))],
            points,
        )
    for x in fields:
        for z in fields:
            paired = se.mul(se.Const(2.0), contact.metric.value(x, contact.endomorphism(z)))
            assert_vanishes([se.sub(paired, d_alpha.apply([x, z]))], points)
    for x in fields:
        squared = contact.endomorphism(contact.endomorphism(x))
        target = x.scale(se.neg(se.ONE)) + contact.reeb.scale(contact.form.apply([x]))
        assert_vanishes((squared - target).comps, points)


def test_contact_metric_reproduces_reeb_length_one():
    case = gallery.build_case("contact_r3")
    points = points_on(R3, 5)
    value = case.contact.metric.value(case.contact.reeb, case.contact.reeb)
    assert_vanishes([se.sub(value, se.ONE)], points)


def test_contact_levi_civita_frozen_christoffels():
    """Hand-derived nonzero symbols of the associated metric's connection."""
    conn = gallery.build_case("contact_r3").connection
    pt = {"x": 0.3, "y": 0.7, "z": -0.2}

    def g(k, i, j):
        return se.evaluate(conn.christoffel(k, i, j), pt)

    assert g(0, 0, 1) == pytest.approx(0.7)  # y
    assert g(0, 1, 2) == pytest.approx(-1.0)
    assert g(1, 0, 0) == pytest.approx(-1.4)  # -2y
    assert g(1, 0, 2) == pytest.approx(1.0)
    assert g(2, 0, 1) == pytest.approx(0.7 * 0.7 - 0.5)
    assert g(2, 1, 2) == pytest.approx(-0.7)  # -y
    # symmetry and a couple of zero entries
    assert g(0, 1, 0) == pytest.approx(g(0, 0, 1))
    assert g(1, 2, 0) == pytest.approx(g(1, 0, 2))
    assert g(0, 0, 0) == pytest.approx(0.0)
    assert g(2, 2, 2) == pytest.approx(0.0)


def test_contact_covariant_derivatives_of_form_frozen():
    """nabla_x alpha = dy/2, nabla_y alpha = -dx/2, nabla_z alpha = 0."""
    case = gallery.build_case("contact_r3")
    conn, alpha = case.connection, case.contact.form
    points = points_on(R3, 6)
    half = se.Const(0.5)

    dx_alpha = con.covariant_derivative(conn, R3.basis_field(0), alpha)
    assert_vanishes([se.sub(dx_alpha.component((1,)), half)], points)
    assert_vanishes([dx_alpha.component((0,)), dx_alpha.component((2,))], points)

    dy_alpha = con.covariant_derivative(conn, R3.basis_field(1), alpha)
    assert_vanishes([se.add(dy_alpha.component((0,)), half)], points)
    assert_vanishes([dy_alpha.component((1,)), dy_alpha.component((2,))], points)

    dz_alpha = con.covariant_derivative(conn, R3.basis_field(2), alpha)
    assert_vanishes(dz_alpha.comps.values(), points)


def test_contact_case_checks_all_pass():
    case = gallery.build_case("contact_r3")
    reports = gallery.case_specific_checks(case)
    assert [r.check_id for r in reports] == [
        "reeb-parallel",
        "reeb-covector-parallel",
        "reeb-connection-form-vanishes",
        "reeb-curvature-form-vanishes",
        "reeb-contracted-second-bianchi",
    ]
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_a_check_that_samples_no_fields_is_built_once():
    """Its tuples would all be the same pairs, so one is drawn; the report
    still records the configured tuple count."""
    case = gallery.build_case("contact_r3")
    entry = case_checks.CASE_CHECKS["reeb-parallel"]
    builds = []

    def counting_factory(case):
        build = entry.factory(case)

        def counted(vectors, forms):
            builds.append(vectors)
            return build(vectors, forms)

        return counted

    config = CheckConfig(tuples=5)
    report = ids.run_check(dataclasses.replace(entry, factory=counting_factory), case, config)
    assert len(builds) == 1
    assert report.tuples == 5
    assert report.to_json_dict() == ids.run_check(entry, case, config).to_json_dict()


# -- foliation -------------------------------------------------------------------------


def test_foliation_case_checks_all_pass():
    case = gallery.build_case("foliation_adapted")
    reports = gallery.case_specific_checks(case)
    assert [r.check_id for r in reports] == [
        "restricted-torsion-is-identity-wedge",
        "adapted-derivative-is-scaling",
        "restricted-torsion-form-vanishes",
        "restricted-curvature-form-vanishes",
    ]
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_foliation_n4_runs_the_differential_checks():
    case = gallery.build_case("foliation_adapted_n4")
    reports = gallery.case_specific_checks(case)
    ids = [r.check_id for r in reports]
    assert "restricted-torsion-differential-vanishes" in ids
    assert "restricted-curvature-differential-vanishes" in ids
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_foliation_torsion_nonzero_off_the_leaves():
    """The adapted connection carries real torsion; only its form restricted
    to leaf arguments vanishes."""
    case = gallery.build_case("foliation_adapted")
    tor = con.torsion(case.connection)
    value = tor(R3.basis_field(0), R3.basis_field(1))
    pt = {"x": 0.4, "y": 0.8, "z": 0.1}
    assert any(abs(se.evaluate(c, pt)) > 0.5 for c in value.comps)


RESTRICTED_WEDGE = case_checks.CASE_CHECKS["restricted-torsion-is-identity-wedge"]


def contact_kernel_case():
    """The contact case with the kernel of its contact form posing as a
    foliation, the Reeb field as the transverse field."""
    case = gallery.build_case("contact_r3")
    kernel = (R3.basis_field(1), geo.VectorField(R3, (se.ONE, se.ZERO, se.Var("y"))))
    foliation = applications.FoliationStructure(case.contact.form, kernel, case.contact.reeb)
    return dataclasses.replace(case, foliation=foliation)


def test_non_integrable_form_fails_restricted_wedge_identity():
    """Negative control: the contact form's kernel is not a foliation."""
    report = ids.run_check(RESTRICTED_WEDGE, contact_kernel_case(), CheckConfig(points=10))
    assert report.max_residual > 0.5
    assert not report.passed
    assert report.worst_point is not None
    assert report.worst_tuple is not None


def test_integrable_form_passes_restricted_wedge_identity_for_any_connection():
    """The restricted identity needs integrability, not adaptedness."""
    case = gallery.build_case("foliation_adapted")
    conn = gallery.build_case("random_poly").connection
    probe = dataclasses.replace(case, connection=conn)
    report = ids.run_check(RESTRICTED_WEDGE, probe, CheckConfig(points=10))
    assert report.max_residual <= 1e-9


def test_case_checks_stay_out_of_the_catalog():
    assert set(case_checks.CASE_CHECKS).isdisjoint(ids.CATALOG)


# -- second-order ODE machinery ---------------------------------------------------------


def test_sode_structure_rejects_mismatched_chart():
    with pytest.raises(gallery.GalleryError):
        applications.build_sode_structure(R3, (se.ZERO, se.ZERO))


def test_sode_frame_and_eigenforms_are_dual():
    sode = gallery.build_case("sode_oscillator").sode
    coframe = sode.adapted_coframe()  # raises CoFrameError unless dual
    n = sode.chart.dim
    assert_vanishes(
        [
            se.sub(coframe.coframe[a].apply([coframe.frame[b]]), se.ONE if a == b else se.ZERO)
            for a in range(n)
            for b in range(n)
        ],
        points_on(sode.chart, 11),
        tol=1e-10,
    )


def test_sode_semispray_and_frame_frozen_for_oscillator():
    sode = gallery.build_case("sode_oscillator").sode
    pt = {"t": 0.2, "x": 0.5, "u": -0.3}
    semispray = [se.evaluate(c, pt) for c in sode.semispray.comps]
    assert semispray == pytest.approx([1.0, -0.3, -0.5])  # dt, u, f=-x
    horizontal = [se.evaluate(c, pt) for c in sode.horizontal_fields[0].comps]
    assert horizontal == pytest.approx([0.0, 1.0, 0.0])  # gamma matrix vanishes
    psi = sode.force_forms[0]
    assert se.evaluate(psi.component((2,)), pt) == pytest.approx(1.0)
    assert se.evaluate(psi.component((0,)), pt) == pytest.approx(0.5)  # -f = x


def test_lie_transport_eigenstructure_of_vertical_endomorphism():
    sode = gallery.build_case("sode_oscillator").sode
    points = points_on(sode.chart, 13)

    def lie(x):
        return geo.lie_bracket(sode.semispray, sode.vertical_endomorphism(x)) - (
            sode.vertical_endomorphism(geo.lie_bracket(sode.semispray, x))
        )

    assert_vanishes(lie(sode.semispray).comps, points)
    assert_vanishes((lie(sode.horizontal_fields[0]) + sode.horizontal_fields[0]).comps, points)
    assert_vanishes((lie(sode.vertical_fields[0]) - sode.vertical_fields[0]).comps, points)


def test_massa_pagani_frozen_christoffels_for_oscillator():
    """Hand-derived: the only nonzero coordinate symbols are
    Gamma^u_{x t} = 1 and Gamma^x_{u t} = -1 (direction-first indexing)."""
    conn = gallery.build_case("sode_oscillator").connection
    points = points_on(conn.chart, 17, 5)
    for pt in points:
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    value = se.evaluate(conn.christoffel(k, i, j), pt)
                    if (k, i, j) == (2, 1, 0):
                        assert value == pytest.approx(1.0)
                    elif (k, i, j) == (1, 2, 0):
                        assert value == pytest.approx(-1.0)
                    else:
                        assert value == pytest.approx(0.0, abs=1e-12)


def test_massa_pagani_defining_property_residuals():
    case = gallery.build_case("sode_oscillator")
    residuals = applications.massa_pagani_property_residuals(
        case.connection, case.sode, points_on(case.chart, 19, 20)
    )
    assert set(residuals) == {
        "semispray parallel",
        "time form parallel",
        "vertical endomorphism parallel",
        "vertical frame parallel",
    }
    for name, value in residuals.items():
        assert value <= 1e-9, (name, value)


def test_massa_pagani_rejects_frame_varying_endomorphism():
    sode = gallery.build_case("sode_oscillator").sode
    x = se.Var("x")
    warped = geo.LinearMap(
        sode.chart,
        [
            [se.ZERO, se.ZERO, se.ZERO],
            [se.ZERO, se.ZERO, se.ZERO],
            [se.ZERO, x, se.ZERO],
        ],
    )
    doctored = applications.SodeStructure(
        chart=sode.chart,
        forces=sode.forces,
        semispray=sode.semispray,
        vertical_endomorphism=warped,
        horizontal_fields=sode.horizontal_fields,
        vertical_fields=sode.vertical_fields,
        time_form=sode.time_form,
        contact_forms=sode.contact_forms,
        force_forms=sode.force_forms,
    )
    with pytest.raises(gallery.FrameSolveError):
        applications.derive_massa_pagani(doctored)


def test_massa_pagani_makes_the_adapted_frame_parallel():
    sode = gallery.build_case("sode_oscillator").sode
    conn = applications.derive_massa_pagani(sode)
    frame = [sode.semispray, *sode.horizontal_fields, *sode.vertical_fields]
    basis = sode.chart.coordinate_frame()
    exprs = [
        c for x in basis for field in frame for c in con.covariant_derivative(conn, x, field).comps
    ]
    assert_vanishes(exprs, points_on(sode.chart, 19, 10))


def test_massa_pagani_two_degrees_of_freedom():
    """Coupled forces exercise the n=2 frame construction end to end."""
    chart = geo.Chart(
        "double", ("t", "x1", "x2", "u1", "u2"), ((-1.0, 1.0),) * 5
    )
    x1, x2, u2 = se.Var("x1"), se.Var("x2"), se.Var("u2")
    forces = (se.add(se.neg(x1), se.mul(se.Const(0.3), u2)), se.neg(x2))
    sode = applications.build_sode_structure(chart, forces)
    conn = applications.derive_massa_pagani(sode)
    residuals = applications.massa_pagani_property_residuals(
        conn, sode, points_on(chart, 23, 10)
    )
    for name, value in residuals.items():
        assert value <= 1e-9, (name, value)


# -- Cartan form of the oscillator Lagrangian ------------------------------------------


def test_cartan_form_frozen_components():
    """theta = u dx - (u^2 + x^2)/2 dt for the oscillator Lagrangian."""
    case = gallery.build_case("sode_oscillator")
    theta, _ = applications.build_cartan_form(case.sode, case.lagrangian)
    for pt in points_on(case.chart, 29, 20):
        u, x = pt["u"], pt["x"]
        assert se.evaluate(theta.component((0,)), pt) == pytest.approx(
            -0.5 * (u * u + x * x), abs=1e-12
        )
        assert se.evaluate(theta.component((1,)), pt) == pytest.approx(u, abs=1e-12)
        assert se.evaluate(theta.component((2,)), pt) == pytest.approx(0.0, abs=1e-12)


def test_cartan_two_form_is_closed_and_matches_eigenform_wedge():
    case = gallery.build_case("sode_oscillator")
    sode = case.sode
    _, omega = applications.build_cartan_form(sode, case.lagrangian)
    points = points_on(case.chart, 31)
    assert_vanishes(geo.exterior_derivative(omega).comps.values(), points, tol=1e-12)
    paired = geo.wedge(sode.force_forms[0], sode.contact_forms[0])
    assert_vanishes((omega - paired).comps.values(), points, tol=1e-12)


def test_cartan_form_rejects_singular_lagrangian():
    case = gallery.build_case("sode_oscillator")
    with pytest.raises(gallery.SingularLagrangianError):
        applications.build_cartan_form(case.sode, se.Var("u"))


def test_cartan_form_rejects_nan_hessian():
    case = gallery.build_case("sode_oscillator")
    u = se.Var("u")
    lagrangian = se.add(case.lagrangian, se.mul(nan_valued("x"), se.mul(u, u)))
    with pytest.raises(gallery.SingularLagrangianError):
        applications.build_cartan_form(case.sode, lagrangian)


def test_cartan_two_form_has_rank_two_everywhere(omega_rank_profile):
    case = gallery.build_case("sode_oscillator")
    _, omega = applications.build_cartan_form(case.sode, case.lagrangian)
    ranks = omega_rank_profile(omega, points_on(case.chart, 37, 12))
    assert ranks == [2] * 12


def test_sode_case_checks_all_pass():
    case = gallery.build_case("sode_oscillator")
    reports = gallery.case_specific_checks(case)
    assert [r.check_id for r in reports] == [
        "closure-structure-equivalence",
        "helmholtz-torsion-vertical",
        "helmholtz-torsion-horizontal",
        "helmholtz-derivative-mixed",
        "helmholtz-derivative-vertical",
    ]
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_case_checks_empty_for_baseline_cases():
    for case_id in ("flat_euclidean", "sphere_lc", "random_poly"):
        case = gallery.build_case(case_id)
        assert gallery.case_specific_checks(case, CheckConfig(points=2, tuples=1)) == []


def test_only_cases_with_an_application_structure_have_claims():
    # case_specific_checks imports the claims only for these cases
    for case_id in gallery.case_ids():
        case = gallery.build_case(case_id)
        claims = [c for c in case_checks.CASE_CHECKS.values() if c.applicable(case)]
        assert gallery._carries_claims(case) == bool(claims), case_id


@pytest.mark.parametrize("case_id", ["foliation_adapted", "sode_oscillator"])
def test_case_checks_call_structure_forms_through_the_module(monkeypatch, case_id):
    """A wrapper installed on structure_forms after the claims are imported
    (as a tracer installs its spans) sees their calls."""
    calls = {"torsion_form_apply": 0, "xi_form_apply": 0}
    for name in calls:
        original = getattr(sf, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(sf, name, counted)
    case = gallery.build_case(case_id)
    reports = gallery.case_specific_checks(case, CheckConfig(points=2, tuples=1))
    assert reports and all(r.passed for r in reports)
    assert all(calls.values()), calls
