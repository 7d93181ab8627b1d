"""Acceptance gate: eight end-to-end criteria, one test per criterion.

Each test prints a single PASS line on success (visible with -s; pytest -v
shows one PASSED/FAILED line per criterion either way).  Tolerances are
stated inline; they are contracts, not suggestions — a red test here means
the claim it encodes does not hold numerically.
"""

import dataclasses
import random
import time

import pytest

from bianchi import applications
from bianchi import case_checks
from bianchi import connection as con
from bianchi import gallery
from bianchi import geometry as geo
from bianchi import identity_suite as ids
from bianchi import structure_forms as sf
from bianchi import symexpr as se
from oracles import (
    connection_form_via_definition,
    curvature_via_definition,
    exterior_derivative_intrinsic_expr,
    worst_abs,
)


def max_abs(exprs, points):
    return worst_abs(se.evaluate(e, pt) for e in exprs for pt in points)


def test_criterion_1_generic_identity_suite_on_the_gallery():
    case_ids = [
        "flat_euclidean",
        "flat_with_torsion",
        "sphere_lc",
        "random_poly:1",
        "random_poly:2",
        "random_poly:3",
        "random_poly:4",
        "random_poly:5",
    ]
    # absolute residuals on every case, the sphere's ~1e5 members included
    config = ids.CheckConfig(points=20, tuples=5, tolerance=1e-8)
    started = time.monotonic()
    total = 0
    for case_id in case_ids:
        case = gallery.build_case(case_id)
        reports = ids.run_suite(case, config)
        # LC1 only applies to torsion-free connections; everything else runs
        expected = 18 if case.torsion_free else 17
        assert len(reports) == expected, (case_id, len(reports))
        failures = [(r.check_id, r.max_residual) for r in reports if not r.passed]
        assert not failures, (case_id, failures)
        total += len(reports)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS: {total} checks on {len(case_ids)} cases, "
        f"tolerance 1e-8, {elapsed:.1f}s"
    )


def test_criterion_2_graded_identities_and_degree_one_agreement():
    case = gallery.build_case("random_poly4")
    config = ids.CheckConfig(points=20, tuples=5, tolerance=1e-8)
    for check_id in ("S1p", "S2p"):
        report = ids.check_identity(check_id, case, config)
        assert report.passed, (check_id, report.max_residual)

    # the graded machinery at degree 1 must reproduce the dedicated 1-form
    # constructions: theta(T(X,Y)), the alternating derivative sum,
    # theta(nabla_X Z), theta(R(X,Y)Z) and the paired-derivative sum
    chart = case.chart
    conn = case.connection
    rng = random.Random("degree-one-agreement")
    points = geo.sample_points(chart, "degree-one-agreement", 20)
    tor = con.torsion(conn)
    curv = con.curvature(conn)
    worst = 0.0
    for _ in range(5):
        theta = geo.random_pform(chart, 1, rng)
        x, y, z = (geo.random_vector_field(chart, rng) for _ in range(3))
        nx_t = con.covariant_derivative(conn, x, theta)
        ny_t = con.covariant_derivative(conn, y, theta)
        nx_z = con.covariant_derivative(conn, x, z)
        ny_z = con.covariant_derivative(conn, y, z)
        direct = {
            "torsion": theta.apply([tor(x, y)]),
            "alternating derivative": se.sub(ny_t.apply([x]), nx_t.apply([y])),
            "connection": theta.apply([nx_z]),
            "curvature": theta.apply([curv.apply_to(x, y, z)]),
            "paired derivative": se.sub(ny_t.apply([nx_z]), nx_t.apply([ny_z])),
        }
        general = {
            "torsion": sf.torsion_form_apply(conn, theta, [x, y]),
            "alternating derivative": sf.xi_form_apply(conn, theta, [x, y]),
            "connection": connection_form_via_definition(conn, theta, z, [x]),
            "curvature": sf.curvature_form_apply(conn, theta, z, [x, y]),
            "paired derivative": sf.psi_form_apply(conn, theta, z, [x, y]),
        }
        for name in direct:
            residual = max_abs([se.sub(direct[name], general[name])], points)
            assert residual <= 1e-12, (name, residual)
            worst = max(worst, residual)
    print(f"ACCEPTANCE 2 PASS: graded checks at 1e-8, degree-1 agreement {worst:.2e}")


def test_criterion_3_formulation_verdicts_agree_on_every_case():
    first_group = ("B1", "B1v", "C1", "DB1")
    second_group = ("B2", "B2v", "C2", "DB2")
    config = ids.CheckConfig(points=12, tuples=3, tolerance=1e-8)
    for case_id in gallery.case_ids():
        case = gallery.build_case(case_id)
        for group in (first_group, second_group):
            verdicts = {}
            for check_id in group:
                if ids.CATALOG[check_id].applicable(case):
                    verdicts[check_id] = ids.check_identity(check_id, case, config).passed
            assert len(set(verdicts.values())) == 1, (case_id, verdicts)
            assert all(verdicts.values()), (case_id, verdicts)
        report = ids.check_identity("E1", case, config)
        assert report.passed, (case_id, report.max_residual)
    print("ACCEPTANCE 3 PASS: verdict agreement and the composed recovery on all cases")


def test_criterion_4_mutation_probe_is_not_vacuous():
    case = gallery.build_case("flat_with_torsion")
    config = ids.CheckConfig(points=20, tuples=5, tolerance=1e-8)
    reports = ids.mutation_probe(case, config=config)
    assert [r.check_id for r in reports] == ["S1", "B1v", "D1"]
    failing = [r.check_id for r in reports if not r.passed]
    assert failing, "corrupting a Christoffel symbol must trip at least one check"
    print(f"ACCEPTANCE 4 PASS: mutation tripped {failing}")


def test_criterion_5_contact_case():
    case = gallery.build_case("contact_r3")
    conn, contact = case.connection, case.contact
    chart, alpha, reeb = case.chart, contact.form, contact.reeb
    points = geo.sample_points(chart, "contact-acceptance", 20)

    config = ids.CheckConfig(points=20, tuples=5, tolerance=1e-8)
    reports = gallery.case_specific_checks(case, config)
    assert len(reports) == 5
    for report in reports:
        assert report.passed, (report.check_id, report.max_residual)

    # rebuilding the structure re-runs every invariant at 1e-9
    rebuilt = applications.derive_contact_structure(alpha)
    assert max_abs((rebuilt.reeb - reeb).comps, points) <= 1e-12

    # the curvature 2-form against the Reeb pair vanishes identically, so
    # contracting its differential with the Reeb field gives zero
    curvature_form = sf.curvature_form(conn, alpha, reeb)
    d_curvature = geo.exterior_derivative(curvature_form)
    contracted = geo.interior_product(reeb, d_curvature)
    assert max_abs(list(contracted.comps.values()) or [se.ZERO], points) <= 1e-8

    # what that zero equals is the full two-term expansion: derivative of the
    # form paired with curvature PLUS form paired with derivative of the
    # argument field; the contact case check above already pins this at 1e-8.
    # Negative control: keeping only the first pairing is wrong by a unit —
    # asserted here so the stronger statement can never silently degrade to
    # the truncated one.
    curv = con.curvature(conn)

    def truncated_only(x, y):
        return se.sub(
            con.covariant_derivative(conn, x, alpha).apply(
                [curv.apply_to(reeb, y, reeb)]
            ),
            con.covariant_derivative(conn, y, alpha).apply(
                [curv.apply_to(reeb, x, reeb)]
            ),
        )

    defect = max_abs(
        [truncated_only(chart.basis_field(0), chart.basis_field(1))], points
    )
    assert defect > 0.5, "dropped pairing unexpectedly vanished"
    print(f"ACCEPTANCE 5 PASS: contact checks at 1e-8, truncation defect {defect:.2f}")


def test_criterion_6_foliation_case():
    config = ids.CheckConfig(points=20, tuples=5, tolerance=1e-8)
    case = gallery.build_case("foliation_adapted")
    reports = gallery.case_specific_checks(case, config)
    assert len(reports) == 4
    for report in reports:
        assert report.passed, (report.check_id, report.max_residual)

    # the restricted torsion identity needs only integrability of the form,
    # not adaptedness: any connection satisfies it on the leaves
    restricted = case_checks.CASE_CHECKS["restricted-torsion-is-identity-wedge"]
    any_conn = gallery.build_case("random_poly:9").connection
    probe = dataclasses.replace(case, connection=any_conn)
    residual = ids.run_check(restricted, probe, config).max_residual
    assert residual <= 1e-8, residual

    # negative control: a non-integrable kernel distribution breaks it
    chart = case.chart
    contact_case = gallery.build_case("contact_r3")
    contact = contact_case.contact
    kernel = (
        chart.basis_field(1),
        geo.VectorField(chart, (se.ONE, se.ZERO, se.Var("y"))),
    )
    foliation = applications.FoliationStructure(contact.form, kernel, contact.reeb)
    probe = dataclasses.replace(contact_case, foliation=foliation)
    defect = ids.run_check(restricted, probe, config).max_residual
    assert defect > 0.5, "non-integrable control unexpectedly passed"

    n4 = gallery.build_case("foliation_adapted_n4")
    n4_reports = gallery.case_specific_checks(n4, config)
    assert [r.check_id for r in n4_reports][4:] == [
        "restricted-torsion-differential-vanishes",
        "restricted-curvature-differential-vanishes",
    ]
    for report in n4_reports:
        assert report.passed, (report.check_id, report.max_residual)
    print(f"ACCEPTANCE 6 PASS: foliation checks at 1e-8, control defect {defect:.2f}")


def test_criterion_7_mechanics_case(omega_rank_profile):
    case = gallery.build_case("sode_oscillator")
    sode = case.sode
    chart = case.chart
    theta, omega = applications.build_cartan_form(sode, case.lagrangian)
    points = geo.sample_points(chart, "mechanics-acceptance", 20)

    # energy 1-form of the oscillator: u dx - (u^2 + x^2)/2 dt
    u, x = se.Var("u"), se.Var("x")
    expected = {
        (0,): se.mul(se.Const(-0.5), se.add(se.mul(u, u), se.mul(x, x))),
        (1,): u,
    }
    worst = 0.0
    for indices in ((0,), (1,), (2,)):
        want = expected.get(indices, se.ZERO)
        worst = worst_abs([worst, max_abs([se.sub(theta.component(indices), want)], points)])
    assert worst <= 1e-12, worst

    d_omega = geo.exterior_derivative(omega)
    assert max_abs(list(d_omega.comps.values()) or [se.ZERO], points) <= 1e-12

    paired = geo.wedge(sode.force_forms[0], sode.contact_forms[0])
    assert max_abs((omega - paired).comps.values(), points) <= 1e-12

    hook = geo.interior_product(sode.semispray, omega)
    assert max_abs(list(hook.comps.values()) or [se.ZERO], points) <= 1e-9

    residuals = applications.massa_pagani_property_residuals(case.connection, sode, points)
    assert len(residuals) == 4
    for name, value in residuals.items():
        assert value <= 1e-9, (name, value)

    config = ids.CheckConfig(points=20, tuples=5, tolerance=1e-9)
    reports = gallery.case_specific_checks(case, config)
    assert len(reports) == 5
    for report in reports:
        assert report.passed, (report.check_id, report.max_residual)

    ranks = omega_rank_profile(omega, points)
    assert ranks == [2] * len(points)
    print("ACCEPTANCE 7 PASS: energy form, closure, frame connection and rank checks")


def test_criterion_8_dual_path_oracles():
    r3 = gallery.R3
    r4 = gallery.R4
    rng = random.Random("dual-path")

    # exterior derivative: coordinate formula against the bracket formula
    worst_d = 0.0
    for chart in (r3, r4):
        points = geo.sample_points(chart, f"dual-path-d/{chart.name}", 10)
        for degree in (1, 2):
            for _ in range(5):
                theta = geo.random_pform(chart, degree, rng)
                fields = [
                    geo.random_vector_field(chart, rng) for _ in range(degree + 1)
                ]
                coordinate = geo.exterior_derivative(theta).apply(fields)
                intrinsic = exterior_derivative_intrinsic_expr(theta, fields)
                worst_d = worst_abs(
                    [worst_d, max_abs([se.sub(coordinate, intrinsic)], points)]
                )
    assert worst_d <= 1e-9, worst_d

    # curvature: component formula against the iterated-derivative definition
    worst_r = 0.0
    for case_id in ("random_poly:6", "random_poly4:6"):
        case = gallery.build_case(case_id)
        curv = con.curvature(case.connection)
        points = geo.sample_points(case.chart, f"dual-path-r/{case_id}", 20)
        for _ in range(5):
            fields = [
                geo.random_vector_field(case.chart, rng) for _ in range(3)
            ]
            direct = curvature_via_definition(case.connection, *fields)
            component = curv.apply_to(*fields)
            worst_r = worst_abs([worst_r, max_abs((direct - component).comps, points)])
    assert worst_r <= 1e-9, worst_r

    # mixed torsion form: direct definition against the value implied by the
    # graded second structure equation, d omega = R - Psi + T_mixed
    case = gallery.build_case("random_poly4")
    conn = case.connection
    chart = case.chart
    points = geo.sample_points(chart, "dual-path-mixed", 10)
    worst_t = 0.0
    for degree in (2, 3):
        for _ in range(3):
            theta = geo.random_pform(chart, degree, rng)
            z = geo.random_vector_field(chart, rng)
            fields = [
                geo.random_vector_field(chart, rng) for _ in range(degree + 1)
            ]
            omega = sf.connection_form(conn, theta, z)
            implied = se.add(
                se.sub(
                    geo.exterior_derivative(omega).apply(fields),
                    sf.curvature_form_apply(conn, theta, z, fields),
                ),
                sf.psi_form_apply(conn, theta, z, fields),
            )
            direct = sf.torsion_mixed_form_apply(conn, theta, z, fields)
            worst_t = worst_abs([worst_t, max_abs([se.sub(direct, implied)], points)])
    assert worst_t <= 1e-8, worst_t
    print(
        f"ACCEPTANCE 8 PASS: dual-path residuals d={worst_d:.2e} "
        f"R={worst_r:.2e} mixed={worst_t:.2e}"
    )
