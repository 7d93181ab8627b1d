"""Harness tests: sampling determinism, report contracts, catalog runs on
the gallery, applicability rules, and mutation sensitivity."""

import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc
import weakref

import pytest

from bianchi import case_checks
from bianchi import casefile
from bianchi import connection as con
from bianchi import gallery
from bianchi import geometry as geo
from bianchi import identity_suite as ids
from bianchi import structure_forms as sf
from bianchi import symexpr as se
from oracles import collector, const_constructions, dense_metric_entry, same_tree


R3 = gallery.R3
SPHERE = gallery.SPHERE


# -- sampling ------------------------------------------------------------------


def test_sample_fields_deterministic_for_fixed_seed():
    spec = ids.SampleSpec(vectors=3, form_degrees=(1, 2))
    a = ids.sample_fields(R3, 42, spec)
    b = ids.sample_fields(R3, 42, spec)
    assert geo.sample_points(R3, 42, 4) == geo.sample_points(R3, 42, 4)
    for va, vb in zip(a.vectors, b.vectors, strict=True):
        assert all(map(same_tree, va.comps, vb.comps))
    for fa, fb in zip(a.forms, b.forms, strict=True):
        assert fa.comps.keys() == fb.comps.keys()
        assert all(same_tree(fa.comps[key], fb.comps[key]) for key in fa.comps)


def test_sample_fields_different_seeds_differ():
    spec = ids.SampleSpec(vectors=1)
    a = ids.sample_fields(R3, "seed-a", spec)
    b = ids.sample_fields(R3, "seed-b", spec)
    assert not all(map(same_tree, a.vectors[0].comps, b.vectors[0].comps))


def test_sample_fields_rejects_degree_beyond_dimension():
    line = geo.Chart("line", ("x",), ((-1.0, 1.0),))
    with pytest.raises(geo.DegreeError):
        ids.sample_fields(line, 0, ids.SampleSpec(form_degrees=(2,)))


def test_sample_fields_points_stay_in_chart_intervals():
    for pt in geo.sample_points(SPHERE, 7, 20):
        assert 0.3 <= pt["phi"] <= 2.8
        assert 0.1 <= pt["psi"] <= 6.18


# -- one sample per case and tuple ---------------------------------------------------

SMALL = ids.CheckConfig(points=3, tuples=2)


class _Tracked(geo.VectorField):
    """A sampled vector field that a weak reference can watch."""

    __slots__ = ("__weakref__",)


@pytest.fixture
def sampled(monkeypatch):
    """Weak references to every vector field sampled from now on."""
    refs = []
    draw = geo.random_vector_field

    def tracked(chart, rng):
        field = _Tracked(chart, draw(chart, rng).comps)
        refs.append(weakref.ref(field))
        return field

    monkeypatch.setattr(geo, "random_vector_field", tracked)
    return refs


def test_a_smaller_spec_gets_the_same_first_slots():
    big = ids.SampleSpec(vectors=3, form_degrees=(1, 2, 1))
    small = ids.SampleSpec(vectors=1, form_degrees=(1,))
    a, b = ids.sample_fields(R3, 5, big), ids.sample_fields(R3, 5, small)
    assert all(map(same_tree, a.vectors[0].comps, b.vectors[0].comps))
    assert all(same_tree(a.forms[0].comps[k], b.forms[0].comps[k]) for k in a.forms[0].comps)
    assert b.vectors[0] is not a.vectors[0]  # outside a scope every call draws afresh
    with ids.sampling():
        a, b = ids.sample_fields(R3, 5, big), ids.sample_fields(R3, 5, small)
        assert b.vectors[0] is a.vectors[0] and b.forms[0] is a.forms[0]
        # the second 1-form is a slot of its own
        first, second = a.forms[0].comps, a.forms[2].comps
        assert not all(same_tree(first[k], second[k]) for k in first)


def test_the_checks_of_a_case_get_the_same_fields_at_each_tuple(monkeypatch):
    batches = {}
    sample = ids.sample_fields

    def recording(chart, seed, spec):
        batch = sample(chart, seed, spec)
        batches.setdefault(seed, []).append(batch)
        return batch

    monkeypatch.setattr(ids, "sample_fields", recording)
    reports = ids.run_suite(gallery.build_case("random_poly"), SMALL)
    # one call per check and tuple, seeded by the case and tuple alone
    assert sorted(batches) == ["0/random_poly/0", "0/random_poly/1"]
    assert all(len(drawn) == len(reports) for drawn in batches.values())
    objects = {}
    for seed, drawn in batches.items():
        for batch in drawn:
            degrees = [form.degree for form in batch.forms]
            slots = [("v", i) for i in range(len(batch.vectors))]
            slots += [("f", d, degrees[:k].count(d)) for k, d in enumerate(degrees)]
            for slot, field in zip(slots, (*batch.vectors, *batch.forms)):
                objects.setdefault((seed, slot), set()).add(id(field))
    assert all(len(found) == 1 for found in objects.values())
    first, second = sorted(batches)
    assert objects[first, ("v", 0)] != objects[second, ("v", 0)]


def test_run_suite_draws_each_slot_once_per_tuple(monkeypatch):
    """A structural pin: one random polynomial per component of each
    distinct slot and tuple, not one per check."""
    drawn = []
    draw = geo.random_polynomial

    def counting(chart, rng, degree=2):
        drawn.append(chart)
        return draw(chart, rng, degree)

    case = gallery.build_case("random_poly")
    monkeypatch.setattr(geo, "random_polynomial", counting)
    reports = ids.run_suite(case, SMALL)
    specs = [ids.CATALOG[r.check_id].sample_spec(case.chart) for r in reports]
    dim = case.chart.dim
    forms = {(d, s.form_degrees[:k].count(d)) for s in specs for k, d in enumerate(s.form_degrees)}
    per_tuple = max(s.vectors for s in specs) * dim + sum(math.comb(dim, d) for d, _ in forms)
    # random_poly: five vector slots (S2p), one 1-form and one 2-form
    assert per_tuple == 5 * 3 + 3 + 3
    assert len(drawn) == SMALL.tuples * per_tuple


@pytest.mark.parametrize("points", [1, 5])
@pytest.mark.parametrize("case_id", gallery.case_ids())
def test_each_check_reports_the_same_alone_and_in_the_suite(case_id, points):
    """A check run alone builds and evaluates everything itself; in a
    suite it shares the pieces of each tuple, and their values, with the
    case's other checks.  Its whole report is the same either way: the
    catalog checks, the case checks and the checks of a mutation probe."""
    config = ids.CheckConfig(points=points, tuples=2)
    case = gallery.build_case(case_id)
    suite = ids.run_suite(case, config)
    assert [ids.check_identity(r.check_id, case, config) for r in suite] == suite
    specific = gallery.case_specific_checks(case, config)
    alone = [ids.run_check(case_checks.CASE_CHECKS[r.check_id], case, config) for r in specific]
    assert alone == specific
    checks, index = ("S1", "S2p", "B1v", "D1"), (0, 1, 0)
    probes = [r for c in checks for r in ids.mutation_probe(case, (c,), index=index, config=config)]
    assert ids.mutation_probe(case, checks, index=index, config=config) == probes


def test_a_mutation_probe_of_several_checks_equals_probes_of_one_each():
    case = gallery.build_case("flat_with_torsion")
    checks = ("S1", "S2p", "B1v", "CS1", "D1")
    probes = [r for c in checks for r in ids.mutation_probe(case, (c,), config=SMALL)]
    assert ids.mutation_probe(case, checks, config=SMALL) == probes


def _lone_check(case, config):
    return ids.check_identity("B2v", case, config)


def _lone_case_check(case, config):
    return ids.run_check(case_checks.CASE_CHECKS["reeb-contracted-second-bianchi"], case, config)


def test_no_sampled_field_outlives_run_suite(sampled):
    """Nothing that a case's sampling scope keeps outlives it: not its
    fields, nor the pieces built from them and their values, after a
    suite, the case checks, a mutation probe, or a catalog check or case
    check run alone in a scope of its own.  Holding the scope open over
    the first three keeps about 1.6 MB; once it closes, the traced size is
    back within a few KB of where it was.  The first runs fill lasting
    memos on the case's connection, so they run first, and a full
    collection empties the interpreter's free lists before each reading."""
    case = gallery.build_case("contact_r3")
    runs = (ids.run_suite, gallery.case_specific_checks, ids.mutation_probe,
            _lone_check, _lone_case_check)
    for run in runs * 2:
        run(case, config=SMALL)
    sampled.clear()

    def traced():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        for run in runs:
            before = traced()
            run(case, config=SMALL)
            assert ids._tuples is None and geo._scope is None
            grown = traced() - before
            assert grown < 16 * 1024, (run.__name__, grown)
    finally:
        tracemalloc.stop()
    assert sampled and all(ref() is None for ref in sampled)


def test_a_lone_check_peaks_below_two_and_a_half_megabytes():
    """random_poly's B2v at 20 points and 2 tuples.  Its traced peak is
    1.70 MB when a walk stores only the values of nodes held more than
    once, and 3.67 MB when it stores every node's 20-float list.  The bound
    assumes CPython's object sizes, as the pinned digests assume a libm."""
    case = gallery.build_case("random_poly")
    tracemalloc.start()
    try:
        ids.check_identity("B2v", case, ids.CheckConfig(points=20, tuples=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_a_nested_sampling_scope_reuses_the_open_one(sampled):
    spec = ids.SampleSpec(vectors=1)
    with ids.sampling():
        with ids.sampling():
            inner = ids.sample_fields(R3, 1, spec).vectors[0]
        assert ids.sample_fields(R3, 1, spec).vectors[0] is inner
        del inner
        assert sampled[0]() is not None
    assert len(sampled) == 1 and sampled[0]() is None


def test_the_sampling_scope_is_emptied_when_a_check_raises(sampled):
    def factory(case):
        def build(vectors, forms):
            raise geo.GeometryError("build failed")

        return build

    case = gallery.build_case("random_poly")
    with pytest.raises(geo.GeometryError, match="build failed"):
        with ids.sampling():
            ids.run_check(_check(ids.SampleSpec(vectors=2), factory), case, SMALL)
    gc.collect()  # the traceback's frames held the sampled tuple
    assert len(sampled) == 2 and all(ref() is None for ref in sampled)


# -- report and config contracts -------------------------------------------------


@pytest.mark.parametrize(
    "residual, cleared, passed",
    [(1e-8, False, True), (1.0, False, False), (1.0, True, True), (math.nan, False, False)],
)
def test_report_pass_flag_follows_residual_tolerance_and_clearing(residual, cleared, passed):
    report = ids.Report(
        case_id="c", check_id="S1", points=1, tuples=1, max_residual=residual,
        tolerance=1e-8, seed=0, cleared=cleared,
    )
    assert report.passed is passed


def test_report_json_dict_key_order():
    report = ids.Report(
        case_id="c",
        check_id="S1",
        points=2,
        tuples=3,
        max_residual=0.0,
        tolerance=1e-8,
        seed=5,
    )
    payload = report.to_json_dict()
    assert list(payload) == [
        "case",
        "check",
        "points",
        "tuples",
        "max_residual",
        "tol",
        "pass",
        "seed",
    ]
    assert payload["case"] == "c" and payload["seed"] == 5


def test_check_config_validation():
    with pytest.raises(ids.SuiteError, match="^points must be at least 1$"):
        ids.CheckConfig(points=0)
    with pytest.raises(ids.SuiteError, match="^tuples must be at least 1$"):
        ids.CheckConfig(tuples=0)
    for tolerance in (0.0, math.nan, math.inf):
        with pytest.raises(ids.SuiteError, match="^tolerance must be a positive finite number$"):
            ids.CheckConfig(tolerance=tolerance)


def test_sample_specs_with_equal_fields_are_equal():
    # run_check samples one tuple for a check whose spec equals SampleSpec()
    assert ids.SampleSpec() == ids.SampleSpec()
    assert ids.SampleSpec(2, (1,)) == ids.SampleSpec(vectors=2, form_degrees=(1,))
    assert ids.SampleSpec(vectors=1) != ids.SampleSpec()
    assert ids.SampleSpec(form_degrees=(1,)) != ids.SampleSpec()


def test_unknown_check_raises():
    case = gallery.build_case("flat_euclidean")
    with pytest.raises(ids.UnknownCheckError):
        ids.check_identity("NOPE", case)


def test_catalog_has_the_full_check_list():
    """Every check by id, with the degree of the forms it relates: on a
    chart of lower dimension the check is 0 = 0; the others declare 0."""
    assert {check_id: check.degree for check_id, check in ids.CATALOG.items()} == {
        "S1": 2, "S1p": 0, "S2": 2, "S2p": 0, "B1": 3, "B2": 3, "B1v": 0, "B2v": 0,
        "CS1": 2, "CS2": 2, "C1": 3, "C2": 3, "D1": 2, "D2": 2, "DB1": 3, "DB2": 3,
        "E1": 2, "LC1": 3,
    }


# -- applicability ----------------------------------------------------------------


def test_cartan_checks_need_a_coframe():
    base = gallery.build_case("flat_euclidean")
    case = dataclasses.replace(base, coframe=None)
    with pytest.raises(ids.ApplicabilityError):
        ids.check_identity("CS1", case)
    ran = {r.check_id for r in ids.run_suite(case, ids.CheckConfig(points=2, tuples=1))}
    assert {"CS1", "CS2", "C1", "C2"}.isdisjoint(ran)
    assert "S1" in ran


def test_torsion_free_check_skips_torsioned_cases():
    case = gallery.build_case("flat_with_torsion")
    with pytest.raises(ids.ApplicabilityError):
        ids.check_identity("LC1", case)
    ran = {r.check_id for r in ids.run_suite(case, ids.CheckConfig(points=2, tuples=1))}
    assert "LC1" not in ran and len(ran) == 17


# -- the catalog holds on the gallery ----------------------------------------------


def run_all(case, **overrides):
    defaults = dict(points=10, tuples=3, tolerance=1e-8)
    defaults.update(overrides)
    return ids.run_suite(case, ids.CheckConfig(**defaults))


def test_flat_euclidean_suite_all_pass_tightly():
    reports = run_all(gallery.build_case("flat_euclidean"), tolerance=1e-12)
    assert len(reports) == 18
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_flat_with_torsion_suite_all_pass():
    reports = run_all(gallery.build_case("flat_with_torsion"))
    assert len(reports) == 17
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_random_connection_suite_all_pass():
    reports = run_all(gallery.build_case("random_poly:2"))
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_sphere_suite_all_pass_with_absolute_residuals():
    # trig Christoffels push member magnitudes to ~1e5 on sampled tuples;
    # the exact recheck clears the float rounding above the tolerance
    reports = run_all(gallery.build_case("sphere_lc"))
    assert len(reports) == 18
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_dense_metric_case_file_at_dim_five_all_pass(tmp_path):
    """The whole catalog on the Levi-Civita connection of a dense metric
    on a 5-chart, loaded from a case file, at one point and one tuple."""
    entries = [f"{i} {j} = {dense_metric_entry(i, j)}" for i in range(1, 6) for j in range(i, 6)]
    path = tmp_path / "dense5.case"
    path.write_text(
        "[chart]\nname = dense5\ncoords = x1 x2 x3 x4 x5\nrange = -1 1\n\n[metric]\n"
        + "\n".join(entries)
        + "\n"
    )
    case = casefile.load_case_file(str(path)).case
    reports = ids.run_suite(case, ids.CheckConfig(points=1, tuples=1))
    assert len(reports) == 18
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_random_polynomial_catalog_at_dim_five_all_pass():
    """The whole catalog on the random-polynomial connection of a 5-chart
    at the default number of points and one tuple: the dimension where
    the checks of a case share the most walks."""
    chart = geo.Chart("r5", ("x", "y", "z", "w", "v"), ((-1.0, 1.0),) * 5)
    case = gallery._random_poly(chart, "random_poly5")(0)
    reports = ids.run_suite(case, ids.CheckConfig(tuples=1))
    assert len(reports) == 17
    assert all(r.passed for r in reports), [
        (r.check_id, r.max_residual) for r in reports if not r.passed
    ]


def test_degree_three_checks_degenerate_on_two_dimensional_charts():
    # every member of B2 is a 3-form, identically zero on a 2-chart
    report = ids.check_identity("B2", gallery.build_case("sphere_lc"))
    assert report.passed and report.max_residual == 0.0


# -- determinism ------------------------------------------------------------------


def test_reports_bit_identical_for_fixed_seed():
    case = gallery.build_case("random_poly")
    config = ids.CheckConfig(points=5, tuples=2, seed=9)
    assert ids.check_identity("B1", case, config) == ids.check_identity("B1", case, config)


def test_seed_changes_sampled_residual():
    case = gallery.build_case("random_poly")
    a = ids.check_identity("B1", case, ids.CheckConfig(points=5, tuples=2, seed=1))
    b = ids.check_identity("B1", case, ids.CheckConfig(points=5, tuples=2, seed=2))
    assert a.max_residual != b.max_residual


def test_run_suite_sorted_by_check_id():
    case = gallery.build_case("flat_euclidean")
    reports = ids.run_suite(case, ids.CheckConfig(points=2, tuples=1))
    assert [r.check_id for r in reports] == sorted(r.check_id for r in reports)


def test_report_round_trips_through_json():
    case = gallery.build_case("flat_euclidean")
    report = ids.check_identity("S1", case, ids.CheckConfig(points=3, tuples=2))
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["check"] == "S1" and payload["pass"] is True


# -- mutation sensitivity -----------------------------------------------------------


def test_mutation_probe_trips_at_least_one_check():
    case = gallery.build_case("flat_with_torsion")
    reports = ids.mutation_probe(case)
    assert {r.check_id for r in reports} == {"S1", "B1v", "D1"}
    assert any(not r.passed for r in reports)
    assert all(r.case_id == "flat_with_torsion+mutated" for r in reports)


def test_mutation_probes_of_the_whole_catalog_match_the_pinned_digest():
    """The reports of probing every applicable catalog check on two cases
    with one off-diagonal mutant are byte-identical across changes to how
    a probe's checks and tuples share values.  ``sphere_lc`` evaluates sin
    and cos, so this digest assumes the libm of the platform it was pinned
    on."""
    rows = []
    for case_id in ("sphere_lc", "foliation_adapted_n4"):
        case = gallery.build_case(case_id)
        checks = [c for c in sorted(ids.CATALOG) if ids.CATALOG[c].applicable(case)]
        probes = ids.mutation_probe(
            case, checks, index=(1, 0, 1), config=ids.CheckConfig(points=10, tuples=2)
        )
        rows += [r.to_json_dict() for r in probes]
    assert (len(rows), sum(not row["pass"] for row in rows)) == (35, 25)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "bf2a2a9172e571823f862aec7e3109bb528c2c36e209cc67e87834a026a1f46c"
    )


def test_a_mutation_probe_builds_few_constants():
    """Folds with 0 and 1 return an operand rather than a new constant.
    Building them anew, this probe made 3,113 constants; it makes 85."""
    case = gallery.build_case("flat_with_torsion")
    config = ids.CheckConfig(points=2, tuples=1)
    with const_constructions() as made:
        ids.mutation_probe(case, ("B2v", "S2p", "C1"), index=(2, 0, 1), delta=1, config=config)
    assert made.count <= 300


def test_mutation_probe_leaves_original_case_intact():
    case = gallery.build_case("flat_with_torsion")
    before = case.connection.christoffel(2, 0, 1)
    ids.mutation_probe(case)
    assert case.connection.christoffel(2, 0, 1) is before
    # and the unmutated case still passes
    assert ids.check_identity("S1", case, ids.CheckConfig(points=4, tuples=2)).passed


def test_mutation_probe_fails_d1_after_the_original_curvature_is_built():
    case = gallery.build_case("flat_with_torsion")
    con.torsion(case.connection)
    con.curvature(case.connection)
    (report,) = ids.mutation_probe(case, ("D1",), config=ids.CheckConfig(points=4, tuples=2))
    assert not report.passed


def test_mutation_probe_fails_cs1_after_the_original_cartan_forms_are_built():
    case = gallery.build_case("flat_with_torsion")
    sf.cartan_coframe_forms(case.connection, case.coframe)
    reports = ids.mutation_probe(
        case,
        ["CS1", "CS2", "C1", "C2"],
        index=(2, 0, 1),
        delta=1,
        config=ids.CheckConfig(points=5, tuples=2),
    )
    cs1 = reports[0]
    assert cs1.check_id == "CS1" and not cs1.passed
    assert cs1.max_residual == pytest.approx(23.236, abs=1e-3)


def test_failing_report_records_worst_tuple_and_point():
    case = gallery.build_case("flat_with_torsion")
    failed = [r for r in ids.mutation_probe(case) if not r.passed]
    assert failed
    for report in failed:
        assert report.worst_point is not None
        assert report.worst_tuple is not None


# -- cross-connection probing ---------------------------------------------------------


def test_two_sided_evaluation_detects_connection_mismatch():
    """Driving LHS and RHS with different connections must break identities."""
    case = gallery.build_case("random_poly")
    other = gallery.build_case("random_poly:5")
    crossed = dataclasses.replace(case, rhs_connection=other.connection)
    report = ids.check_identity("S1", crossed, ids.CheckConfig(points=5, tuples=3))
    assert not report.passed


# -- non-finite residuals and the evaluate hook ----------------------------------------


def overflowing_case():
    """flat_with_torsion with coefficients whose products overflow to inf."""
    case = gallery.build_case("flat_with_torsion")
    big = se.Const(10**300)
    conn = con.Connection.from_nonzero(
        case.chart,
        {(2, 0, 1): big, (2, 1, 0): se.neg(big), (0, 0, 0): se.mul(big, se.Var("x"))},
    )
    return dataclasses.replace(case, connection=conn)


# CS1 is left out: on this connection both of its sides are finite and equal
@pytest.mark.parametrize("check_id", ["B1v", "S2", "CS2"])
def test_non_finite_residual_fails_the_check(check_id):
    """The check fails, and its JSON row holds the residual as the string
    "nan" or "inf": JSON has no NaN or Infinity, and a strict parser
    refuses them."""
    report = ids.check_identity(check_id, overflowing_case())
    assert not report.passed
    assert not math.isfinite(report.max_residual)
    assert report.worst_point is not None

    def refuse(constant):
        raise ValueError(f"not JSON: {constant}")

    row = json.loads(json.dumps(report.to_json_dict()), parse_constant=refuse)
    assert row["max_residual"] == str(report.max_residual) in ("nan", "inf")


def mutated_case():
    """flat_with_torsion with Gamma^2_01 += 1 on the left side only: D1's
    third pair fails exactly."""
    case = gallery.build_case("flat_with_torsion")
    return dataclasses.replace(
        case, id=f"{case.id}+mutated",
        connection=case.connection.perturbed(2, 0, 1, 1), rhs_connection=case.connection,
    )


def test_check_identity_evaluates_through_the_module_hook(monkeypatch):
    """Each side of each pair is evaluated once per point through the
    module attribute symexpr.evaluate, and its values decide the residual
    unless the exact recheck overrules them."""
    case, mutant = gallery.build_case("flat_with_torsion"), mutated_case()
    config = ids.CheckConfig(points=3, tuples=2)
    pairs = config.tuples * case.chart.dim  # D1 pairs up vector components
    calls = []

    def counting(expr, point):
        calls.append(expr)
        return 0.25 if len(calls) % 2 else 1.0  # lhs 0.25, rhs 1.0

    monkeypatch.setattr(se, "evaluate", counting)
    report = ids.check_identity("D1", mutant, config)
    assert len(calls) == 2 * pairs * config.points
    assert report.max_residual == 0.75
    assert not report.passed

    # on the true identity the recheck overrules the fake values' verdict
    calls.clear()
    report = ids.check_identity("D1", case, config)
    assert len(calls) == 2 * pairs * config.points
    assert report.max_residual == 0.75
    assert report.passed and report.cleared


# -- the cycle collector ------------------------------------------------------------


def _check(spec, factory):
    return ids.IdentityCheck("T", "test check", "test", lambda chart: spec, factory)


def _failing_factory(case):
    raise geo.GeometryError("factory failed")


@pytest.mark.parametrize("collecting", [True, False])
def test_run_check_pauses_the_collector_and_restores_it(collecting):
    case = gallery.build_case("random_poly")
    seen = []

    def factory(case):
        seen.append(gc.isenabled())

        def build(vectors, forms):
            seen.append(gc.isenabled())
            return [(c, c) for c in vectors[0].comps]

        return build

    with collector(collecting):
        report = ids.run_check(
            _check(ids.SampleSpec(vectors=1), factory), case, ids.CheckConfig(points=2, tuples=2)
        )
        assert gc.isenabled() is collecting
    assert report.passed
    assert seen == [False, False, False]


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize(
    "spec, factory, error",
    [
        (ids.SampleSpec(vectors=1), _failing_factory, "factory failed"),
        # random_poly lives on a 3-chart
        (ids.SampleSpec(form_degrees=(4,)), lambda case: lambda vectors, forms: [], "degree-4"),
    ],
)
def test_run_check_restores_the_collector_when_the_check_raises(collecting, spec, factory, error):
    case = gallery.build_case("random_poly")
    with collector(collecting):
        with pytest.raises(geo.GeometryError, match=error):
            ids.run_check(_check(spec, factory), case, ids.CheckConfig(points=2, tuples=2))
        assert gc.isenabled() is collecting


@pytest.mark.parametrize("collecting", [True, False])
def test_a_sampling_scope_pauses_the_collector_across_its_checks(collecting):
    """The outermost scope pauses the collector for its checks and between
    them, a nested scope or a check that raises leaves it paused, and the
    collector is left as the caller had it when the scope closes, also on
    a raise."""
    case = gallery.build_case("random_poly")
    config = ids.CheckConfig(points=2, tuples=1)
    seen = []
    with collector(collecting):
        with ids.sampling():
            seen.append(gc.isenabled())
            ids.check_identity("D1", case, config)
            seen.append(gc.isenabled())
            with ids.sampling():
                seen.append(gc.isenabled())
            seen.append(gc.isenabled())
            with pytest.raises(geo.GeometryError, match="factory failed"):
                ids.run_check(_check(ids.SampleSpec(vectors=1), _failing_factory), case, config)
            seen.append(gc.isenabled())
        assert gc.isenabled() is collecting
        with pytest.raises(RuntimeError, match="scope failed"):
            with ids.sampling():
                seen.append(gc.isenabled())
                raise RuntimeError("scope failed")
        assert gc.isenabled() is collecting
    assert seen == [False] * 6


def test_checks_leave_no_reference_cycles():
    """What lets run_check pause the collector: building every gallery case
    and running its catalog checks, its case-specific checks and a mutation
    probe leave nothing for the collector to free."""
    config = ids.CheckConfig(points=3, tuples=1)
    gc.collect()
    with collector(False):
        for case_id in gallery.case_ids():
            case = gallery.build_case(case_id)
            ids.run_suite(case, config)
            gallery.case_specific_checks(case, config)
            ids.mutation_probe(case, index=(0, 1, 0), config=config)
        assert gc.collect() == 0


# -- the exact recheck ----------------------------------------------------------------


def test_every_catalog_pair_holds_exactly_on_random_poly():
    case = gallery.build_case("random_poly")
    chart = case.chart
    for check_id, check in sorted(ids.CATALOG.items()):
        if not check.applicable(case):
            continue
        batch = ids.sample_fields(chart, f"exact/{check_id}", check.sample_spec(chart))
        pairs = check.factory(case)(batch.vectors, batch.forms)
        assert pairs, check_id
        assert all(se.holds_exactly(lhs, rhs) for lhs, rhs in pairs), check_id


def test_holds_exactly_rejects_the_d1_pair_of_a_perturbed_connection():
    case = mutated_case()
    check = ids.CATALOG["D1"]
    batch = ids.sample_fields(case.chart, "exact/D1", check.sample_spec(case.chart))
    pairs = check.factory(case)(batch.vectors, batch.forms)
    assert [se.holds_exactly(lhs, rhs) for lhs, rhs in pairs] == [True, True, False]
