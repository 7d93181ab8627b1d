"""Per-tuple sharing: inside a ``geometry.sharing`` scope each omega(X),
nabla_X Y, nabla_{d/dx^i} theta, (X wedge Y)^{ij} and tensor-valued form
value is built once; outside one every request builds afresh and nothing
is kept.  Shared results are the nodes the first request built, so the
values do not change."""

import random
from contextlib import nullcontext

import pytest

from bianchi import connection as con
from bianchi import gallery
from bianchi import geometry as geo
from bianchi import identity_suite as ids
from bianchi import symexpr as se
from oracles import (
    R3,
    leibniz_determinant,
    random_linear_connection,
    reachable,
    sample_fields,
    sample_points,
)


def _setting(seed=71):
    conn = random_linear_connection(R3, seed)
    rng = random.Random(seed + 1)
    X, Y, Z = sample_fields(R3, rng, 3)
    return conn, X, Y, Z, geo.random_pform(R3, 2, rng)


# a fixed form and field for the requests that take a third argument
_, _, _, _FIELD, _FORM = _setting(seed=75)

# one of each piece that a tuple's pairs repeat, requested as the builders do
REQUESTS = {
    "nabla_X Y": lambda conn, X, Y: con.covariant_derivative(conn, X, Y),
    "nabla_X theta": lambda conn, X, Y: con.covariant_derivative(conn, X, _FORM),
    "X wedge Y": lambda conn, X, Y: geo.shared(geo._Minors, X.comps, Y.comps)[0, 1],
    "T(X, Y)": lambda conn, X, Y: con.torsion(conn)(X, Y),
    "R(X, Y)": lambda conn, X, Y: con.curvature(conn)(X, Y),
    "R(X, Y)Z": lambda conn, X, Y: con.curvature(conn).apply_to(X, Y, _FIELD),
}


@pytest.mark.parametrize("name", REQUESTS)
def test_a_scope_returns_the_first_result_and_nothing_is_kept_outside(name):
    conn, X, Y, _, _ = _setting()
    request = REQUESTS[name]
    assert geo._scope is None
    assert request(conn, X, Y) is not request(conn, X, Y)
    with geo.sharing({}):
        first = request(conn, X, Y)
        assert request(conn, X, Y) is first
        assert request(conn, Y, X) is not first
    assert geo._scope is None
    assert request(conn, X, Y) is not first


def _counting(monkeypatch, name):
    calls = []
    original = getattr(con, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(con, name, counted)
    return calls


@pytest.mark.parametrize("scoped, builds", [(True, 1), (False, 2)])
def test_omega_and_axis_derivatives_are_built_once_per_scope(monkeypatch, scoped, builds):
    """omega(X) is shared by nabla_X of two fields, and each axis
    derivative nabla_{d/dx^i} theta by nabla_X theta and nabla_Y theta."""
    conn, X, Y, Z, theta = _setting()
    omega = _counting(monkeypatch, "_connection_matrix")
    axes = _counting(monkeypatch, "_cov_pform_along_axis")
    with geo.sharing({}) if scoped else nullcontext():
        con.covariant_derivative(conn, X, Y)
        con.covariant_derivative(conn, X, Z)
        con.covariant_derivative(conn, X, theta)
        con.covariant_derivative(conn, Y, theta)
    assert len(omega) == builds
    # X and Y have no constant-zero component: each uses every axis
    assert len(axes) == builds * R3.dim


def _tiny_check(build):
    return ids.IdentityCheck(
        "T", "test check", "test", lambda chart: ids.SampleSpec(vectors=2), lambda case: build
    )


def test_run_check_opens_one_scope_per_tuple_and_closes_it():
    """A check run alone builds each tuple in a sharing table of its own,
    and every table is emptied when the check returns."""
    case = gallery.build_case("random_poly")
    seen = []

    def build(vectors, forms):
        x, y = vectors
        seen.append(geo._scope)
        value = con.torsion(case.connection)(x, y)
        assert con.torsion(case.connection)(x, y) is value and geo._scope
        return [(c, c) for c in value.comps]

    report = ids.run_check(_tiny_check(build), case, ids.CheckConfig(points=3, tuples=3))
    assert report.passed
    assert len(seen) == 3 and len({id(scope) for scope in seen}) == 3
    assert seen == [{}, {}, {}]
    assert geo._scope is None and ids._tuples is None


def test_the_checks_of_a_case_share_each_tuples_pieces_in_a_sampling_scope():
    """Inside a sampling scope a later check gets the pieces that an
    earlier check of the case built from the same tuple, and every root of
    those pieces has a known value at the case's points, so none is left
    to visit.  A check run alone builds each tuple in a table of its own,
    emptied when it returns."""
    case = gallery.build_case("random_poly")
    config = ids.CheckConfig(points=3, tuples=2)
    built = []

    def build(vectors, forms):
        value = con.torsion(case.connection)(*vectors)
        built.append(value)
        return [(c, c) for c in value.comps]

    with ids.sampling():
        for _ in range(2):
            ids.run_check(_tiny_check(build), case, config)
        assert built[0] is built[2] and built[1] is built[3] and built[0] is not built[1]
        pieces = ids._tuples[case.chart, "0/random_poly/0"]
        values, unknown = pieces.values[config.points]
        assert unknown == []
        assert all(root in values for root in ids._table_roots(pieces.table.items()))
        assert built[0].comps[0] in values
        assert values[built[0].comps[0]] == [
            se.evaluate(built[0].comps[0], p)
            for p in geo.sample_points(case.chart, "0/random_poly/points", config.points)
        ]
    assert ids._tuples is None and not (pieces.fields or pieces.table or pieces.values)
    ids.run_check(_tiny_check(build), case, config)
    assert built[4] is not built[0]


def test_known_values_are_kept_per_number_of_points():
    """Runs at different numbers of points in one sampling scope share the
    pieces but not their values, and report what they report alone."""
    case = gallery.build_case("contact_r3")
    configs = [ids.CheckConfig(points=n, tuples=2) for n in (1, 4, 1, 4)]
    alone = [ids.check_identity("B2v", case, config) for config in configs]
    with ids.sampling():
        assert [ids.check_identity("B2v", case, config) for config in configs] == alone


def test_a_builder_that_raises_leaves_the_scope_closed_and_empty():
    case = gallery.build_case("random_poly")
    seen = []

    def build(vectors, forms):
        con.covariant_derivative(case.connection, *vectors)
        seen.append(geo._scope)
        assert seen[0]
        raise RuntimeError("builder failed")

    with pytest.raises(RuntimeError, match="builder failed"):
        ids.run_check(_tiny_check(build), case, ids.CheckConfig(points=2, tuples=2))
    assert seen == [{}]
    assert geo._scope is None


def test_sharing_builds_node_identical_values_from_fewer_nodes():
    """The degree-3 pair of one S2p tuple on foliation_adapted_n4, built
    with and without the scope: equal bit for bit at the sampled points,
    and the scoped pair reaches fewer distinct nodes."""
    case = gallery.build_case("foliation_adapted_n4")
    check = ids.CATALOG["S2p"]
    spec = check.sample_spec(case.chart)
    assert spec.form_degrees[-1] == 3
    batch = ids.sample_fields(case.chart, "sharing/0", spec)
    build = check.factory(case)
    plain = build(batch.vectors, batch.forms)[-1]
    with geo.sharing({}):
        scoped = build(batch.vectors, batch.forms)[-1]
    points = geo.sample_points(case.chart, "sharing/points", 5)
    for old, new in zip(plain, scoped):
        assert [se.evaluate(old, p) for p in points] == [se.evaluate(new, p) for p in points]
    assert len(reachable(*scoped)) < len(reachable(*plain))


def test_two_form_apply_equals_the_determinant_route_bit_for_bit():
    conn, X, Y, _, theta = _setting(seed=83)
    old = se.add_all(
        se.mul(value, leibniz_determinant([[X.comps[i], Y.comps[i]], [X.comps[j], Y.comps[j]]]))
        for (i, j), value in theta.comps.items()
    )
    new = theta.apply([X, Y])
    points = sample_points(R3, random.Random(84), 5)
    assert [se.evaluate(old, p) for p in points] == [se.evaluate(new, p) for p in points]
