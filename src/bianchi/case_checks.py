"""The claims of the paper's three applications, as identity checks.

Each claim is an ``IdentityCheck`` whose applicability predicate asks for
the case's contact structure, foliation or Cartan form, which
:mod:`bianchi.contact`, :mod:`bianchi.foliation` and
:mod:`bianchi.mechanics` build.  :func:`bianchi.identity_suite.run_check`
samples its points and vectors and scans its (lhs, rhs) pairs like any
catalog check.  They stay out of ``identity_suite.CATALOG``, so
``verify`` runs them only with ``--case-checks`` or a ``--check`` that
names one.

:func:`bianchi.gallery.case_specific_checks` imports this module only for
a case that carries one of those structures, and the CLI only to list
checks, describe a case or resolve a ``--check`` id outside the catalog,
so a run of the baseline cases never compiles it.  Calls into the other
modules go through module attributes (``con.*``, ``geo.*``, ``se.*``,
``sf.*``), so a wrapper installed on those modules before this one is
imported still sees every call.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from . import connection as con
from . import geometry as geo
from . import structure_forms as sf
from . import symexpr as se
from .geometry import VectorField
from .identity_suite import IdentityCheck, _spec_fixed

if TYPE_CHECKING:
    from .foliation import FoliationStructure


def _vanishes(exprs):
    """Builder of the pairs (e, 0) of a claim that takes no sampled fields."""
    pairs = [(e, 0) for e in exprs]
    return lambda vectors, forms: pairs


def _reeb_parallel(case):
    reeb = case.contact.reeb
    return _vanishes(con.covariant_derivative(case.connection, reeb, reeb).comps)


def _reeb_covector_parallel(case):
    contact = case.contact
    derived = con.covariant_derivative(case.connection, contact.reeb, contact.form)
    return _vanishes(derived.comps.values())


def _reeb_connection_form(case):
    contact = case.contact
    form = sf.connection_form(case.connection, contact.form, contact.reeb)
    return _vanishes(form.comps.values())


def _reeb_curvature_form(case):
    contact = case.contact
    form = sf.curvature_form(case.connection, contact.form, contact.reeb)
    return _vanishes(form.comps.values())


def _reeb_contracted_second_bianchi(case):
    # contraction of the curvature-form Bianchi identity with the Reeb field:
    # the differential's Reeb contraction balances the two wedge pairings
    conn, alpha, reeb = case.connection, case.contact.form, case.contact.reeb
    d_curvature = geo.exterior_derivative(sf.curvature_form(conn, alpha, reeb))

    def build(vectors, forms):
        args = [reeb, *vectors]
        rhs = se.add(
            sf.wedge_covector_curvature_apply(conn, alpha, reeb, args),
            sf.wedge_curvature_three_nabla_apply(conn, alpha, reeb, args),
        )
        return [(d_curvature.apply(args), rhs)]

    return build


def _leaf(foliation: FoliationStructure, x: VectorField) -> VectorField:
    """Projection X - theta(X) T of a field onto the leaves."""
    return x - foliation.transverse.scale(foliation.form.apply([x]))


def _restricted_torsion_is_identity_wedge(case):
    # T_theta(U, U') = xi_theta(U, U') on leaf fields; it holds
    # exactly when the kernel of theta is integrable, for any connection
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        pair = [_leaf(foliation, x) for x in vectors]
        lhs = sf.torsion_form_apply(conn, foliation.form, pair)
        return [(lhs, sf.xi_form_apply(conn, foliation.form, pair))]

    return build


def _adapted_derivative_is_scaling(case):
    # nabla_X theta is a multiple of theta: its leaf components vanish
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        derived = con.covariant_derivative(conn, vectors[0], foliation.form)
        return [(derived.apply([u]), 0) for u in foliation.leaf_fields]

    return build


def _restricted_torsion_form(case):
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        pair = [_leaf(foliation, x) for x in vectors]
        return [(sf.torsion_form_apply(conn, foliation.form, pair), 0)]

    return build


def _restricted_curvature_form(case):
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        x, y, z = vectors
        leaf = _leaf(foliation, z)
        return [(sf.curvature_form_apply(conn, foliation.form, leaf, [x, y]), 0)]

    return build


def _restricted_torsion_differential(case):
    foliation = case.foliation
    d_torsion = geo.exterior_derivative(sf.torsion_form(case.connection, foliation.form))

    def build(vectors, forms):
        return [(d_torsion.apply([_leaf(foliation, x) for x in vectors]), 0)]

    return build


def _restricted_curvature_differential(case):
    conn, foliation = case.connection, case.foliation

    def build(vectors, forms):
        z, *args = [_leaf(foliation, x) for x in vectors]
        d_curvature = geo.exterior_derivative(sf.curvature_form(conn, foliation.form, z))
        return [(d_curvature.apply(args), 0)]

    return build


def _cartan_claims(claims):
    """Factory of the claims ``claims(conn, sode, omega)`` that vanish, where
    omega is the differential of the case's Lagrangian 1-form."""

    def factory(case):
        _, omega = case.cartan_form
        return _vanishes(claims(case.connection, case.sode, omega))

    return factory


def _closure(conn, sode, omega):
    # omega is closed, and so are its torsion and derivative-sum forms
    return [
        *geo.exterior_derivative(omega).comps.values(),
        *sf.torsion_form(conn, omega).comps.values(),
        *sf.xi_form(conn, omega).comps.values(),
    ]


def _helmholtz(form_apply: str, *slots: str):
    """Claims ``sf.<form_apply>(conn, omega, [A, B, C]) = 0`` with each
    argument running over the semispray (S), horizontal (H) or vertical (V)
    frame fields its slot names."""

    def claims(conn, sode, omega):
        frame = {"S": (sode.semispray,), "H": sode.horizontal_fields, "V": sode.vertical_fields}
        # looked up at call time, like every other structure_forms call here,
        # so a wrapper installed on the module (perfbench's tracer) sees it
        apply = getattr(sf, form_apply)
        fields = itertools.product(*(frame[slot] for slot in slots))
        return [apply(conn, omega, list(args)) for args in fields]

    return _cartan_claims(claims)


def _table(*groups) -> dict[str, IdentityCheck]:
    """Entries from (anchor, predicate, rows) groups; a row is (id, name,
    number of sampled vectors, factory)."""
    return {
        identifier: IdentityCheck(identifier, name, anchor, _spec_fixed(count), factory, applies)
        for anchor, applies, rows in groups
        for identifier, name, count, factory in rows
    }


CASE_CHECKS: dict[str, IdentityCheck] = _table(
    ("contact structure", lambda case: case.contact is not None, (
        ("reeb-parallel", "the Reeb field is parallel along itself", 0, _reeb_parallel),
        ("reeb-covector-parallel", "the contact form is parallel along the Reeb field", 0,
         _reeb_covector_parallel),
        ("reeb-connection-form-vanishes", "connection form of the Reeb field vanishes", 0,
         _reeb_connection_form),
        ("reeb-curvature-form-vanishes", "curvature form of the Reeb field vanishes", 0,
         _reeb_curvature_form),
        ("reeb-contracted-second-bianchi", "second Bianchi identity contracted with the Reeb "
         "field", 2, _reeb_contracted_second_bianchi),
    )),
    ("codimension-one foliation", lambda case: case.foliation is not None, (
        ("restricted-torsion-is-identity-wedge", "on leaves the torsion form is the identity "
         "wedge", 2, _restricted_torsion_is_identity_wedge),
        ("adapted-derivative-is-scaling", "covariant derivatives of the form scale it", 1,
         _adapted_derivative_is_scaling),
        ("restricted-torsion-form-vanishes", "torsion form vanishes on leaves", 2,
         _restricted_torsion_form),
        ("restricted-curvature-form-vanishes", "curvature form of a leaf field vanishes", 3,
         _restricted_curvature_form),
    )),
    (
        "codimension-one foliation with leaves of dimension 3 or more",
        lambda case: case.foliation is not None and len(case.foliation.leaf_fields) >= 3,
        (
            ("restricted-torsion-differential-vanishes", "differential of the torsion form "
             "vanishes on leaves", 3, _restricted_torsion_differential),
            ("restricted-curvature-differential-vanishes", "differential of a leaf field's "
             "curvature form vanishes on leaves", 4, _restricted_curvature_differential),
        ),
    ),
    ("Cartan form of a regular Lagrangian", lambda case: case.cartan_form is not None, (
        ("closure-structure-equivalence", "closed 2-form has closed torsion and derivative-sum "
         "forms", 0, _cartan_claims(_closure)),
        ("helmholtz-torsion-vertical", "torsion form on (S, V, V) vanishes", 0,
         _helmholtz("torsion_form_apply", "S", "V", "V")),
        ("helmholtz-torsion-horizontal", "torsion form on (S, H, H) vanishes", 0,
         _helmholtz("torsion_form_apply", "S", "H", "H")),
        ("helmholtz-derivative-mixed", "derivative-sum form on (S, V, H) vanishes", 0,
         _helmholtz("xi_form_apply", "S", "V", "H")),
        ("helmholtz-derivative-vertical", "derivative-sum form on (V, V, H) vanishes", 0,
         _helmholtz("xi_form_apply", "V", "V", "H")),
    )),
)
