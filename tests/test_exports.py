"""Every exported name of the core modules resolves, the test oracles
live in ``tests/oracles.py``, not in the package, deleted re-checks stay
deleted, and expression nodes compare by identity."""

import pytest

from bianchi import connection as con
from bianchi import geometry as geo
from bianchi import identity_suite as ids
from bianchi import structure_forms as sf
from bianchi import symexpr as se


@pytest.mark.parametrize("module", [se, geo, con], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("owner, name", [
    (con, "torsion_via_definition"),
    (con, "curvature_via_definition"),
    (geo, "exterior_derivative_intrinsic_expr"),
    (sf, "curvature_three_form_via_iterated_derivatives"),
    (sf, "connection_form_apply"),
    (geo.VectorField, "evaluate"),
])
def test_oracles_are_not_part_of_the_package(owner, name):
    assert name not in getattr(owner, "__all__", ())
    assert not hasattr(owner, name)


@pytest.mark.parametrize("owner, name", [
    (sf.CoFrame, "validate"),
    (sf.CoFrame, "duality_residual"),
    (geo.TensorValuedForm, "KINDS"),
    (con.Metric, "inverse"),
    (con.Metric, "determinant"),
    (ids, "SamplingError"),
    (ids, "_wedge_capped"),
    (geo, "_symbolic_det"),
])
def test_re_checks_and_wrappers_stay_deleted(owner, name):
    """Each invariant is checked in the object that owns it: coframe
    duality in CoFrame.__init__, the value kind by the value's type, the
    sampled degree in random_pform and the degree past the top in PForm;
    every determinant is a minor of geometry._Minors."""
    assert not hasattr(owner, name)


def test_expression_nodes_compare_and_hash_by_identity():
    nodes = [cls for cls in vars(se).values() if isinstance(cls, type) and issubclass(cls, se.Expr)]
    assert se.Var in nodes and se.Sin in nodes
    assert [cls for cls in nodes if "__eq__" in vars(cls) or "__hash__" in vars(cls)] == []
    assert se.Expr.__slots__ == ("_derivs",)
