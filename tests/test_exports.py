"""Every exported name of the core and application modules resolves, the
modules loaded on first use call the traced modules through module
attributes, the test oracles live in ``tests/oracles.py``, not in the
package, deleted re-checks stay deleted, and expression nodes compare by
identity."""

import ast
import importlib
from pathlib import Path

import pytest

from bianchi import connection as con
from bianchi import contact, exact, foliation, mechanics
from bianchi import geometry as geo
from bianchi import identity_suite as ids
from bianchi import structure_forms as sf
from bianchi import symexpr as se


@pytest.mark.parametrize(
    "module", [se, geo, con, contact, foliation, mechanics, exact], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


EXPORTS = {
    "contact": ["ContactStructure", "derive_contact_structure", "standard_contact_form"],
    "foliation": ["FoliationStructure"],
    "mechanics": [
        "SodeStructure", "build_sode_structure", "derive_massa_pagani",
        "massa_pagani_property_residuals", "build_cartan_form", "oscillator_lagrangian",
    ],
    "exact": ["holds_exactly"],
}


@pytest.mark.parametrize("name", EXPORTS)
def test_the_application_modules_and_the_exact_recheck_export(name):
    assert importlib.import_module(f"bianchi.{name}").__all__ == EXPORTS[name]


# the modules whose functions perfbench's tracer wraps by rebinding them
TRACED = ("symexpr", "geometry", "connection", "structure_forms")
ON_FIRST_USE = ("contact", "foliation", "mechanics", "case_checks", "parsing", "describe", "exact")


@pytest.mark.parametrize("name", ON_FIRST_USE)
def test_modules_loaded_on_first_use_import_no_traced_function_by_name(name):
    """A module imported after a tracer has rebound the traced modules'
    functions would keep the unwrapped function it bound by name, so it
    may import only classes, exceptions and constants from them by name."""
    module = importlib.import_module(f"bianchi.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        source = node.module if node.level == 1 else node.module.partition("bianchi.")[2]
        if source not in TRACED:
            continue
        owner = importlib.import_module(f"bianchi.{source}")
        for alias in node.names:
            value = getattr(owner, alias.name)
            if callable(value) and not isinstance(value, type):
                bound.append(f"{source}.{alias.name}")
    assert bound == []


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
